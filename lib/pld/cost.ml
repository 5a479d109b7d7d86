module N = Pld_netlist.Netlist
module Fp = Pld_fabric.Floorplan
module Hls = Pld_hls.Hls_compile
module Pnr = Pld_pnr.Pnr

(* Fixed backend costs per invocation (scaled ~1/10 of the vendor
   tool's startup/context-load times; see DESIGN.md). The abstract
   shell makes the page-scoped context load far cheaper than the
   monolithic one — that asymmetry is the point of §4.1. *)
let o1_overhead = 0.7
let o3_overhead = 4.0
let o0_overhead = 0.08

(* Seconds per work unit, fitted to the measured rates of the in-tree
   algorithms (DESIGN.md §7). *)
let per_stmt = 8.1e-8
let per_syn_cell = 8.5e-7
let per_pack_cell = 2.7e-7
let per_move = 4.6e-7
let per_tile = 9.1e-7
let per_pop = 2.7e-7
let per_edge_sweep = 1.8e-8
let per_arc = 5.3e-8
let per_frame_byte = 1.0e-8
let per_cell_stamp = 2.8e-7
let per_instr = 1.2e-7

let units k n = k *. float_of_int n

let hls (i : Hls.impl) = units per_stmt (Pld_ir.Op.stmt_count i.Hls.op)
let syn (i : Hls.impl) = units per_syn_cell (N.cell_count i.Hls.netlist)
let pack nl = units per_pack_cell (N.cell_count nl)

let place (r : Pnr.result) =
  let g = r.Pnr.region in
  units per_move r.Pnr.place.Pld_pnr.Place.moves_evaluated
  +. units per_tile ((g.Fp.x1 - g.Fp.x0 + 1) * (g.Fp.y1 - g.Fp.y0 + 1))

let route (r : Pnr.result) =
  let rt = r.Pnr.route in
  units per_pop rt.Pld_pnr.Route.heap_pops
  +. units per_edge_sweep
       (rt.Pld_pnr.Route.iterations * Array.length rt.Pld_pnr.Route.rrg.Pld_fabric.Rrg.edges)

let sta (r : Pnr.result) =
  let nl = r.Pnr.netlist in
  let sinks = Array.fold_left (fun acc (n : N.net) -> acc + List.length n.N.sinks) 0 nl.N.nets in
  units per_arc (N.cell_count nl + sinks)

let pnr r = place r +. route r +. sta r

let bitgen (r : Pnr.result) =
  units per_frame_byte (Pld_pnr.Bitgen.size_bytes r.Pnr.bitstream)
  +. units per_cell_stamp (Array.length r.Pnr.placement)

let riscv (p : Pld_riscv.Codegen.program) =
  units per_instr (Array.length p.Pld_riscv.Codegen.image.Pld_riscv.Asm.words)
