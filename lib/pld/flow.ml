open Pld_ir
module N = Pld_netlist.Netlist
module Fp = Pld_fabric.Floorplan
module Hls = Pld_hls.Hls_compile
module Pnr = Pld_pnr.Pnr
module Xclbin = Pld_platform.Xclbin

exception Build_error of string

let build_error fmt = Printf.ksprintf (fun m -> raise (Build_error m)) fmt

let find_instance_exn ~context (g : Graph.t) inst =
  match Graph.find_instance g inst with
  | Some i -> i
  | None ->
      build_error "%s: instance %S is not in graph %s (instances: %s)" context inst g.graph_name
        (String.concat ", " (List.map (fun (i : Graph.instance) -> i.inst_name) g.instances))

let find_channel_exn ~context (g : Graph.t) chan =
  match Graph.find_channel g chan with
  | Some c -> c
  | None ->
      build_error "%s: channel %S is not in graph %s (channels: %s)" context chan g.graph_name
        (String.concat ", " (List.map (fun (c : Graph.channel) -> c.chan_name) g.channels))

type phase_times = { hls : float; syn : float; pnr : float; bitgen : float; overhead : float }

let total_seconds t = t.hls +. t.syn +. t.pnr +. t.bitgen +. t.overhead

type o1_operator = {
  inst : string;
  op : Op.t;
  page : int;
  impl : Hls.impl;
  pnr : Pnr.result;
  xclbin : Xclbin.t;
  times : phase_times;
}

type o0_operator = {
  inst0 : string;
  op0 : Op.t;
  page0 : int;
  program : Pld_riscv.Codegen.program;
  elf : Pld_riscv.Elf.packed;
  xclbin0 : Xclbin.t;
  riscv_seconds : float;
}

type o3_app = {
  graph : Graph.t;
  impls : (string * Hls.impl) list;
  merged : N.t;
  pnr3 : Pnr.result;
  xclbin3 : Xclbin.t;
  times3 : phase_times;
}

(* NoC leaves the overlay instantiates: the DMA corner (leaf 0) plus
   one leaf per page, page id = leaf id. [Bft.create] rounds up to the
   next 4-ary tree capacity. Deriving this from the floorplan (instead
   of a hard-coded 32) keeps [Runner.noc_replay] and the card's
   overlay-loaded NoC structurally identical by construction. *)
let noc_leaves (fp : Fp.t) =
  1 + List.fold_left (fun acc (p : Fp.page) -> max acc p.page_id) 0 fp.pages

let overlay_xclbin (fp : Fp.t) =
  Xclbin.overlay ~pages:(List.map (fun (p : Fp.page) -> p.page_id) fp.pages) ~noc_leaves:(noc_leaves fp)

(* The operator packer of Fig. 6: wrap the operator netlist with the
   pre-defined leaf interface so it can talk to the linking network. *)
let pack_with_leaf (impl : Hls.impl) =
  let nl = impl.Hls.netlist in
  let b = N.Builder.create (nl.N.nl_name ^ "_leaf") in
  Array.iter (fun (c : N.cell) -> ignore (N.Builder.add_cell b ~name:c.cname ~kind:c.kind ~res:c.res ~delay_ns:c.delay_ns)) nl.N.cells;
  Array.iter (fun (n : N.net) -> ignore (N.Builder.add_net b ~name:n.nname ~driver:n.driver ~sinks:n.sinks)) nl.N.nets;
  let leaf =
    N.Builder.add_cell b ~name:"leaf_interface" ~kind:N.Control ~res:Assign.leaf_interface_res
      ~delay_ns:0.9
  in
  (* The leaf interface fronts every stream port. *)
  Array.iter
    (fun (c : N.cell) ->
      match c.kind with
      | N.Stream_in _ -> ignore (N.Builder.add_net b ~name:("leaf_rx_" ^ c.cname) ~driver:leaf ~sinks:[ c.cid ])
      | N.Stream_out _ -> ignore (N.Builder.add_net b ~name:("leaf_tx_" ^ c.cname) ~driver:c.cid ~sinks:[ leaf ])
      | _ -> ())
    nl.N.cells;
  Pld_hls.Synth.split_oversized (N.Builder.finish b)

let compile_o1_operator ?(seed = 7) ?impl (fp : Fp.t) ~page ~inst op =
  let impl = match impl with Some i -> i | None -> Hls.compile op in
  let packed = pack_with_leaf impl in
  let pg = Fp.find_page fp page in
  let pins =
    List.map (fun (p : Op.port) -> (p.port_name, pg.Fp.noc_leaf)) (op.Op.inputs @ op.Op.outputs)
  in
  (* Page compiles run at the 200 MHz overlay clock. *)
  let pnr =
    Pnr.implement ~seed ~clock_target_mhz:200.0 ~pins ~device:fp.Fp.device ~region:pg.Fp.rect packed
  in
  let xclbin =
    Xclbin.page_bits ~page ~operator:inst ~fmax_mhz:pnr.Pnr.timing.Pld_pnr.Sta.fmax_mhz
      pnr.Pnr.bitstream
  in
  {
    inst;
    op;
    page;
    impl;
    pnr;
    xclbin;
    times =
      {
        hls = Cost.hls impl;
        syn = Cost.syn impl +. Cost.pack packed;
        pnr = Cost.pnr pnr;
        bitgen = Cost.bitgen pnr;
        overhead = Cost.o1_overhead;
      };
  }

let compile_o0_operator ~page ~inst op =
  let program = Pld_riscv.Codegen.compile op in
  let elf = Pld_riscv.Elf.pack ~page program in
  let riscv_seconds = Cost.riscv program +. Cost.o0_overhead in
  { inst0 = inst; op0 = op; page0 = page; program; elf; xclbin0 = Xclbin.softcore ~page elf; riscv_seconds }

let compile_o3 ?(seed = 7) ?(vitis_baseline = false) ?previous ?(pnr_seeds = []) (fp : Fp.t)
    (g : Graph.t) =
  Validate.check_graph_exn g;
  let impls =
    List.map (fun (i : Graph.instance) -> (i.inst_name, Hls.compile i.op)) g.instances
  in
  let merged =
    N.merge
      ~name:(g.graph_name ^ if vitis_baseline then "_vitis" else "_o3")
      (List.map (fun (inst, impl) -> (inst, impl.Hls.netlist)) impls)
  in
  (* The kernel generator stitches operators with hardware FIFOs per
     the dataflow graph; the undecomposed Vitis baseline uses direct
     wiring (depth-0 "FIFOs" cost nothing and are elided). *)
  let links =
    Graph.edges g
    |> List.filter_map (fun (p, q, chan) ->
           let context = "Flow.compile_o3" in
           let c = find_channel_exn ~context g chan in
           let src = p ^ "." ^ fst (List.find (fun ((_ : string), ch) -> ch = chan)
                                      (find_instance_exn ~context g p).Graph.bindings) in
           let dst = q ^ "." ^ fst (List.find (fun ((_ : string), ch) -> ch = chan)
                                      (find_instance_exn ~context g q).Graph.bindings) in
           if vitis_baseline then None else Some (src, dst, "fifo_" ^ chan, c.Graph.depth))
  in
  let merged = if links = [] then merged else N.add_fifo_links merged links in
  (* Three P&R paths: delta from a previous result (incremental edit),
     a multi-seed race (cold compile with idle cores), or the plain
     single-seed anneal. *)
  let pnr3 =
    match (previous, pnr_seeds) with
    | Some _, _ ->
        Pnr.implement_delta ~seed ~clock_target_mhz:300.0 ?previous ~device:fp.Fp.device
          ~region:fp.Fp.l1_region merged
    | None, (_ :: _ :: _ as seeds) ->
        Pnr.implement_multi ~clock_target_mhz:300.0 ~seeds ~device:fp.Fp.device
          ~region:fp.Fp.l1_region merged
    | None, _ ->
        Pnr.implement ~seed ~clock_target_mhz:300.0 ~device:fp.Fp.device ~region:fp.Fp.l1_region
          merged
  in
  let xclbin3 =
    Xclbin.kernel ~fmax_mhz:pnr3.Pnr.timing.Pld_pnr.Sta.fmax_mhz
      ~operators:(List.map fst impls) pnr3.Pnr.bitstream
  in
  {
    graph = g;
    impls;
    merged;
    pnr3;
    xclbin3;
    times3 =
      {
        hls = List.fold_left (fun acc (_, i) -> acc +. Cost.hls i) 0.0 impls;
        syn = List.fold_left (fun acc (_, i) -> acc +. Cost.syn i) 0.0 impls +. Cost.pack merged;
        pnr = Cost.pnr pnr3;
        bitgen = Cost.bitgen pnr3;
        overhead = Cost.o3_overhead;
      };
  }
