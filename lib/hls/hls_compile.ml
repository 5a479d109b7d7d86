open Pld_ir
module N = Pld_netlist.Netlist

type impl = {
  op : Op.t;
  netlist : N.t;
  perf : Sched.perf;
  est_fmax_mhz : float;
}

let target_mhz = 300.0

(* Pre-P&R estimate: the worst cell delay plus typical local routing,
   assuming the scheduler breaks chains every [levels_per_cycle]
   levels. Post-P&R timing comes from the real STA in pld.pnr. *)
let estimate_fmax netlist =
  let worst =
    Array.fold_left (fun acc (c : N.cell) -> Float.max acc c.delay_ns) 0.5 netlist.N.cells
  in
  let period_ns = worst +. 1.0 in
  Float.min target_mhz (1000.0 /. period_ns)

let compile op =
  let perf = Sched.analyze op in
  let netlist = Synth.synthesize op in
  { op; netlist; perf; est_fmax_mhz = estimate_fmax netlist }

let report impl =
  let r = N.total_res impl.netlist in
  Printf.sprintf
    "== HLS report: %s ==\n\
     cells: %d  nets: %d\n\
     area: %d LUT, %d FF, %d BRAM18, %d DSP\n\
     II: %d  cycles/firing: %d  max expr depth: %d\n\
     estimated Fmax: %.0f MHz (target %.0f)\n\
     loops:\n%s"
    impl.op.Op.name (N.cell_count impl.netlist) (N.net_count impl.netlist) r.N.luts r.N.ffs
    r.N.brams r.N.dsps impl.perf.Sched.bottleneck_ii impl.perf.Sched.cycles_per_firing
    impl.perf.Sched.max_expr_depth impl.est_fmax_mhz target_mhz
    (String.concat "\n"
       (List.map
          (fun (l : Sched.loop_report) ->
            Printf.sprintf "  %-16s trip=%-6d II=%-3d depth=%-4d %s cycles=%d" l.label l.trip l.ii
              l.depth
              (if l.pipelined then "pipelined" else "sequential")
              l.cycles)
          impl.perf.Sched.loops))
