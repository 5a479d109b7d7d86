module B = Pld_core.Build
module R = Pld_core.Runner
module Flow = Pld_core.Flow
module Suite = Pld_rosetta.Suite
module Fp = Pld_fabric.Floorplan

type options = {
  benches : string list;
  levels : B.level list;
  run_perf : bool;
  run_service : bool;
  run_chaos : bool;
  run_incremental : bool;
}

let default_options =
  {
    benches = [ "spam"; "optical" ];
    levels = [ B.O1; B.O3 ];
    run_perf = true;
    run_service = true;
    run_chaos = true;
    run_incremental = true;
  }

let iso_now () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* One (bench, level) cell: a cold-cache compile's report plus one
   functional run — modeled seconds included, since the cost model
   makes them a function of the work done. *)
let measure_entry opts (b : Suite.bench) level =
  let graph = b.Suite.graph (Pld_ir.Graph.Hw { page_hint = None }) in
  let app = B.compile (Fp.u50 ()) graph ~level in
  let r = app.B.report in
  let p = r.B.phases in
  let exact =
    [
      ("cache_hits", float_of_int r.B.cache_hits);
      ("recompiled", float_of_int r.B.recompiled);
      ("hls_seconds", p.Flow.hls);
      ("syn_seconds", p.Flow.syn);
      ("pnr_seconds", p.Flow.pnr);
      ("bitgen_seconds", p.Flow.bitgen);
      ("overhead_seconds", p.Flow.overhead);
      ("serial_seconds", r.B.serial_seconds);
      ("parallel_seconds", r.B.parallel_seconds);
    ]
    @
    if not opts.run_perf then []
    else begin
      let perf = (R.run app ~inputs:(b.Suite.workload ())).R.perf in
      [
        ("fmax_mhz", perf.R.fmax_mhz);
        ("frame_cycles", float_of_int perf.R.frame_cycles);
        ("ms_per_input", perf.R.ms_per_input);
      ]
    end
  in
  { Baseline.bench = b.Suite.name; level = B.level_name level; exact }

(* The service tier guards the daemon path: a fixed Zipf trace through
   a single-worker service. One worker serializes the compiles, so the
   conservation metrics (sessions completed, distinct graphs, operator
   recompiles, store writes) are exact — every distinct artifact is
   built exactly once no matter how requests interleave. What depends
   on drain timing (dedup vs after-the-fact cache hits) or on the
   machine (latency) is left to [bench service] and the daemon's
   metrics verb. *)
let service_traffic =
  {
    Pld_service.Traffic.default_options with
    Pld_service.Traffic.sessions = 60;
    tenants = 4;
    pool = 12;
    max_chain = 3;
    zipf = 1.1;
    seed = 11;
  }

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let measure_service () =
  (* A fresh persistent store: a cold-cache run is the comparable one,
     and a real store is what makes the write accounting non-vacuous. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "pld-sentinel-%d" (Unix.getpid ()))
  in
  let service = Pld_service.Service.create ~cache_dir:dir ~queue_workers:1 () in
  let module Tr = Pld_service.Traffic in
  let s =
    Fun.protect
      ~finally:(fun () ->
        Pld_service.Service.shutdown service;
        rm_rf dir)
      (fun () -> Tr.run ~service service_traffic)
  in
  let exact =
    [
      ("svc_completed", float_of_int s.Tr.sm_completed);
      ("svc_failed", float_of_int s.Tr.sm_failed);
      ("svc_distinct_graphs", float_of_int s.Tr.sm_distinct_graphs);
      ("svc_recompiled", float_of_int s.Tr.sm_recompiled);
      ("svc_store_writes", float_of_int s.Tr.sm_store_writes);
    ]
  in
  { Baseline.bench = "service"; level = B.level_name service_traffic.Tr.level; exact }

(* The chaos tier guards the failure paths. The deterministic chaos
   scenarios (no forking — safe after domains exist) produce exact
   counter values given a seed: how many submissions were shed, how
   many deadlines expired and where, how many wedged builds the
   watchdog wrote off, how many corrupt entries a scrub quarantined,
   how many dropped connections were counted. Any drift in those
   numbers means the rejection taxonomy or the recovery machinery
   changed — exactly what a refactor breaks silently. *)
let measure_chaos () =
  let module Chaos = Pld_service.Chaos in
  let report = Chaos.run ~seed:7 ~only:Chaos.deterministic_names () in
  let failed =
    List.concat_map
      (fun (s : Chaos.scenario_report) ->
        List.filter (fun (c : Chaos.check) -> not c.Chaos.ck_ok) s.Chaos.sr_checks)
      report.Chaos.r_scenarios
  in
  let exact =
    ("chaos_checks_failed", float_of_int (List.length failed))
    :: List.map (fun (n, v) -> (n, float_of_int v)) (Chaos.counters report)
  in
  { Baseline.bench = "chaos"; level = "seed7"; exact }

(* The incremental tier guards the delta-P&R fast path: compile each
   bench cold at -O3, touch one operator, and recompile seeded with the
   previous build. Whether the delta path was taken (vs a fallback
   reason) is deterministic given the seed, so it goes in the exact
   snapshot — a placer or gate change that silently knocks a benchmark
   back to scratch compiles trips the sentinel. The scratch and delta
   P&R times (and their ratio, the headline speedup) are modeled from
   the work each did, so they are exact too. *)
let measure_incremental (b : Suite.bench) =
  let fp = Fp.u50 () in
  let g = b.Suite.graph (Pld_ir.Graph.Hw { page_hint = None }) in
  let victim = (List.hd g.Pld_ir.Graph.instances).Pld_ir.Graph.inst_name in
  let edited = Option.get (Pld_ir.Graph.touch_op g victim) in
  let pnr_seconds (app : B.app) = Pld_core.Cost.pnr (B.monolithic_exn app).Flow.pnr3 in
  let cache = B.create_cache () in
  let scratch = B.compile ~cache fp g ~level:B.O3 in
  let delta = B.compile ~cache ~previous:scratch fp edited ~level:B.O3 in
  let ss = pnr_seconds scratch and ds = pnr_seconds delta in
  let path =
    match (B.monolithic_exn delta).Flow.pnr3.Pld_pnr.Pnr.delta with
    | Some d ->
        [
          ( "inc_delta_hits",
            if d.Pld_pnr.Pnr.fallback = None then 1.0 else 0.0 );
          ("inc_cells_kept", float_of_int d.Pld_pnr.Pnr.cells_kept);
          ("inc_nets_rerouted", float_of_int d.Pld_pnr.Pnr.nets_rerouted);
        ]
    | None -> [ ("inc_delta_hits", 0.0) ]
  in
  let exact =
    path
    @ [
        ("inc_scratch_pnr_seconds", ss);
        ("inc_delta_pnr_seconds", ds);
        ("inc_speedup", ss /. Float.max 1e-9 ds);
      ]
  in
  { Baseline.bench = b.Suite.name; level = "incremental"; exact }

let measure ?(suite = "rosetta") opts =
  let entries =
    List.concat_map
      (fun name ->
        let b = Suite.find name in
        List.map (measure_entry opts b) opts.levels)
      opts.benches
    @ (if opts.run_incremental then
         List.map (fun name -> measure_incremental (Suite.find name)) opts.benches
       else [])
    @ (if opts.run_service then [ measure_service () ] else [])
    @ (if opts.run_chaos then [ measure_chaos () ] else [])
  in
  { Baseline.version = Baseline.current_version; suite; created = iso_now (); entries }

let perturb factors (s : Baseline.snapshot) =
  let scale (m, v) = match List.assoc_opt m factors with Some f -> (m, v *. f) | None -> (m, v) in
  {
    s with
    Baseline.entries =
      List.map
        (fun (e : Baseline.entry) -> { e with Baseline.exact = List.map scale e.Baseline.exact })
        s.Baseline.entries;
  }

let check ~base_file ?out current =
  let verdict = Baseline.compare_snapshots ~base:(Baseline.load ~file:base_file) current in
  Option.iter
    (fun file -> Pld_telemetry.Json.write_file ~pretty:true ~file (Baseline.verdict_json verdict))
    out;
  verdict
