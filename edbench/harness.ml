(* One benchmark run: set up, run the workload's passes with reference-
   kernel samples interleaved between timed steps, check every op, and
   print the metrics. The last line of output is the result object.

   Drift correction. The host this runs on changes speed by up to ~1.7x
   within seconds, so each timed step (a set-up or an op) is rescaled by
   the kernel samples taken around it: raw x K_ref / K_local, where
   K_local is the median of the [drift_radius] samples on either side
   of the step. Raw seconds, the run's overall kernel median K_run and
   the kernel's spread are printed too. *)

module W = Workloads
module T = Pld_telemetry.Telemetry

(* What is kept of one op's execution. The op itself is not kept: its
   closure holds the pass's state (sessions, artifacts), which must die
   with the pass. *)
type sample = {
  id : string;
  row : string;
  secs : float;  (** raw wall seconds *)
  kidx : int;  (** index of the kernel sample just before it *)
  outcome : W.outcome option;  (** [None] when it raised *)
  minor : float;  (** words allocated on the minor heap *)
  major : float;  (** words allocated or promoted on the major heap *)
  collections : int;  (** major collections it finished *)
  replayed : float;  (** seconds of layer replays inside it (traced ops) *)
}

type config = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  k_ref : float;  (** the kernel's median sample on the reference host *)
  state_dir : string;
}

let drift_radius = 2

type run = {
  mutable kernel : float list;  (** newest first *)
  mutable n_kernel : int;
  mutable failures : (string * string) list;  (** (op id, reason), newest first *)
  first_exact : (string, (string * string) list) Hashtbl.t;
  mutable attempted : int;
  mutable peak_heap : int;
      (** most live words on the major heap right after the collection
          that precedes each kernel sample *)
}

(* A kernel sample starts from a collected heap, so its time does not
   depend on the garbage the previous step left; the collection also
   gives every op the same clean start, and what stays live is the
   state the program retains between steps. Returns the sample's index. *)
let kernel_sample run =
  Gc.major ();
  run.peak_heap <- max run.peak_heap (Gc.stat ()).live_words;
  run.kernel <- Kernel.sample () :: run.kernel;
  run.n_kernel <- run.n_kernel + 1;
  run.n_kernel - 1

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0.0 xs
let fail run id why = run.failures <- (id, why) :: run.failures

(* An op's deterministic fields, plus its minor-heap allocation when
   the run is untraced (tracing allocates inside the op) and the op
   reads no files. *)
let exact_of ~trace (op : W.op) (s : sample) =
  match s.outcome with
  | None -> []
  | Some o ->
      if trace || op.reads_store then o.exact
      else ("minor_words", Printf.sprintf "%.0f" s.minor) :: o.exact

let check_repeat cfg run op (s : sample) =
  match s.outcome with
  | Some o when not o.ok -> fail run s.id "output differs from the reference"
  | Some _ -> (
      let exact = exact_of ~trace:cfg.trace op s in
      match Hashtbl.find_opt run.first_exact s.id with
      | None -> Hashtbl.replace run.first_exact s.id exact
      | Some first ->
          List.iter2
            (fun (f, a) (_, b) ->
              if a <> b then
                fail run s.id (Printf.sprintf "field %s differs between repetitions: %s then %s" f a b))
            first exact)
  | None -> ()

(* Run one op after the kernel sample [kidx]: telemetry starts empty,
   as in a fresh process; any exception or replay mismatch fails the op. *)
let exec_op cfg run ~kidx (op : W.op) =
  T.reset T.default;
  run.attempted <- run.attempted + 1;
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let outcome =
    match op.exec () with
    | o -> Some o
    | exception W.Mismatch field ->
        fail run op.id ("replay differs in " ^ field);
        None
    | exception e ->
        fail run op.id (Printexc.to_string e);
        None
  in
  let secs = Unix.gettimeofday () -. t0 in
  let minor = Gc.minor_words () -. w0 in
  let g1 = Gc.quick_stat () in
  let s =
    {
      id = op.id;
      row = op.row;
      secs;
      kidx;
      outcome;
      minor;
      major = g1.major_words -. g0.major_words;
      collections = g1.major_collections - g0.major_collections;
      replayed =
        (if !Trace.enabled then sum (fun prefix -> Trace.total ~since:t0 ~prefix) Trace.replay_prefixes
         else 0.0);
    }
  in
  check_repeat cfg run op s;
  s

let good (s : sample) = match s.outcome with Some o -> o.ok | None -> false
let perf_of (s : sample) = match s.outcome with Some { perf = Some p; _ } -> Some p | _ -> None

(* Per distinct op, in first-seen order. *)
let by_op samples =
  let order = ref [] and tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match Hashtbl.find_opt tbl s.id with
      | Some l -> Hashtbl.replace tbl s.id (s :: l)
      | None ->
          order := s.id :: !order;
          Hashtbl.replace tbl s.id [ s ])
    samples;
  List.rev_map (fun id -> (id, List.rev (Hashtbl.find tbl id))) !order

(* One row per bench x level: median per-pass latency of its ops, the
   artifact's modeled Fmax and frame time, the recompile paths taken,
   and failed/attempted ops. *)
let print_rows ~corrected ~passes ~failed_ids samples =
  Printf.printf "%-16s %10s %9s %10s  %-30s %s\n" "row" "median_s" "fmax_mhz" "frame_ms" "path"
    "failed/ops";
  let rows = ref [] in
  List.iter (fun s -> if not (List.mem s.row !rows) then rows := s.row :: !rows) samples;
  List.iter
    (fun row ->
      let mine = List.filter (fun s -> s.row = row) samples in
      let per_pass =
        List.map (fun p -> sum corrected (List.filter (fun s -> s.row = row) p)) passes
      in
      let perf = List.find_map perf_of mine in
      let paths = ref [] in
      List.iter
        (fun s ->
          match s.outcome with
          | Some { path = Some p; _ } ->
              paths := (p, 1 + Option.value ~default:0 (List.assoc_opt p !paths)) :: List.remove_assoc p !paths
          | _ -> ())
        mine;
      let path = String.concat " " (List.rev_map (fun (p, n) -> Printf.sprintf "%dx%s" n p) !paths) in
      let failed = List.length (List.filter (fun s -> List.mem s.id failed_ids || not (good s)) mine) in
      Printf.printf "%-16s %10.4f %9s %10s  %-30s %d/%d\n" row (Stats.median per_pass)
        (match perf with Some (fm, _) -> Printf.sprintf "%.2f" fm | None -> "-")
        (match perf with Some (_, ms) -> Printf.sprintf "%.4f" ms | None -> "-")
        (if path = "" then "-" else path)
        failed (List.length mine))
    (List.rev !rows)

type metric = { name : string; value : float; unit_ : string }

let print_result ~correct ~attempted ~failed metrics =
  let m =
    String.concat ","
      (List.map
         (fun m -> Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" m.name m.value m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!" correct
    attempted failed m

(* Passes fill the run's seconds at the workload's nominal pass time on
   the reference host -- a count fixed by the arguments, so every run of
   a seed does the same work -- and number at least three, so each op's
   median has three samples. A traced run makes one untraced and one
   traced pass. *)
let passes_for cfg (w : W.t) =
  if cfg.trace then 2
  else max 3 (int_of_float (Float.round (float_of_int cfg.seconds /. w.nominal_pass_s)))

let per_layer ~corr ~gc ~overhead =
  let self = Trace.self_times () in
  let s name = corr (Trace.self_time self name) in
  let c = Trace.counted in
  let rate n d = if d > 0.0 then n /. d else 0.0 in
  let minor, major, collections = gc in
  [
    ("hls.compile_s", s "hls.compile", "s");
    ("hls.synth_s", s "hls.synth", "s");
    ("hls.ops", c "hls.ops", "count");
    ("hls.cells", c "hls.cells", "count");
    ("pnr.place_s", s "pnr.place", "s");
    ("pnr.place_moves_per_s", rate (c "pnr.place_moves_replayed") (s "pnr.place"), "moves/s");
    ("pnr.place_moves", c "pnr.place_moves", "count");
    ("pnr.route_s", s "pnr.route", "s");
    ("pnr.route_nets", c "pnr.route_nets", "count");
    ("pnr.route_iters", c "pnr.route_iters", "count");
    ("pnr.route_wire", c "pnr.route_wire", "count");
    ("pnr.sta_s", s "pnr.sta", "s");
    ("pnr.bitgen_s", s "pnr.bitgen", "s");
    ("pnr.bitgen_frames", c "pnr.bitgen_frames", "count");
    ("pnr.delta_s", s "pnr.implement_delta", "s");
    ("pnr.delta_hits", c "pnr.delta_hits", "count");
    ("pnr.cells_kept", c "pnr.cells_kept", "count");
    ("pnr.cells_moved", c "pnr.cells_moved", "count");
    ("pnr.nets_rerouted", c "pnr.nets_rerouted", "count");
    ("pnr.delta_fallbacks", c "pnr.delta_fallbacks", "count");
  ]
  @ List.map
      (fun r -> ("pnr.delta_fallbacks." ^ r, c ("pnr.delta_fallbacks." ^ r), "count"))
      W.fallback_reasons
  @ [
      ("netlist.diff_s", s "netlist.diff", "s");
      ("netlist.changed_frac", rate (c "netlist.changed_frac_sum") (c "netlist.diffs"), "ratio");
      ("engine.cache_hits", c "engine.cache_hits", "count");
      ("engine.cache_misses", c "engine.cache_misses", "count");
      ("engine.overhead_s", s "engine.compile", "s");
      ("engine.store_open_s", s "engine.store_open", "s");
      ("engine.warm_s", s "engine.warm", "s");
      ("pld.deploy_s", s "pld.deploy", "s");
      ("pld.link_cycles", c "pld.link_cycles", "cycles");
      ("riscv.codegen_s", s "riscv.codegen", "s");
      ("riscv.instrs", c "riscv.instrs", "count");
      ("riscv.cycles_per_s", rate (c "riscv.cycles") (s "pld.run_o0"), "cycles/s");
      ("riscv.cycles", c "riscv.cycles", "count");
      ("kpn.run_s", s "kpn.run", "s");
      ("kpn.tokens_per_s", rate (c "kpn.tokens") (s "kpn.run"), "tokens/s");
      ("kpn.tokens", c "kpn.tokens", "count");
      ("noc.replay_s", s "noc.replay", "s");
      ("noc.flits", c "noc.flits", "count");
      ("noc.cycles", c "noc.cycles", "count");
      ("ir.interp_s", s "ir.interp", "s");
      ("gc.minor_mw", minor, "Mwords");
      ("gc.major_mw", major, "Mwords");
      ("gc.major_collections", collections, "count");
      ("trace.overhead_s", overhead, "s");
    ]

let mkdir_p dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let run cfg =
  mkdir_p cfg.state_dir;
  let ctx = W.context ~seed:cfg.seed ~state_dir:cfg.state_dir in
  let w = W.find ctx cfg.workload in
  let run = { kernel = []; n_kernel = 0; failures = []; first_exact = Hashtbl.create 64; attempted = 0; peak_heap = 0 }
  in
  Trace.reset ();
  Trace.run_id := Printf.sprintf "%s-seed%d-pid%d" w.name cfg.seed (Unix.getpid ());
  (* Set up several times and keep the last state. A traced run sets up
     once, traced. *)
  let n_setups = if cfg.trace then 1 else w.setups in
  Trace.enabled := cfg.trace;
  (* A set-up is timed in segments split at the workload's ticks, each
     preceded by a kernel sample, so a long set-up is drift-corrected
     piece by piece like a run of ops. *)
  let latest = ref None in
  let setups =
    List.init n_setups (fun _ ->
        (* Only the last set-up's state is kept alive: drop the previous
           one before the collection that precedes the kernel sample. *)
        latest := None;
        let segments = ref [] in
        let kidx = ref (kernel_sample run) in
        T.reset T.default;
        let t0 = ref (Unix.gettimeofday ()) in
        let close () = segments := (Unix.gettimeofday () -. !t0, !kidx) :: !segments in
        ctx.tick <-
          (fun () ->
            close ();
            kidx := kernel_sample run;
            t0 := Unix.gettimeofday ());
        latest := Some (Trace.span "setup" w.setup);
        close ();
        ctx.tick <- ignore;
        !segments)
  in
  Trace.enabled := false;
  let make_pass = Option.get !latest in
  let n_passes = passes_for cfg w in
  let passes =
    List.init n_passes (fun p ->
        (* A traced run times its first pass untraced and traces the
           second: the difference is the tracing overhead. *)
        Trace.enabled := cfg.trace && p = 1;
        let ops = make_pass () in
        let samples =
          List.map
            (fun op ->
              let kidx = kernel_sample run in
              Trace.span op.W.id (fun () -> exec_op cfg run ~kidx op))
            ops
        in
        Trace.enabled := false;
        samples)
  in
  (* Bracket the last step with one more sample. *)
  ignore (kernel_sample run);
  W.rm_rf (W.stores_dir ctx);
  let peak_heap = run.peak_heap and top_heap = (Gc.quick_stat ()).top_heap_words in
  let kernel = Array.of_list (List.rev run.kernel) in
  let local = Stats.local_medians ~radius:drift_radius kernel in
  let corr_at kidx raw = Stats.drift_correct ~k_ref:cfg.k_ref ~k_run:local.(kidx) raw in
  let corrected s = corr_at s.kidx s.secs in
  let k_run = Stats.median (Array.to_list kernel) in
  let corr = Stats.drift_correct ~k_ref:cfg.k_ref ~k_run in
  let samples = List.concat passes in
  let failures = List.rev run.failures in
  let failed_ids = List.sort_uniq compare (List.map fst failures) in
  let kernel_live = Kernel.live_words () in
  let heap_ok = kernel_live * 10 < peak_heap in
  let k1, k3 = Stats.quartiles (Array.to_list kernel) in
  Printf.printf "edbench %s seed=%d passes=%d setups=%d ops/pass=%d trace=%b\n" w.name cfg.seed
    n_passes n_setups (List.length (List.hd passes)) cfg.trace;
  Printf.printf
    "kernel: K_ref=%.6f K_run=%.6f over %d samples (q1=%.6f q3=%.6f, spread %.2f%%); local K over +-%d samples\n"
    cfg.k_ref k_run (Array.length kernel) k1 k3
    (100.0 *. Stats.spread (Array.to_list kernel))
    drift_radius;
  Printf.printf "heap: peak live %.3f MB between steps; top %.3f MB (Gc.top_heap_words)\n"
    (float_of_int peak_heap *. 8.0 /. 1e6)
    (float_of_int top_heap *. 8.0 /. 1e6);
  Printf.printf "kernel live words %d vs peak live heap words %d (%.2f%%)%s\n" kernel_live peak_heap
    (100.0 *. float_of_int kernel_live /. float_of_int peak_heap)
    (if heap_ok then "" else "  -- TOO LARGE: the kernel would move the heap figures");
  List.iter (fun (id, why) -> Printf.printf "FAILED %s: %s\n" id why) failures;
  (* Every time metric, from raw or drift-corrected step times. *)
  let figures secs =
    let setup =
      Stats.median (List.map (sum (fun (raw, kidx) -> secs kidx raw)) setups)
    in
    let ok = by_op (List.filter good samples) in
    let medians = List.map (fun (_, l) -> Stats.median (List.map (fun s -> secs s.kidx s.secs) l)) ok in
    (* A pass's wall time with every op at its median latency: one slow
       sample of a long op does not move it. *)
    let pass = sum Fun.id medians in
    let geo = Stats.geomean medians in
    let tail =
      Stats.tail (List.map (fun s -> if good s then secs s.kidx s.secs else Float.infinity) samples)
    in
    (setup, pass, geo, tail)
  in
  let r_setup, r_pass, r_geo, r_tail = figures (fun _ raw -> raw) in
  let setup_s, pass_s, op_geo_s, tail = figures corr_at in
  Printf.printf "raw: setup_s=%.6f pass_s=%.6f op_geo_s=%.6f op_tail_s=%.6f\n" r_setup r_pass r_geo
    r_tail.value;
  Printf.printf "op_tail: p%g of %d samples, %d beyond\n" tail.pct tail.samples tail.beyond;
  let first = List.hd passes in
  let gc =
    ( sum (fun s -> s.minor) first /. 1e6,
      sum (fun s -> s.major) first /. 1e6,
      float_of_int (List.fold_left (fun acc s -> acc + s.collections) 0 first) )
  in
  let mw, mjw, mc = gc in
  Printf.printf "gc (first pass, ops only): minor %.3f Mw, major %.3f Mw, %.0f major collections\n" mw mjw mc;
  Printf.printf "exact fields digest: %s\n"
    (W.digest (List.map (fun (id, _) -> (id, Hashtbl.find_opt run.first_exact id)) (by_op samples)));
  print_rows ~corrected ~passes ~failed_ids samples;
  let failed = List.length (List.filter (fun s -> (not (good s)) || List.mem s.id failed_ids) samples) in
  let correct = failed = 0 && heap_ok in
  let metrics =
    if not cfg.trace then begin
      let firsts = List.filter_map (fun (_, l) -> perf_of (List.hd l)) (by_op (List.filter good samples)) in
      [
        { name = "setup_s"; value = setup_s; unit_ = "s" };
        { name = "pass_s"; value = pass_s; unit_ = "s" };
        { name = "op_geo_s"; value = op_geo_s; unit_ = "s" };
        { name = "op_tail_s"; value = tail.value; unit_ = "s" };
        { name = "fmax_mhz_geo"; value = Stats.geomean (List.map fst firsts); unit_ = "MHz" };
        { name = "frame_ms_geo"; value = Stats.geomean (List.map snd firsts); unit_ = "ms" };
        { name = "peak_heap_mb"; value = float_of_int peak_heap *. 8.0 /. 1e6; unit_ = "MB" };
      ]
    end
    else begin
      (* Both passes drift-corrected step by step, the traced one less
         the layer replays its ops ran. *)
      let untraced = sum corrected (List.nth passes 0) in
      let traced = sum (fun s -> corr_at s.kidx (s.secs -. s.replayed)) (List.nth passes 1) in
      let replays = sum (fun s -> corr_at s.kidx s.replayed) (List.nth passes 1) in
      let overhead = traced -. untraced in
      let file = Filename.concat cfg.state_dir (Printf.sprintf "trace-%s-seed%d.json" w.name cfg.seed) in
      Trace.write ~file;
      Printf.printf "trace: %d spans written to %s\n" (List.length !Trace.spans) file;
      Printf.printf
        "trace: untraced pass %.6f s; traced pass %.6f s after removing %.6f s of replays; overhead %.6f s\n"
        untraced traced replays overhead;
      List.map (fun (name, value, unit_) -> { name; value; unit_ }) (per_layer ~corr ~gc ~overhead)
    end
  in
  print_result ~correct ~attempted:run.attempted ~failed metrics
