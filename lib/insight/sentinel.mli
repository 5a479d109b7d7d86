(** The regression sentinel: measure the suite, snapshot a baseline,
    judge a later run against it.

    [measure] rebuilds each selected benchmark at each selected level
    [repeats] times, each repeat against a {e fresh} cache, and
    snapshots the result as a {!Baseline.snapshot}: deterministic flow
    outputs — modeled phase seconds included — in the exact class, the
    executor's wall clock as repeat statistics in the wall class. A
    functional run supplies the performance-model metrics (Fmax, frame
    cycles, ms/input), which are seeded and exact.

    [perturb] multiplies selected metrics of a snapshot — the
    self-test hook: a perturbed current run must fail its own
    baseline, proving the gate can actually fire. *)

type options = {
  benches : string list;  (** suite short names ({!Pld_rosetta.Suite}) *)
  levels : Pld_core.Build.level list;
  repeats : int;
  pace : float;  (** forwarded to [Build.compile] *)
  jobs : int;  (** executor domains per compile *)
  run_perf : bool;  (** also run each app once for Fmax/cycles/ms-per-input *)
  run_service : bool;
      (** also replay a fixed Zipf trace through a single-worker
          {!Pld_service.Service} and snapshot a ["service"] entry:
          conservation counts (sessions completed, distinct graphs,
          operator recompiles, store writes) in the exact class;
          drain-dependent dedup/hit counts, latency percentiles and
          wall time in the wall class *)
  run_chaos : bool;
      (** also run the deterministic {!Pld_service.Chaos} scenarios
          (corrupt-store, conn-storm, overload — no forking) at a
          fixed seed and snapshot a ["chaos"] entry: every failure-path
          counter (shed, deadline_exceeded, watchdog_kills, lost,
          quarantined, conn_errors, client retries) plus the number of
          failed invariant checks in the exact class, wall time in the
          wall class. This is what keeps the rejection taxonomy and
          recovery machinery from silently rotting. *)
  run_incremental : bool;
      (** also, per selected bench, compile cold at -O3, touch one
          operator ({!Pld_ir.Graph.touch_op}) and recompile seeded with
          the previous build, snapshotting an ["incremental"]-level
          entry, all exact: whether the delta path served the recompile
          ([inc_delta_hits]), cells kept, nets rerouted, and the
          modeled scratch/delta P&R seconds and their ratio
          ([inc_speedup]). A change that silently knocks a benchmark
          back to scratch compiles trips the sentinel here. *)
}

val default_options : options
(** spam + optical at -O1 and -O3, 3 repeats, no pacing, 1 job,
    perf, service, chaos and incremental tiers on — small enough for
    CI, varied enough to cover the paged flow, the monolithic flow,
    the delta-P&R edit loop, the daemon path and the failure paths. *)

val level_of_string : string -> Pld_core.Build.level option
(** Accepts ["O1"], ["-O1"], ["o1"], ... and ["vitis"]. *)

val measure : ?suite:string -> options -> Baseline.snapshot
(** [suite] names the snapshot (default ["rosetta"]). Raises
    [Not_found] on an unknown bench name. *)

val perturb : (string * float) list -> Baseline.snapshot -> Baseline.snapshot
(** [(metric, factor)] pairs; every metric with a matching name (in
    any entry, either class) is scaled by its factor. *)

val check :
  base_file:string ->
  ?thresholds:Baseline.thresholds ->
  ?exact_only:bool ->
  ?out:string ->
  Baseline.snapshot ->
  Baseline.verdict
(** Load the baseline at [base_file], compare the given current
    snapshot against it and, with [out], write the machine-readable
    verdict (REGRESSION.json) there. The caller owns exit codes. *)
