(** Versioned performance baselines with noise-aware comparison.

    A baseline snapshots the key metrics of a benchmark run so a later
    run can be judged against it. Metrics fall into two classes:

    - {b exact} — deterministic outputs of the seeded flows (cache
      hits, recompile counts, modeled phase seconds from the work-unit
      cost model, Fmax, frame cycles, ms/input). Any drift beyond float
      formatting is a real behavior change and is flagged at a
      near-zero tolerance; these are machine-portable.
    - {b wall} — measured wall-clock and anything that depends on
      timing (service latency, drain-dependent dedup counts), stored
      as repeat statistics and compared with a wide band. Only
      comparable on one machine.

    A regression is a metric {e worse} than its baseline beyond the
    band (slower, fewer cache hits, lower Fmax); an improvement is the
    same distance in the good direction and is reported but never
    fails a check. *)

module Json = Pld_telemetry.Json

type stats = { n : int; median : float; lo : float; hi : float }
(** Repeat statistics: median and extremes. *)

val stats_of : float list -> stats
(** Raises [Invalid_argument] on an empty list. *)

type entry = {
  bench : string;
  level : string;
  exact : (string * float) list;
  wall : (string * stats) list;
}

type snapshot = {
  version : int;  (** format version, {!current_version} *)
  suite : string;
  created : string;  (** ISO-8601 UTC, informational only *)
  repeats : int;
  pace : float;
  entries : entry list;
}

val current_version : int

type thresholds = {
  exact_rel : float;
  wall_rel : float;
  wall_abs : float;  (** seconds *)
}

val default_thresholds : thresholds

type metric_class = Exact | Wall

type status = Ok | Regression | Improvement | Missing | New
(** [Missing]: in the baseline but not the current run; [New]: the
    reverse. Both are reported, neither fails a check. *)

val status_name : status -> string
(** The label the renderers print (["ok"], ["REGRESSION"], ...). *)

type finding = {
  f_bench : string;
  f_level : string;
  f_metric : string;
  f_class : metric_class;
  f_base : float;  (** baseline median (or exact value) *)
  f_cur : float;  (** current median (or exact value) *)
  f_band : float;  (** allowed absolute deviation *)
  f_status : status;
}

type verdict = {
  findings : finding list;  (** every compared metric, snapshot order *)
  regressions : finding list;
  improvements : finding list;
  ok : bool;  (** no regressions *)
}

val higher_is_better : string -> bool
(** Direction of goodness for a metric name ([fmax_mhz], [cache_hits]);
    everything else is lower-is-better. *)

val compare_snapshots :
  ?thresholds:thresholds -> ?exact_only:bool -> base:snapshot -> snapshot -> verdict
(** Compare a current snapshot against its baseline. [exact_only]
    (default false) restricts the comparison to the exact class — the
    mode for checking against a baseline recorded on different
    hardware, where wall numbers are incomparable. *)

val to_json : snapshot -> Json.t
val of_json : Json.t -> snapshot
(** Raises [Failure] on a malformed or version-incompatible document. *)

val save : file:string -> snapshot -> unit
(** Pretty-printed JSON (the file is committed and diffed). *)

val load : file:string -> snapshot

val render_verdict : verdict -> string
(** The human diff table: every finding with baseline, current, delta
    and band columns, then a one-line summary. *)

val verdict_json : verdict -> Json.t
(** Machine-readable verdict (REGRESSION.json): per-finding records
    plus the regression/improvement counts and overall [ok]. *)
