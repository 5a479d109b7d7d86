(** Typed trace events emitted by the build engine.

    Every interesting moment of a build — a job starting on a worker, a
    job finishing with its measured and modeled durations, an artifact
    served from the cache — is a constructor here. Consumers (the
    [pldc] driver, the bench harness, tests) subscribe with an
    [on_event] callback or read the collected trace from the build
    report; this replaces threading ad-hoc [phase_times] tuples through
    every layer of the compile stack. *)

type source =
  | Memory  (** hit in the in-process table *)
  | Disk  (** hit in the persistent artifact store *)

type t =
  | Graph_start of { jobs : int; workers : int }
      (** a job graph was submitted: [jobs] nodes on [workers] domains *)
  | Graph_finish of { jobs : int; wall_seconds : float }
  | Job_start of { job : string; kind : string; worker : int }
  | Job_finish of {
      job : string;
      kind : string;
      worker : int;
      wall_seconds : float;  (** measured wall-clock of this job *)
      model_seconds : float;  (** modeled backend-tool time of the artifact *)
      phases : (string * float) list;  (** modeled per-phase breakdown *)
    }
  | Job_failed of { job : string; kind : string; worker : int; error : string }
  | Job_retry of { job : string; kind : string; worker : int; attempt : int; error : string }
      (** the executor is re-running a failed job ([attempt] retries so far) *)
  | Job_quarantined of { job : string; kind : string; attempts : int; error : string }
      (** retries exhausted (or a dependency was quarantined); the rest
          of the build continues without this job's artifact *)
  | Cache_hit of { job : string; kind : string; source : source }
  | Cache_store of { kind : string; key : string }
      (** an artifact was persisted to the on-disk store *)

val to_string : t -> string
(** One human-readable line, used by [pldc --trace]. *)

val source_name : source -> string
(** ["memory"] or ["disk"] — the label exporters attach to cache hits. *)

val pp : Format.formatter -> t -> unit

(** {2 Trace aggregation} *)

val phase_totals : t list -> (string * float) list
(** Sum of the modeled phase durations over every [Job_finish], taken
    in job-id order (so the result does not depend on completion
    order), phase names in first-appearance order. *)

val cache_hits : t list -> int
(** Number of [Cache_hit] events. *)

val finished : t list -> int
(** Number of [Job_finish] events. *)

val by_kind : t list -> (string * int * int) list
(** Per job kind: [(kind, hits, misses)], in first-appearance order. A
    hit is a [Cache_hit]; a miss is a [Job_finish] not explained by a
    hit (i.e. the job had to do its work). *)

val strip_timing : t -> t
(** The event with its measured fields zeroed (wall-clock and the
    worker index). Modeled durations are kept: they are a function of
    the work done, so a sequential and a parallel run of the same graph
    — what determinism tests compare — must agree on them exactly. *)
