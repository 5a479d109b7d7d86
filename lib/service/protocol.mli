(** Wire protocol of the [pldd] daemon: newline-delimited JSON.

    Each request is one JSON object on one line; the daemon answers
    with one JSON object on one line. Graphs travel by {e name} — the
    daemon resolves a bench name (a Rosetta benchmark or a synthetic
    [svc-...] traffic chain) to a graph, so the protocol layer stays
    independent of the benchmark suites. *)

type request =
  | Ping
  | Compile of { bench : string; level : string }
      (** [level] is a {!Pld_core.Build.level_name}: ["O0"], ["O1"],
          ["O3"] or ["Vitis"]. *)
  | Run of { bench : string; level : string; frames : int }
      (** Compile, link and execute with [frames] ramp words on every
          graph input. *)
  | Profile of { bench : string; level : string }
      (** Fetch the persisted fabric profile of a build (see
          {!Pld_core.Fabric_profile}): the windowed PMU series, stall
          splits and link traffic of the run that produced the cached
          artifact. Keyed like the build itself, so any tenant hitting
          the shared artifact gets the primary's profile — trace id and
          tenant of the producing run ride inside the document. *)
  | Stats
  | Status
      (** Live introspection: queue depth, per-tenant quota occupancy,
          in-flight build ages, rejection counters, and per-tenant
          latency quantiles derived from bucket counts. *)
  | Metrics
      (** The metrics registry, both as JSON and as a Prometheus text
          exposition; also flushes the daemon's [--metrics-out]
          snapshot on demand. *)
  | Health  (** Cheap liveness probe: ok/state/uptime. *)
  | Shutdown

type envelope = {
  rq_id : int;
  tenant : string;
  priority : int;
  deadline_ms : int option;
      (** Time budget for the whole request, measured from admission:
          the daemon expires the job (queued or mid-build, at the next
          tool-phase boundary) once the budget is spent. [None] means
          no deadline. *)
  trace : string option;
      (** Request trace id, minted client-side
          ({!Pld_telemetry.Log.mint_trace_id}) and stamped on every
          span the request produces on both sides of the wire — the
          key that stitches client RPC attempts, queue wait, and build
          phases into one distributed trace. *)
  req : request;
}

val envelope :
  ?id:int ->
  ?tenant:string ->
  ?priority:int ->
  ?deadline_ms:int ->
  ?trace:string ->
  request ->
  envelope
(** [id] defaults to 0, [tenant] to ["default"], [priority] to 0,
    [deadline_ms] and [trace] to none. *)

val envelope_to_json : envelope -> Pld_telemetry.Json.t
val envelope_of_json : Pld_telemetry.Json.t -> (envelope, string) result

type reply = { rp_id : int; ok : bool; body : Pld_telemetry.Json.t }
(** On failure [body] is [Obj [("error", String msg)]]. *)

val reply_ok : id:int -> Pld_telemetry.Json.t -> reply
val reply_error : id:int -> string -> reply

val reply_busy : id:int -> ?retry_after_ms:int -> state:string -> string -> reply
(** A transient refusal: [state] names the server condition ([SHED],
    [DRAINING], [QUEUE_FULL]) and [retry_after_ms] hints when the same
    request is likely to be admitted. {!Client.rpc_retry} backs off
    and retries these; hard errors (unknown bench, build failure) it
    does not. *)

val reply_to_json : reply -> Pld_telemetry.Json.t
val reply_of_json : Pld_telemetry.Json.t -> (reply, string) result

val error_message : reply -> string option
(** The [error] field of a failed reply's body. *)

val retry_after_ms : reply -> int option
(** The [retry_after_ms] hint of a {!reply_busy} refusal, if any. *)

val reply_state : reply -> string option
(** The [state] tag of a {!reply_busy} refusal, if any. *)

val render_status : Pld_telemetry.Json.t -> string list
(** Human rendering of a [Status] reply body: a header line (uptime,
    state, queue occupancy), a counters line, one line per tenant
    (quota occupancy and latency quantiles), and one line per in-flight
    build (age and trace id). Used by [pldc status] and [pldc top]. *)
