(* Spans and counts recorded by the traced run, around the calls the
   benchmark makes into each layer's public functions. Nothing is
   recorded inside the program; when tracing is off [span] is a plain
   call. Spans stay in memory until [write] at the end of the run.

   A phase the program runs inside one call (placement inside a compile,
   say) is split by re-invoking that layer on the call's own inputs
   right after it returns. Such a replay is recorded as a child of the
   call it splits even though it runs after it, so a span's self time
   is its duration minus its children's durations. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 for a root *)
  start : float;
  stop : float;
}

let enabled = ref false
let run_id = ref ""
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 1
let counts : (string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  spans := [];
  stack := [];
  next_id := 1;
  Hashtbl.reset counts

let current () = match !stack with id :: _ -> id | [] -> 0

(* Run [f] inside a span named [name]; [parent] defaults to the
   innermost open span. Returns the span id with the result. *)
let span_id ?parent name f =
  if not !enabled then (f (), 0)
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match parent with Some p -> p | None -> current () in
    stack := id :: !stack;
    let start = Unix.gettimeofday () in
    let close () =
      stack := List.tl !stack;
      spans := { id; name; parent; start; stop = Unix.gettimeofday () } :: !spans
    in
    match f () with
    | r ->
        close ();
        (r, id)
    | exception e ->
        close ();
        raise e
  end

let span ?parent name f = fst (span_id ?parent name f)

let count name v =
  if !enabled then
    Hashtbl.replace counts name (v +. Option.value ~default:0.0 (Hashtbl.find_opt counts name))

let counted name = Option.value ~default:0.0 (Hashtbl.find_opt counts name)

let dur s = s.stop -. s.start

(* Self seconds summed per span name. *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own = dur s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      Hashtbl.replace self s.name (own +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    !spans;
  self

let self_time tbl name = Option.value ~default:0.0 (Hashtbl.find_opt tbl name)

(* Name prefixes of the spans that replay a layer rather than time a
   call the workload itself makes. *)
let replay_prefixes = [ "hls."; "pnr."; "netlist."; "riscv."; "kpn."; "noc."; "engine.warm" ]

(* Total seconds of spans started at or after [since] whose name starts
   with [prefix] -- used to take replays back out of a traced op. *)
let total ~since ~prefix =
  List.fold_left
    (fun acc s ->
      if s.start >= since && String.starts_with ~prefix s.name then acc +. dur s else acc)
    0.0 !spans

(* Chrome trace-event JSON: one complete event per span, in start order,
   with the run id, span id and parent id as arguments. *)
let write ~file =
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity !spans in
  let oc = open_out file in
  output_string oc "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%S,\"id\":%d,\"parent\":%d}}"
        s.name
        ((s.start -. t0) *. 1e6)
        (dur s *. 1e6) !run_id s.id s.parent)
    (List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) !spans);
  output_string oc "]}\n";
  close_out oc
