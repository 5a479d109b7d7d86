type source = Memory | Disk

type t =
  | Graph_start of { jobs : int; workers : int }
  | Graph_finish of { jobs : int; wall_seconds : float }
  | Job_start of { job : string; kind : string; worker : int }
  | Job_finish of {
      job : string;
      kind : string;
      worker : int;
      wall_seconds : float;
      model_seconds : float;
      phases : (string * float) list;
    }
  | Job_failed of { job : string; kind : string; worker : int; error : string }
  | Job_retry of { job : string; kind : string; worker : int; attempt : int; error : string }
  | Job_quarantined of { job : string; kind : string; attempts : int; error : string }
  | Cache_hit of { job : string; kind : string; source : source }
  | Cache_store of { kind : string; key : string }

let source_name = function Memory -> "memory" | Disk -> "disk"

let to_string = function
  | Graph_start { jobs; workers } -> Printf.sprintf "graph-start %d jobs on %d workers" jobs workers
  | Graph_finish { jobs; wall_seconds } ->
      Printf.sprintf "graph-finish %d jobs in %.4fs wall" jobs wall_seconds
  | Job_start { job; kind; worker } -> Printf.sprintf "start  [w%d] %-9s %s" worker kind job
  | Job_finish { job; kind; worker; wall_seconds; model_seconds; phases } ->
      Printf.sprintf "finish [w%d] %-9s %s (wall %.4fs, model %.2fs%s)" worker kind job wall_seconds
        model_seconds
        (if phases = [] then ""
         else
           "; "
           ^ String.concat " "
               (List.map (fun (n, s) -> Printf.sprintf "%s=%.2f" n s) phases))
  | Job_failed { job; kind; worker; error } ->
      Printf.sprintf "FAILED [w%d] %-9s %s: %s" worker kind job error
  | Job_retry { job; kind; worker; attempt; error } ->
      Printf.sprintf "retry  [w%d] %-9s %s (attempt %d after: %s)" worker kind job attempt error
  | Job_quarantined { job; kind; attempts; error } ->
      Printf.sprintf "QUARANTINED %-9s %s after %d attempts: %s" kind job attempts error
  | Cache_hit { job; kind; source } ->
      Printf.sprintf "hit    [%s] %-9s %s" (source_name source) kind job
  | Cache_store { kind; key } -> Printf.sprintf "store  %-9s %s" kind key

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* Accumulate into an assoc list preserving first-appearance order. *)
let bump keys f key =
  match List.assoc_opt key !keys with
  | Some cell -> f cell
  | None ->
      let cell = ref (0, 0, 0.0) in
      keys := !keys @ [ (key, cell) ];
      f cell

(* Summed in job-id order: float addition does not associate, and the
   totals must not depend on which worker finished first. *)
let phase_totals events =
  let keys = ref [] in
  List.filter_map (function Job_finish { job; phases; _ } -> Some (job, phases) | _ -> None) events
  |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (_, phases) ->
         List.iter
           (fun (name, s) -> bump keys (fun c -> let h, m, t = !c in c := (h, m, t +. s)) name)
           phases);
  List.map (fun (name, cell) -> let _, _, t = !cell in (name, t)) !keys

let cache_hits events =
  List.length (List.filter (function Cache_hit _ -> true | _ -> false) events)

let finished events =
  List.length (List.filter (function Job_finish _ -> true | _ -> false) events)

let by_kind events =
  let keys = ref [] in
  List.iter
    (function
      | Cache_hit { kind; _ } -> bump keys (fun c -> let h, m, t = !c in c := (h + 1, m, t)) kind
      | Job_finish { kind; _ } -> bump keys (fun c -> let h, m, t = !c in c := (h, m + 1, t)) kind
      | _ -> ())
    events;
  (* A job that hit the cache still finishes; a miss is a finish that
     produced no hit event. *)
  List.map (fun (kind, cell) -> let h, m, _ = !cell in (kind, h, max 0 (m - h))) !keys

let strip_timing = function
  | Graph_finish f -> Graph_finish { f with wall_seconds = 0.0 }
  | Job_finish f -> Job_finish { f with wall_seconds = 0.0; worker = 0 }
  | Job_start s -> Job_start { s with worker = 0 }
  | Job_failed f -> Job_failed { f with worker = 0 }
  | Job_retry r -> Job_retry { r with worker = 0 }
  | (Graph_start _ | Job_quarantined _ | Cache_hit _ | Cache_store _) as e -> e
