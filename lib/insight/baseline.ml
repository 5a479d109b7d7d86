module Json = Pld_telemetry.Json
module Table = Pld_util.Table

type entry = { bench : string; level : string; exact : (string * float) list }
type snapshot = { version : int; suite : string; created : string; entries : entry list }

let current_version = 3

(* Exact metrics repeat bit for bit; the band only absorbs float
   formatting through the JSON round-trip. *)
let exact_rel = 1e-6

type status = Ok | Regression | Improvement | Missing | New

let status_name = function
  | Ok -> "ok"
  | Regression -> "REGRESSION"
  | Improvement -> "improvement"
  | Missing -> "missing"
  | New -> "new"

type finding = {
  f_bench : string;
  f_level : string;
  f_metric : string;
  f_base : float;
  f_cur : float;
  f_band : float;
  f_status : status;
}

type verdict = {
  findings : finding list;
  regressions : finding list;
  improvements : finding list;
  ok : bool;
}

let higher_is_better = function
  | "fmax_mhz" | "cache_hits" -> true
  (* Service tier: fewer completed sessions is the regression. *)
  | "svc_completed" -> true
  (* Incremental tier: losing the delta path or its speedup is the regression. *)
  | "inc_delta_hits" | "inc_speedup" | "inc_cells_kept" -> true
  | _ -> false

(* ---------- comparison ---------- *)

let judge ~metric ~base ~cur ~band =
  if Float.abs (cur -. base) <= band then Ok
  else if higher_is_better metric = (cur > base) then Improvement
  else Regression

let finding (e : entry) metric ~base ~cur ~band f_status =
  { f_bench = e.bench; f_level = e.level; f_metric = metric; f_base = base; f_cur = cur;
    f_band = band; f_status }

let compare_entry (base : entry) (cur : entry) =
  List.map
    (fun (m, b) ->
      match List.assoc_opt m cur.exact with
      | Some c ->
          let band = Float.max 1e-9 (exact_rel *. Float.abs b) in
          finding base m ~base:b ~cur:c ~band (judge ~metric:m ~base:b ~cur:c ~band)
      | None -> finding base m ~base:b ~cur:Float.nan ~band:0.0 Missing)
    base.exact
  @ List.filter_map
      (fun (m, c) ->
        if List.mem_assoc m base.exact then None
        else Some (finding base m ~base:Float.nan ~cur:c ~band:0.0 New))
      cur.exact

let compare_snapshots ~base cur =
  let key e = (e.bench, e.level) in
  let whole e status = finding e "(entry)" ~base:Float.nan ~cur:Float.nan ~band:0.0 status in
  let findings =
    List.concat_map
      (fun b ->
        match List.find_opt (fun c -> key c = key b) cur.entries with
        | Some c -> compare_entry b c
        | None -> [ whole b Missing ])
      base.entries
    @ List.filter_map
        (fun c ->
          if List.exists (fun b -> key b = key c) base.entries then None
          else Some (whole c New))
        cur.entries
  in
  let regressions = List.filter (fun f -> f.f_status = Regression) findings in
  let improvements = List.filter (fun f -> f.f_status = Improvement) findings in
  { findings; regressions; improvements; ok = regressions = [] }

(* ---------- JSON ---------- *)

let fail fmt = Printf.ksprintf failwith fmt

let get name j = match Json.member name j with Some v -> v | None -> fail "baseline: missing %S" name

let get_str name j = match get name j with Json.String s -> s | _ -> fail "baseline: %S not a string" name
let get_int name j = match get name j with Json.Int i -> i | _ -> fail "baseline: %S not an int" name

let fields name j =
  match get name j with Json.Obj l -> l | _ -> fail "baseline: %S not an object" name

let entry_json e =
  Json.Obj
    [
      ("bench", Json.String e.bench);
      ("level", Json.String e.level);
      ("exact", Json.Obj (List.map (fun (m, v) -> (m, Json.Float v)) e.exact));
    ]

let entry_of_json j =
  let number = function
    | Json.Float f -> f
    | Json.Int i -> float_of_int i
    | _ -> fail "baseline: exact metric not a number"
  in
  {
    bench = get_str "bench" j;
    level = get_str "level" j;
    exact = List.map (fun (m, v) -> (m, number v)) (fields "exact" j);
  }

let to_json s =
  Json.Obj
    [
      ("version", Json.Int s.version);
      ("suite", Json.String s.suite);
      ("created", Json.String s.created);
      ("entries", Json.List (List.map entry_json s.entries));
    ]

let of_json j =
  let version = get_int "version" j in
  if version <> current_version then
    fail "baseline: version %d, this build reads version %d — re-save the baseline" version
      current_version;
  let entries =
    match get "entries" j with
    | Json.List l -> List.map entry_of_json l
    | _ -> fail "baseline: \"entries\" not a list"
  in
  { version; suite = get_str "suite" j; created = get_str "created" j; entries }

let save ~file s = Json.write_file ~pretty:true ~file (to_json s)

let load ~file =
  let ic = open_in_bin file in
  let src =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_json (Json.of_string src)

(* ---------- rendering ---------- *)

let fnum v = if Float.is_nan v then "-" else Printf.sprintf "%.6g" v

let delta f =
  if Float.is_nan f.f_base || Float.is_nan f.f_cur then "-"
  else if Float.abs f.f_base > 1e-12 then
    Printf.sprintf "%+.2f%%" (100.0 *. (f.f_cur -. f.f_base) /. Float.abs f.f_base)
  else Printf.sprintf "%+.3g" (f.f_cur -. f.f_base)

let render_verdict v =
  let rows =
    List.map
      (fun f ->
        [
          f.f_bench;
          f.f_level;
          f.f_metric;
          fnum f.f_base;
          fnum f.f_cur;
          delta f;
          (if f.f_band > 0.0 then Printf.sprintf "±%.3g" f.f_band else "-");
          status_name f.f_status;
        ])
      v.findings
  in
  let table =
    Table.render
      ~aligns:
        [
          Table.Left; Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right;
          Table.Left;
        ]
      ~header:[ "bench"; "level"; "metric"; "baseline"; "current"; "delta"; "band"; "status" ]
      rows
  in
  let summary =
    if v.ok then
      Printf.sprintf "OK: %d metrics within bounds (%d improvements)" (List.length v.findings)
        (List.length v.improvements)
    else
      Printf.sprintf "REGRESSION: %d of %d metrics out of bounds: %s"
        (List.length v.regressions) (List.length v.findings)
        (String.concat ", "
           (List.map
              (fun f -> Printf.sprintf "%s/%s %s" f.f_bench f.f_level f.f_metric)
              v.regressions))
  in
  table ^ "\n" ^ summary ^ "\n"

let finding_json f =
  Json.Obj
    [
      ("bench", Json.String f.f_bench);
      ("level", Json.String f.f_level);
      ("metric", Json.String f.f_metric);
      ("baseline", Json.Float f.f_base);
      ("current", Json.Float f.f_cur);
      ("band", Json.Float f.f_band);
      ("status", Json.String (status_name f.f_status));
    ]

let verdict_json v =
  Json.Obj
    [
      ("ok", Json.Bool v.ok);
      ("regressions", Json.Int (List.length v.regressions));
      ("improvements", Json.Int (List.length v.improvements));
      ("findings", Json.List (List.map finding_json v.findings));
    ]
