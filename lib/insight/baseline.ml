module Json = Pld_telemetry.Json
module Stats = Pld_util.Stats
module Table = Pld_util.Table

type stats = { n : int; median : float; lo : float; hi : float }

let stats_of xs =
  if xs = [] then invalid_arg "Baseline.stats_of: empty sample list";
  let lo, hi = Stats.min_max xs in
  { n = List.length xs; median = Stats.median xs; lo; hi }

type entry = {
  bench : string;
  level : string;
  exact : (string * float) list;
  wall : (string * stats) list;
}

type snapshot = {
  version : int;
  suite : string;
  created : string;
  repeats : int;
  pace : float;
  entries : entry list;
}

let current_version = 2

type thresholds = { exact_rel : float; wall_rel : float; wall_abs : float }

let default_thresholds = { exact_rel = 1e-6; wall_rel = 0.25; wall_abs = 0.02 }

type metric_class = Exact | Wall

let class_name = function Exact -> "exact" | Wall -> "wall"

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
  f_class : metric_class;
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
  (* Service tier: more sharing is better, more failures is worse. *)
  | "svc_completed" | "svc_deduped" | "svc_cross_tenant_hits" | "svc_cache_hits" -> true
  (* Incremental tier: losing the delta path or its speedup is the regression. *)
  | "inc_delta_hits" | "inc_speedup" | "inc_cells_kept" -> true
  | _ -> false

(* ---------- comparison ---------- *)

let judge ~metric ~base ~cur ~band =
  if Float.abs (cur -. base) <= band then Ok
  else if higher_is_better metric = (cur > base) then Improvement
  else Regression

let compare_entry th ~exact_only (base : entry) (cur : entry) =
  let mk cls metric b c band =
    {
      f_bench = base.bench;
      f_level = base.level;
      f_metric = metric;
      f_class = cls;
      f_base = b;
      f_cur = c;
      f_band = band;
      f_status = judge ~metric ~base:b ~cur:c ~band;
    }
  in
  let missing cls metric b =
    { f_bench = base.bench; f_level = base.level; f_metric = metric; f_class = cls;
      f_base = b; f_cur = Float.nan; f_band = 0.0; f_status = Missing }
  in
  let fresh cls metric c =
    { f_bench = base.bench; f_level = base.level; f_metric = metric; f_class = cls;
      f_base = Float.nan; f_cur = c; f_band = 0.0; f_status = New }
  in
  let pair cls b_list c_list band_of value_of =
    List.map
      (fun (m, b) ->
        match List.assoc_opt m c_list with
        | Some c -> mk cls m (value_of b) (value_of c) (band_of b)
        | None -> missing cls m (value_of b))
      b_list
    @ List.filter_map
        (fun (m, c) ->
          if List.mem_assoc m b_list then None else Some (fresh cls m (value_of c)))
        c_list
  in
  let exact =
    pair Exact base.exact cur.exact
      (fun b -> Float.max 1e-9 (th.exact_rel *. Float.abs b))
      Fun.id
  in
  if exact_only then exact
  else
    exact
    @ pair Wall base.wall cur.wall
        (fun b -> Float.max th.wall_abs (th.wall_rel *. Float.abs b.median))
        (fun s -> s.median)

let compare_snapshots ?(thresholds = default_thresholds) ?(exact_only = false) ~base cur =
  let key e = (e.bench, e.level) in
  let findings =
    List.concat_map
      (fun b ->
        match List.find_opt (fun c -> key c = key b) cur.entries with
        | Some c -> compare_entry thresholds ~exact_only b c
        | None ->
            [
              {
                f_bench = b.bench;
                f_level = b.level;
                f_metric = "(entry)";
                f_class = Exact;
                f_base = Float.nan;
                f_cur = Float.nan;
                f_band = 0.0;
                f_status = Missing;
              };
            ])
      base.entries
    @ List.filter_map
        (fun c ->
          if List.exists (fun b -> key b = key c) base.entries then None
          else
            Some
              {
                f_bench = c.bench;
                f_level = c.level;
                f_metric = "(entry)";
                f_class = Exact;
                f_base = Float.nan;
                f_cur = Float.nan;
                f_band = 0.0;
                f_status = New;
              })
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

let get_float name j =
  match get name j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> fail "baseline: %S not a number" name

let fields name j =
  match get name j with Json.Obj l -> l | _ -> fail "baseline: %S not an object" name

let stats_json s =
  Json.Obj
    [
      ("n", Json.Int s.n);
      ("median", Json.Float s.median);
      ("lo", Json.Float s.lo);
      ("hi", Json.Float s.hi);
    ]

let stats_of_json j =
  {
    n = get_int "n" j;
    median = get_float "median" j;
    lo = get_float "lo" j;
    hi = get_float "hi" j;
  }

let entry_json e =
  Json.Obj
    [
      ("bench", Json.String e.bench);
      ("level", Json.String e.level);
      ("exact", Json.Obj (List.map (fun (m, v) -> (m, Json.Float v)) e.exact));
      ("wall", Json.Obj (List.map (fun (m, s) -> (m, stats_json s)) e.wall));
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
    wall = List.map (fun (m, v) -> (m, stats_of_json v)) (fields "wall" j);
  }

let to_json s =
  Json.Obj
    [
      ("version", Json.Int s.version);
      ("suite", Json.String s.suite);
      ("created", Json.String s.created);
      ("repeats", Json.Int s.repeats);
      ("pace", Json.Float s.pace);
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
  {
    version;
    suite = get_str "suite" j;
    created = get_str "created" j;
    repeats = get_int "repeats" j;
    pace = get_float "pace" j;
    entries;
  }

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
          class_name f.f_class;
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
          Table.Left; Table.Left; Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
          Table.Right; Table.Left;
        ]
      ~header:[ "bench"; "level"; "class"; "metric"; "baseline"; "current"; "delta"; "band"; "status" ]
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
      ("class", Json.String (class_name f.f_class));
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
