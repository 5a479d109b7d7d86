(* The three workloads: what one developer does in one sitting, as a
   closed loop of calls into the toolflow's public API (the next call
   starts when the previous one returns). Every build uses one executor
   job and a single annealing seed, so no OCaml domain is ever spawned.

   Each workload is a set-up step plus a pass: a fixed, seeded list of
   ops. The harness times each op from outside, repeats the pass, and
   checks that every op's deterministic fields repeat exactly. When
   tracing is on, ops also re-invoke the layers inside each call on the
   call's own inputs (see [Trace]) and require the replay to reproduce
   the artifact. *)

open Pld_core
module G = Pld_ir.Graph
module Fp = Pld_fabric.Floorplan
module N = Pld_netlist.Netlist
module Pnr = Pld_pnr.Pnr
module Place = Pld_pnr.Place
module Route = Pld_pnr.Route
module Sta = Pld_pnr.Sta
module Bitgen = Pld_pnr.Bitgen
module Rng = Pld_util.Rng

type outcome = {
  ok : bool;  (** outputs match the bench's hand-written reference *)
  exact : (string * string) list;  (** fields that must repeat exactly *)
  perf : (float * float) option;  (** modeled Fmax (MHz) and ms per frame of a run *)
  path : string option;  (** monolithic recompile: "delta" or the fallback reason *)
}

type op = {
  id : string;  (** distinct op: repetitions share it *)
  row : string;  (** per-bench row, "<bench> <level>" *)
  reads_store : bool;
      (** reads the persistent store: file reads allocate per chunk the
          OS returns, so its minor-heap words are not held exact *)
  exec : unit -> outcome;
}

type t = {
  name : string;
  setups : int;  (** set-ups per untimed run; [setup_s] is their median *)
  nominal_pass_s : float;
      (** a pass's wall time on the reference host, kernel samples
          included: sizes how many passes fill the run's seconds *)
  setup : unit -> unit -> op list;
      (** builds the workload's state; the result makes one pass's ops,
          each pass starting from that same state *)
}

(* A replay that did not reproduce the artifact, naming the field. *)
exception Mismatch of string

type ctx = {
  seed : int;
  fp : Fp.t;
  compile_seed : int;  (** [Build.compile ~seed] *)
  state_dir : string;  (** scratch directory for persistent stores *)
  mutable tick : unit -> unit;
      (** called by a set-up between its builds, so the harness can
          sample the reference kernel inside a long set-up *)
}

let context ~seed ~state_dir =
  { seed; fp = Fp.u50 (); compile_seed = 1 + (abs seed mod 9973); state_dir; tick = ignore }

let hex = Printf.sprintf "%h"
let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let level_row (b : Benches.t) level = b.Benches.name ^ " " ^ Build.level_name level
let ok_outcome exact = { ok = true; exact; perf = None; path = None }

let expect field a b = if a <> b then raise (Mismatch field)

(* ---------- replays that split one call into its layers ---------- *)

(* [Hls_compile.compile] includes synthesis; the separate synthesis
   replay is its child, so the compile's self time is the rest of HLS. *)
let replay_hls ~parent (op : Pld_ir.Op.t) (impl : Pld_hls.Hls_compile.impl) =
  let again, hls = Trace.span_id ~parent "hls.compile" (fun () -> Pld_hls.Hls_compile.compile op) in
  let nl = Trace.span ~parent:hls "hls.synth" (fun () -> Pld_hls.Synth.synthesize op) in
  expect "hls.cells" (Array.length again.netlist.N.cells) (Array.length impl.netlist.N.cells);
  expect "hls.synth_cells" (Array.length nl.N.cells) (Array.length impl.netlist.N.cells);
  Trace.count "hls.ops" 1.0;
  Trace.count "hls.cells" (float_of_int (Array.length impl.netlist.N.cells))

(* Scratch P&R counts, exact: read off the artifact itself. *)
let count_pnr (r : Pnr.result) =
  Trace.count "pnr.place_moves" (float_of_int r.place.Place.moves_evaluated);
  Trace.count "pnr.route_nets" (float_of_int r.route.Route.nets_routed);
  Trace.count "pnr.route_iters" (float_of_int r.route.Route.iterations);
  Trace.count "pnr.route_wire" (float_of_int r.route.Route.total_wire);
  Trace.count "pnr.bitgen_frames" (float_of_int (Bytes.length r.bitstream.Bitgen.frames))

(* [Pnr.implement] phase by phase on the artifact's own netlist, region
   and seed; the shell pins of a page are rebuilt from the operator's
   ports and the page's NoC leaf, as the flow assigns them. *)
let replay_pnr ~parent ~seed ~clock_target_mhz ?(pins = []) ~(fp : Fp.t) (r : Pnr.result) =
  let device = fp.Fp.device and region = r.region and nl = r.netlist in
  let place = Trace.span ~parent "pnr.place" (fun () -> Place.run ~seed ~pins ~device ~region nl) in
  let route =
    Trace.span ~parent "pnr.route" (fun () ->
        Route.run ~seed ~device ~region ~placement:place.Place.positions nl)
  in
  let timing =
    Trace.span ~parent "pnr.sta" (fun () ->
        Sta.analyze ~clock_target_mhz nl ~net_delay_ns:route.Route.net_delay_ns)
  in
  let bits =
    Trace.span ~parent "pnr.bitgen" (fun () ->
        Bitgen.generate ~region ~placement:place.Place.positions
          ~routes:(Array.to_list route.Route.routes) nl)
  in
  Trace.count "pnr.place_moves_replayed" (float_of_int place.Place.moves_evaluated);
  expect "pnr.wirelength" place.Place.wirelength r.place.Place.wirelength;
  expect "pnr.route_wire" route.Route.total_wire r.route.Route.total_wire;
  expect "pnr.fmax" timing.Sta.fmax_mhz r.timing.Sta.fmax_mhz;
  expect "pnr.bitstream" bits.Bitgen.crc r.bitstream.Bitgen.crc

let fallback_reasons = [ "previous-congested"; "refine-illegal"; "route-congested"; "large-edit" ]

(* Delta P&R is split only at its public boundary: its refine tiers and
   route reuse are not reachable from outside. *)
let replay_delta ~parent ~seed ~(fp : Fp.t) ~(prev : Flow.o3_app) (m : Flow.o3_app) =
  let d = Trace.span ~parent "netlist.diff" (fun () -> N.diff prev.merged m.merged) in
  Trace.count "netlist.diffs" 1.0;
  Trace.count "netlist.changed_frac_sum" (N.diff_change_fraction d);
  let again =
    Trace.span ~parent "pnr.implement_delta" (fun () ->
        Pnr.implement_delta ~seed ~clock_target_mhz:300.0 ~previous:prev.pnr3
          ~device:fp.Fp.device ~region:fp.Fp.l1_region m.merged)
  in
  expect "pnr.wirelength" again.place.Place.wirelength m.pnr3.place.Place.wirelength;
  expect "pnr.fmax" again.timing.Sta.fmax_mhz m.pnr3.timing.Sta.fmax_mhz;
  match m.pnr3.delta with
  | None -> raise (Mismatch "pnr.delta")
  | Some ds -> (
      Trace.count "pnr.cells_kept" (float_of_int ds.Pnr.cells_kept);
      Trace.count "pnr.cells_moved" (float_of_int ds.Pnr.cells_moved);
      Trace.count "pnr.nets_rerouted" (float_of_int ds.Pnr.nets_rerouted);
      match ds.Pnr.fallback with
      | None -> Trace.count "pnr.delta_hits" 1.0
      | Some reason ->
          Trace.count "pnr.delta_fallbacks" 1.0;
          Trace.count ("pnr.delta_fallbacks." ^ reason) 1.0)

(* Split a finished build into the tool calls it made. Paged builds
   replay only the operators this build compiled (not its cache hits). *)
let split_compile ctx ~parent ?prev (app : Build.app) =
  let r = app.report in
  Trace.count "engine.cache_hits" (float_of_int r.Build.cache_hits);
  Trace.count "engine.cache_misses" (float_of_int r.Build.recompiled);
  let seed = ctx.compile_seed in
  match app.monolithic with
  | Some m -> (
      List.iter
        (fun (inst, impl) ->
          replay_hls ~parent (Flow.find_instance_exn ~context:"edbench" m.graph inst).G.op impl)
        m.impls;
      count_pnr m.pnr3;
      match prev with
      | Some prev -> replay_delta ~parent ~seed ~fp:ctx.fp ~prev m
      | None -> replay_pnr ~parent ~seed ~clock_target_mhz:300.0 ~fp:ctx.fp m.pnr3)
  | None ->
      let compiled inst =
        match List.assoc_opt inst r.Build.per_op_seconds with Some s -> s > 0.0 | None -> false
      in
      List.iter
        (fun (inst, c) ->
          if compiled inst then
            match c with
            | Build.Hw_page (h : Flow.o1_operator) ->
                replay_hls ~parent h.op h.impl;
                count_pnr h.pnr;
                let leaf = (Fp.find_page ctx.fp h.page).Fp.noc_leaf in
                let pins =
                  List.map
                    (fun (p : Pld_ir.Op.port) -> (p.port_name, leaf))
                    (h.op.Pld_ir.Op.inputs @ h.op.Pld_ir.Op.outputs)
                in
                replay_pnr ~parent ~seed ~clock_target_mhz:200.0 ~pins ~fp:ctx.fp h.pnr
            | Build.Soft_page (s : Flow.o0_operator) ->
                let p =
                  Trace.span ~parent "riscv.codegen" (fun () -> Pld_riscv.Codegen.compile s.op0)
                in
                let instrs = Array.length p.image.Pld_riscv.Asm.words in
                expect "riscv.instrs" instrs (Array.length s.program.image.Pld_riscv.Asm.words);
                Trace.count "riscv.instrs" (float_of_int instrs))
        app.operators

(* ---------- the calls each op makes ---------- *)

let pnr_fields (r : Pnr.result) =
  [
    hex r.timing.Sta.fmax_mhz;
    string_of_int r.place.Place.moves_evaluated;
    string_of_int r.route.Route.nets_routed;
    string_of_int r.route.Route.iterations;
    string_of_int r.route.Route.total_wire;
  ]

let compile_exact (app : Build.app) =
  match app.monolithic with
  | Some m -> [ ("pnr", String.concat "/" (pnr_fields m.pnr3)) ]
  | None ->
      List.map
        (fun (inst, c) ->
          match c with
          | Build.Hw_page (h : Flow.o1_operator) -> (inst, String.concat "/" (pnr_fields h.pnr))
          | Build.Soft_page (s : Flow.o0_operator) -> (inst, digest s.program.image))
        app.operators

let path_of (app : Build.app) =
  match app.monolithic with
  | Some { pnr3 = { delta = Some { fallback = Some reason; _ }; _ }; _ } -> Some reason
  | Some { pnr3 = { delta = Some { fallback = None; _ }; _ }; _ } -> Some "delta"
  | _ -> None

(* A traced compile call, split into its tool calls when tracing. *)
let compile ctx ?prev ~call f =
  let app, id = Trace.span_id call f in
  if !Trace.enabled then split_compile ctx ~parent:id ?prev app;
  app

let build ctx ?cache g level =
  compile ctx ~call:"engine.compile" (fun () ->
      let cache = match cache with Some c -> c | None -> Build.create_cache () in
      Build.compile ~cache ~jobs:1 ~seed:ctx.compile_seed ctx.fp g ~level)

(* Split a run: the KPN reference on the bench graph for fabric-level
   runs, the NoC replay of the frame's traffic for paged ones. *)
let split_run ~parent (app : Build.app) ~inputs (r : Runner.result) =
  (match app.level with
  | Build.O0 -> ()
  | _ ->
      let k =
        Trace.span ~parent "kpn.run" (fun () -> Pld_kpn.Run_graph.run app.graph ~inputs)
      in
      expect "kpn.outputs" (digest k.outputs) (digest r.outputs);
      Trace.count "kpn.tokens"
        (float_of_int
           (List.fold_left (fun acc (s : Pld_kpn.Network.channel_stats) -> acc + s.tokens) 0
              k.channel_stats)));
  (match app.level with
  | Build.O0 | Build.O1 ->
      let cfg, replay =
        Trace.span ~parent "noc.replay" (fun () -> Runner.noc_replay app r.channel_stats)
      in
      Trace.count "pld.link_cycles" (float_of_int cfg);
      Trace.count "noc.flits" (float_of_int replay.Pld_noc.Traffic.delivered);
      Trace.count "noc.cycles" (float_of_int replay.Pld_noc.Traffic.cycles)
  | Build.O3 | Build.Vitis -> ());
  let cycles = List.fold_left (fun acc (_, c) -> acc + c) 0 r.softcore_cycles in
  Trace.count "riscv.cycles" (float_of_int cycles)

let run_outcome (b : Benches.t) (r : Runner.result) =
  {
    ok = b.check r.outputs;
    exact =
      [
        ("outputs", digest r.outputs);
        ("fmax", hex r.perf.fmax_mhz);
        ("frame_cycles", string_of_int r.perf.frame_cycles);
        ("softcore_cycles", digest r.softcore_cycles);
      ];
    perf = Some (r.perf.fmax_mhz, r.perf.ms_per_input);
    path = None;
  }

let run_app ~call (b : Benches.t) (app : Build.app) f =
  let r, id = Trace.span_id call f in
  if !Trace.enabled then split_run ~parent:id app ~inputs:b.inputs r;
  run_outcome b r

let run (b : Benches.t) app =
  run_app ~call:(if app.Build.level = Build.O0 then "pld.run_o0" else "pld.run") b app (fun () ->
      Runner.run app ~inputs:b.inputs)

let host (b : Benches.t) =
  let outputs, _ = Trace.span "ir.interp" (fun () -> Runner.run_host b.graph ~inputs:b.inputs) in
  { ok = b.check outputs; exact = [ ("outputs", digest outputs) ]; perf = None; path = None }

(* Every workload's set-up starts by running each bench's seeded frame
   on the host reference interpreter, so a generated input that the
   hand-written reference rejects stops the run before anything is
   timed against it. *)
let benches ctx =
  let bs = Benches.all ~seed:ctx.seed in
  List.iter
    (fun (b : Benches.t) ->
      if not (host b).ok then failwith (b.name ^ ": seeded input fails its reference check"))
    bs;
  bs

let shuffled ctx ~salt xs =
  let a = Array.of_list xs in
  Rng.shuffle (Rng.create ((ctx.seed * 1_000_003) + salt)) a;
  Array.to_list a

(* ---------- cold-build ---------- *)

let cold_levels = [ Build.O1; Build.O3; Build.Vitis ]

let cold_build ctx =
  {
    name = "cold-build";
    setups = 7;
    nominal_pass_s = 12.5;
    setup =
      (fun () ->
        let bs = benches ctx in
        let pairs =
          shuffled ctx ~salt:1 (List.concat_map (fun b -> List.map (fun l -> (b, l)) cold_levels) bs)
        in
        fun () ->
          List.concat_map
            (fun ((b : Benches.t), level) ->
              let row = level_row b level in
              let app = ref None in
              [
                {
                  id = row ^ " compile";
                  row;
                  reads_store = false;
                  exec =
                    (fun () ->
                      let a = build ctx b.graph level in
                      app := Some a;
                      ok_outcome (compile_exact a));
                };
                {
                  id = row ^ " run";
                  row;
                  reads_store = false;
                  exec =
                    (fun () ->
                      let a = Option.get !app in
                      (* Drop the artifact once run, as a developer's
                         next compile would. *)
                      app := None;
                      run b a);
                };
              ])
            pairs);
  }

(* ---------- debug-run ---------- *)

let debug_run ctx =
  {
    name = "debug-run";
    setups = 3;
    nominal_pass_s = 3.0;
    setup =
      (fun () ->
        let bs = benches ctx in
        let items =
          List.concat_map
            (fun b ->
              let o0 = build ctx b.Benches.graph Build.O0 in
              ctx.tick ();
              let o1 = build ctx b.Benches.graph Build.O1 in
              ctx.tick ();
              [ (b, Some o0); (b, Some o1); (b, None) ])
            bs
        in
        let ops =
          List.map
            (fun ((b : Benches.t), app) ->
              match app with
              | Some (a : Build.app) ->
                  let row = level_row b a.level in
                  { id = row ^ " run"; row; reads_store = false; exec = (fun () -> run b a) }
              | None ->
                  let row = b.name ^ " host" in
                  { id = row ^ " run"; row; reads_store = false; exec = (fun () -> host b) })
            (shuffled ctx ~salt:2 items)
        in
        fun () -> ops);
  }

(* ---------- edit-loop ---------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let copy_dir ~src ~dst =
  rm_rf dst;
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      let s = Filename.concat src f in
      if not (Sys.is_directory s) then
        Out_channel.with_open_bin (Filename.concat dst f) (fun oc ->
            Out_channel.output_string oc (In_channel.with_open_bin s In_channel.input_all)))
    (Sys.readdir src)

(* The seeded edit chain. Each pass edits every bench once per size
   stratum: its operators, ordered by synthesized cells, are cut into
   [strata] contiguous groups (the larger and the smaller half) and the
   seed draws one operator from each.
   The seed thus moves which operators are touched and in what order, not
   how much of each bench's work (face's delta fallback, optical's long
   -O1 run, a large page's re-placement) a pass contains. A bench's next
   edit starts from its previous edit's graph. *)
let strata = 2

let edit_chain ctx (o3 : (Benches.t * Build.app) list) =
  let picks =
    List.concat_map
      (fun ((b : Benches.t), (a : Build.app)) ->
        let cells inst =
          Array.length (List.assoc inst (Build.monolithic_exn a).impls).netlist.N.cells
        in
        let by_size =
          List.stable_sort
            (fun x y -> compare (cells y) (cells x))
            (List.map (fun (i : G.instance) -> i.inst_name) b.graph.G.instances)
        in
        let n = List.length by_size in
        List.filter_map
          (fun k ->
            match List.filteri (fun i _ -> i * strata / n = k) by_size with
            | [] -> None
            | group -> Some (b, List.hd (shuffled ctx ~salt:(Hashtbl.hash b.name + k) group)))
          (List.init strata Fun.id))
      o3
  in
  let current = Hashtbl.create 8 in
  List.iter (fun ((b : Benches.t), _) -> Hashtbl.replace current b.name b.graph) o3;
  List.map
    (fun ((b : Benches.t), inst) ->
      let g = Hashtbl.find current b.name in
      let g' = Option.get (G.touch_op g inst) in
      Hashtbl.replace current b.name g';
      (b, inst, g, g'))
    (shuffled ctx ~salt:3 picks)

let store_seq = ref 0

(* Where the edit loop keeps its persistent stores; removed after a run. *)
let stores_dir ctx = Filename.concat ctx.state_dir "stores"

let edit_loop ctx =
  {
    name = "edit-loop";
    setups = 3;
    nominal_pass_s = 5.5;
    setup =
      (fun () ->
        let bs = benches ctx in
        incr store_seq;
        if not (Sys.file_exists (stores_dir ctx)) then Sys.mkdir (stores_dir ctx) 0o755;
        let golden = Filename.concat (stores_dir ctx) (Printf.sprintf "store-%d" !store_seq) in
        rm_rf golden;
        let cache = Build.create_cache ~dir:golden () in
        let o3 =
          List.map
            (fun (b : Benches.t) ->
              let a = build ctx ~cache b.graph Build.O3 in
              ctx.tick ();
              ignore (build ctx ~cache b.graph Build.O1);
              ctx.tick ();
              (b, a))
            bs
        in
        let chain = edit_chain ctx o3 in
        let round_dir = Filename.concat (stores_dir ctx) "round" in
        fun () ->
          copy_dir ~src:golden ~dst:round_dir;
          let s3 = Session.open_session ~name:"edit-o3" ~fp:ctx.fp ~jobs:1 ~seed:ctx.compile_seed () in
          let last = Hashtbl.create 8 in
          List.iter (fun ((b : Benches.t), a) -> Hashtbl.replace last b.name a) o3;
          let started = Hashtbl.create 8 in
          List.concat
            (List.mapi
               (fun i ((b : Benches.t), inst, before, g) ->
                 let id = Printf.sprintf "edit%02d %s/%s" i b.name inst in
                 let s1 = ref None and app1 = ref None in
                 [
                   {
                     id = id ^ " -O3 delta+run";
                     row = b.name ^ " -O3";
                     reads_store = false;
                     exec =
                       (fun () ->
                         let prev = Hashtbl.find last b.name in
                         let previous = if Hashtbl.mem started b.name then None else Some prev in
                         let a =
                           compile ctx ~prev:(Build.monolithic_exn prev) ~call:"engine.compile"
                             (fun () -> Session.compile s3 ~level:Build.O3 ?previous g)
                         in
                         Hashtbl.replace started b.name ();
                         Hashtbl.replace last b.name a;
                         (* The delta artifact is run and checked too. *)
                         let o = run b a in
                         let path = Option.get (path_of a) in
                         { o with path = Some path; exact = (("path", path) :: compile_exact a) @ o.exact });
                   };
                   {
                     id = id ^ " -O1 store";
                     row = b.name ^ " -O1";
                     reads_store = true;
                     exec =
                       (fun () ->
                         let cache =
                           Trace.span "engine.store_open" (fun () -> Build.create_cache ~dir:round_dir ())
                         in
                         let s = Session.open_session ~name:"edit-o1" ~fp:ctx.fp ~cache ~jobs:1 ~seed:ctx.compile_seed () in
                         s1 := Some s;
                         let a = compile ctx ~call:"engine.compile" (fun () -> Session.compile s ~level:Build.O1 g) in
                         app1 := Some a;
                         if !Trace.enabled then begin
                           (* Store reads plus key hashing alone: the
                              unedited graph on a fresh handle. *)
                           let warm =
                             Trace.span "engine.warm" (fun () ->
                                 Build.compile ~cache:(Build.create_cache ~dir:round_dir ()) ~jobs:1
                                   ~seed:ctx.compile_seed ctx.fp before ~level:Build.O1)
                           in
                           expect "engine.warm_misses" warm.report.Build.recompiled 0
                         end;
                         let r = a.report in
                         ok_outcome
                           (("hits", Printf.sprintf "%d/%d" r.Build.cache_hits r.Build.recompiled)
                           :: compile_exact a));
                   };
                   {
                     id = id ^ " link+run";
                     row = b.name ^ " -O1";
                     reads_store = false;
                     exec =
                       (fun () ->
                         let s = Option.get !s1 and a = Option.get !app1 in
                         (* The edit's session and -O1 artifact die with
                            this op, as a developer's next edit would
                            replace them. *)
                         s1 := None;
                         app1 := None;
                         let d = Trace.span "pld.deploy" (fun () -> Session.link s a) in
                         let o =
                           run_app ~call:"pld.run" b d.Loader.app (fun () ->
                               Session.run s d ~inputs:b.inputs)
                         in
                         Session.close s;
                         {
                           o with
                           ok = o.ok && not d.Loader.degraded;
                           exact = ("deploy", hex d.Loader.seconds) :: o.exact;
                         });
                   };
                 ])
               chain));
  }

let all = [ "cold-build"; "edit-loop"; "debug-run" ]

let find ctx = function
  | "cold-build" -> cold_build ctx
  | "edit-loop" -> edit_loop ctx
  | "debug-run" -> debug_run ctx
  | other -> invalid_arg ("unknown workload " ^ other)
