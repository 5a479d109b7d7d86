(* The benchmark's own checks: its statistics and the determinism its
   exact-repeat rule relies on. *)

open Edbench

let close = Alcotest.float 1e-12

let test_tail () =
  let ramp n = List.init n (fun i -> float_of_int (i + 1)) in
  let t = Stats.tail (ramp 100) in
  Alcotest.(check (float 0.0)) "100 samples: p90" 90.0 t.pct;
  Alcotest.check close "p90 value" 90.0 t.value;
  Alcotest.(check int) "ten beyond" 10 t.beyond;
  let t = Stats.tail (ramp 99) in
  Alcotest.(check (float 0.0)) "99 samples: p90 has 9 beyond, so p75" 75.0 t.pct;
  Alcotest.(check int) "beyond p75" 24 t.beyond;
  let t = Stats.tail (ramp 1000) in
  Alcotest.(check (float 0.0)) "1000 samples: p99" 99.0 t.pct;
  Alcotest.(check int) "beyond p99" 10 t.beyond;
  let t = Stats.tail (List.rev (ramp 20)) in
  Alcotest.(check (float 0.0)) "20 samples: median rung, order-free" 50.0 t.pct;
  Alcotest.check close "median rung value" 10.0 t.value;
  Alcotest.(check int) "short of samples: count says so" 3 (Stats.tail (ramp 7)).beyond

let test_geomean () =
  Alcotest.check close "geomean [1;4]" 2.0 (Stats.geomean [ 1.0; 4.0 ]);
  (* Seconds in, seconds out: scaling every sample scales the mean. *)
  let xs = [ 0.003; 0.2; 1.5; 0.04 ] in
  Alcotest.(check (float 1e-9))
    "homogeneous of degree one" (1000.0 *. Stats.geomean xs)
    (Stats.geomean (List.map (fun x -> 1000.0 *. x) xs));
  Alcotest.check_raises "zero sample" (Invalid_argument "Stats.geomean: non-positive sample")
    (fun () -> ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_drift () =
  (* A host running the kernel at half speed doubled the raw time; the
     correction maps it back to reference-host seconds. *)
  Alcotest.check close "slow host" 1.0 (Stats.drift_correct ~k_ref:0.016 ~k_run:0.032 2.0);
  Alcotest.check close "reference host" 2.0 (Stats.drift_correct ~k_ref:0.016 ~k_run:0.016 2.0);
  let local = Stats.local_medians ~radius:2 [| 1.0; 9.0; 2.0; 3.0; 100.0; 4.0 |] in
  Alcotest.(check (array (float 0.0))) "windowed medians" [| 2.0; 2.5; 3.0; 4.0; 3.5; 4.0 |] local

let test_quartiles () =
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q3" 8.25 q3;
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let cold_ops seed =
  let ctx = Workloads.context ~seed ~state_dir:"." in
  ((Workloads.find ctx "cold-build").setup ()) ()

let test_same_seed () =
  let a = cold_ops 5 and b = cold_ops 5 in
  let ids ops = List.map (fun (o : Workloads.op) -> o.id) ops in
  Alcotest.(check (list string)) "same op list" (ids a) (ids b);
  Alcotest.(check bool) "another seed reorders" true (ids a <> ids (cold_ops 6));
  (* The spam -O1 pair: compile, then run the artifact. *)
  let exact ops =
    List.concat_map
      (fun (o : Workloads.op) ->
        if String.starts_with ~prefix:"spam -O1" o.id then (o.exec ()).exact else [])
      ops
  in
  let ea = exact a in
  Alcotest.(check bool) "fields present" true (List.length ea >= 5);
  Alcotest.(check (list (pair string string))) "same exact fields" ea (exact b)

let () =
  Alcotest.run "edbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail picks the highest rung with ten beyond" `Quick test_tail;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "drift correction" `Quick test_drift;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
        ] );
      ("determinism", [ Alcotest.test_case "same seed, same ops and fields" `Quick test_same_seed ]);
    ]
