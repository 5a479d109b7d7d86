(* Command-line driver:
     main.exe --workload NAME --seed N --seconds S --trace 0|1 --kref K
   Prints per-bench rows and raw figures, then one JSON result line. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let k_ref = ref 0.0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" Edbench.Workloads.all);
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measured seconds per run (sizes the number of passes)");
      ("--trace", Arg.Set_int trace, " 1: traced run reporting per-layer metrics");
      ("--kref", Arg.Set_float k_ref, " reference kernel median (s) the wall times are rescaled to");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "edbench: edit-compile-run benchmark";
  if not (List.mem !workload Edbench.Workloads.all) then begin
    prerr_endline ("edbench: --workload must be one of " ^ String.concat ", " Edbench.Workloads.all);
    exit 2
  end;
  if !k_ref <= 0.0 then begin
    prerr_endline "edbench: --kref must be positive";
    exit 2
  end;
  Edbench.Harness.run
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      k_ref = !k_ref;
      state_dir = ".edbench";
    }
