(* The six Rosetta benches with inputs drawn from the run's seed. Each
   bench module generates its own input frames from a seed and checks
   outputs against a hand-written reference recomputed from those
   inputs, so every seed gives a fresh, checkable frame. *)

open Pld_rosetta

type t = {
  name : string;
  graph : Pld_ir.Graph.t;
  inputs : (string * Pld_ir.Value.t list) list;
  check : (string * Pld_ir.Value.t list) list -> bool;
}

let seeded_inputs name seed =
  match name with
  | "rendering" -> Rendering.workload ~seed ()
  | "digit" -> Digit_recog.workload ~seed ()
  | "spam" -> Spam_filter.workload ~seed ()
  | "optical" -> Optical_flow.workload ~seed ()
  | "face" -> Face_detect.workload ~seed ()
  | "bnn" -> Bnn.workload ~seed ()
  | other -> invalid_arg ("Benches.seeded_inputs: unknown bench " ^ other)

let make ~input_seed name =
  let b = Suite.find name in
  let inputs = seeded_inputs name input_seed in
  {
    name;
    graph = b.Suite.graph (Pld_ir.Graph.Hw { page_hint = None });
    inputs;
    check = (fun outputs -> b.Suite.check ~inputs outputs);
  }

(* Every bench, each with its own input seed derived from the run seed. *)
let all ~seed = List.mapi (fun i name -> make ~input_seed:((seed * 7919) + (i * 104729) + 1) name) Suite.names
