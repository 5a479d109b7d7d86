(* The reference kernel: a fixed, Stdlib-only piece of work whose wall
   time tracks how fast the host runs allocation-heavy OCaml right now.
   Samples of it are interleaved between the benchmark's ops; their
   median rescales every measured wall time (see [Stats.drift_correct]).
   It mixes the same kinds of work the toolflow does -- balanced-tree
   inserts, structural hashing, sorting -- and keeps its live data small
   so it does not move the program's own heap figures. *)

module IM = Map.Make (Int)

let size = 1_500
let repeats = 12

(* One pass over a fresh map; returns a checksum. *)
let pass seed =
  let x = ref seed in
  let next () =
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    !x
  in
  let m = ref IM.empty in
  for _ = 1 to size do
    let k = next () in
    m := IM.add (k land 0xFFFFF) k !m
  done;
  let a = Array.make (IM.cardinal !m) 0 in
  let i = ref 0 in
  IM.iter
    (fun k v ->
      a.(!i) <- Hashtbl.hash (k, string_of_int v);
      incr i)
    !m;
  Array.sort compare a;
  Array.fold_left (fun acc h -> ((acc * 31) + h) land 0x3FFFFFFF) 0 a

(* One sample's work; its checksum must never change. *)
let work () =
  let acc = ref 0 in
  for r = 1 to repeats do
    acc := (!acc * 7) + pass (0x2545F491 + r)
  done;
  !acc

let expected = lazy (work ())

(* Words the kernel keeps live at its peak: the map and the array. *)
let live_words () =
  let m = ref IM.empty in
  for k = 1 to size do
    m := IM.add k k !m
  done;
  Obj.reachable_words (Obj.repr !m) + size + 1

(* Time one sample; raises if the kernel computed something else. *)
let sample () =
  let expected = Lazy.force expected in
  let t0 = Unix.gettimeofday () in
  let r = work () in
  let dt = Unix.gettimeofday () -. t0 in
  if r <> expected then failwith "reference kernel: checksum changed";
  dt
