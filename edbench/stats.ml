(* Order statistics for the benchmark's reported figures. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile, as Python's [statistics.quantiles(xs, n=4)]
   computes them (the default "exclusive" method), so the spread this
   program prints is the one a reader recomputes from its samples. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need two samples";
  let cut i =
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
  in
  (cut 1, cut 3)

(* Interquartile range as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. median xs

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no samples"
  | xs ->
      List.iter (fun x -> if not (x > 0.0) then invalid_arg "Stats.geomean: non-positive sample") xs;
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

(* Percentiles a tail may be reported at, highest first. *)
let ladder = [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]

type tail = { pct : float; value : float; beyond : int; samples : int }

(* The highest ladder percentile (nearest rank) with at least ten samples
   strictly beyond its rank; with fewer than twenty samples no rung
   qualifies and the median rung is reported with its short count. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let at pct =
    let rank = max 1 (int_of_float (Float.ceil (pct /. 100.0 *. float_of_int n -. 1e-9))) in
    { pct; value = a.(rank - 1); beyond = n - rank; samples = n }
  in
  match List.find_opt (fun p -> (at p).beyond >= 10) ladder with
  | Some p -> at p
  | None -> at 50.0

(* Host-drift correction: a wall time measured while the reference
   kernel's median sample took [k_run] seconds, rescaled to a host on
   which it takes [k_ref]. *)
let drift_correct ~k_ref ~k_run raw = raw *. k_ref /. k_run

(* For each sample, the median of it and the [radius] samples on either
   side (fewer at the ends): the kernel time local to a step. *)
let local_medians ~radius a =
  let n = Array.length a in
  Array.init n (fun i ->
      let lo = max 0 (i - radius) and hi = min (n - 1) (i + radius) in
      median (Array.to_list (Array.sub a lo (hi - lo + 1))))
