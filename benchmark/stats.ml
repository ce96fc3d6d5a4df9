(* Order statistics over a handful of runs, and the compare verdict. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartiles by the same rule as Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so
   spreads computed here match what an outside checker computes from the
   same values. One sample gives a zero-width interval. *)
let quartiles xs =
  match sorted xs with
  | [] -> (nan, nan)
  | [ x ] -> (x, x)
  | s ->
    let a = Array.of_list s in
    let ld = Array.length a in
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

type better = Lower | Higher

(* How far a metric may worsen before it counts as a regression: a share
   of the base median, an absolute amount, or a share with an absolute
   floor (set-up times of a few milliseconds). *)
type bound = Rel of float | Abs of float | Rel_floor of float * float

let bound_amount bound ~base =
  match bound with
  | Rel r -> r *. Float.abs base
  | Abs a -> a
  | Rel_floor (r, a) -> Float.max (r *. Float.abs base) a

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* [compare_runs ~better ~bound a b] judges run set [b] against base [a].

   - Unresolved: either side's interquartile range is wider than the
     bound, unless every run on one side beats every run on the other.
   - Worse: [b]'s median is worse than [a]'s by more than the bound.
   - Better: [b]'s median is better by more than [a]'s own interquartile
     range and [b] wins at least nine tenths of the cross pairs. A side
     with a single run says nothing about its spread, so then the gain
     must also exceed the bound.
   - Unchanged otherwise. *)
let compare_runs ~better ~bound a b =
  let ma = median a and mb = median b in
  let allowed = bound_amount bound ~base:ma in
  (* positive = worse *)
  let worse_by x y = match better with Lower -> y -. x | Higher -> x -. y in
  let beats x y = worse_by y x < 0. in
  let iqr xs = let q1, q3 = quartiles xs in q3 -. q1 in
  let all_pairs p = List.for_all (fun y -> List.for_all (fun x -> p x y) a) b in
  let dominated = all_pairs (fun x y -> beats x y) || all_pairs (fun x y -> beats y x) in
  let wins =
    List.fold_left
      (fun acc y -> List.fold_left (fun acc x -> if beats y x then acc + 1 else acc) acc a)
      0 b
  in
  let pairs = List.length a * List.length b in
  let delta = worse_by ma mb in
  if (iqr a > allowed || iqr b > allowed) && not dominated then Unresolved
  else if delta > allowed then Worse
  else if
    -.delta > iqr a
    && float_of_int wins >= 0.9 *. float_of_int pairs
    && (List.length a > 1 && List.length b > 1 || -.delta > allowed)
  then Better
  else Unchanged
