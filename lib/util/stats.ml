let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.
  | _ ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
    sq /. float_of_int (List.length xs)

let percentile p xs =
  if xs = [] then invalid_arg "Stats.percentile: empty sample";
  let a = Array.of_list xs in
  (* [Float.compare], not polymorphic [compare]: same order on the floats
     that occur here, without the generic-comparison dispatch per element *)
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = percentile 50. xs

module Ewma = struct
  type t = { alpha : float; mutable value : float; mutable initialized : bool }

  let create ~alpha =
    assert (alpha > 0. && alpha <= 1.);
    { alpha; value = 0.; initialized = false }

  let update t x =
    if t.initialized then t.value <- (t.alpha *. x) +. ((1. -. t.alpha) *. t.value)
    else begin
      t.value <- x;
      t.initialized <- true
    end

  let value t = t.value

  let reset t =
    t.value <- 0.;
    t.initialized <- false
end

module Window_counter = struct
  (* A ring of sub-buckets approximating a sliding window: the window is
     divided into [buckets] slots; entries older than the window are zeroed
     lazily as time advances. *)

  (* Single-float record: flat layout, so accumulating stores stay unboxed —
     a [float ref] or fold accumulator would box on every step. *)
  type acc = { mutable v : float }

  type t = {
    width : float;
    buckets : float array;
    mutable epoch : int; (* index of the slot holding "now" *)
    mutable cur : int; (* [epoch mod nbuckets], kept incrementally *)
    slot : float; (* duration of one slot *)
    acc : acc; (* scratch for the allocation-free [rate] sum *)
  }

  let nbuckets = 20

  let create ~width =
    assert (width > 0.);
    { width; buckets = Array.make nbuckets 0.; epoch = 0; cur = 0;
      slot = width /. float_of_int nbuckets; acc = { v = 0. } }

  let slot_of t now = int_of_float (now /. t.slot)

  let advance t now =
    let target = slot_of t now in
    if target > t.epoch then begin
      let steps = min nbuckets (target - t.epoch) in
      for k = 1 to steps do
        t.buckets.((t.epoch + k) mod nbuckets) <- 0.
      done;
      t.epoch <- target;
      t.cur <- target mod nbuckets
    end

  let add t ~now x =
    (* [advance] inlined so the slot computation is shared; in the common
       case (same slot as the last touch) the cached [cur] avoids the
       integer division a [mod nbuckets] costs per packet *)
    let target = slot_of t now in
    if target > t.epoch then begin
      let steps = min nbuckets (target - t.epoch) in
      for k = 1 to steps do
        t.buckets.((t.epoch + k) mod nbuckets) <- 0.
      done;
      t.epoch <- target;
      t.cur <- target mod nbuckets
    end;
    let i = t.cur in
    t.buckets.(i) <- t.buckets.(i) +. x

  let rate t ~now =
    advance t now;
    (* same left-to-right sum as [Array.fold_left ( +. ) 0.] — identical
       rounding — but through the scratch record, so the ~20 intermediate
       totals are stores into a flat field instead of fresh boxes. [rate]
       runs on every probe arrival and every detector check. *)
    let b = t.buckets in
    t.acc.v <- 0.;
    for i = 0 to nbuckets - 1 do
      t.acc.v <- t.acc.v +. Array.unsafe_get b i
    done;
    t.acc.v /. t.width
end
