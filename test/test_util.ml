(* Unit and property tests for Ff_util: PRNG, statistics, heap, series. *)

module Prng = Ff_util.Prng
module Stats = Ff_util.Stats
module Heap = Ff_util.Heap
module Series = Ff_util.Series
module Gates = Ff_util.Gates

let check_float = Alcotest.(check (float 1e-9))
let check_float_loose = Alcotest.(check (float 1e-3))

(* ---------------- PRNG ---------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.int64 a) (Prng.int64 b)
  done

let test_prng_seed_dependence () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  Alcotest.(check bool) "different streams" false (Prng.int64 a = Prng.int64 b)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let rng = Prng.create ~seed:8 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0. && v < 3.5)
  done

let test_prng_uniformity () =
  let rng = Prng.create ~seed:5 in
  let buckets = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    let i = Prng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      Alcotest.(check bool) "within 15% of uniform" true
        (abs (c - expected) < expected * 15 / 100))
    buckets

let test_prng_int_unbiased_small_bound () =
  (* regression: [int] used plain modulo, which biases small residues when
     the bound does not divide 2^63. With rejection sampling a chi-square
     test over bound 3 must stay under the p=0.001 critical value. *)
  let rng = Prng.create ~seed:17 in
  let n = 30_000 in
  let buckets = Array.make 3 0 in
  for _ = 1 to n do
    let i = Prng.int rng 3 in
    buckets.(i) <- buckets.(i) + 1
  done;
  let expected = float_of_int n /. 3. in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0. buckets
  in
  (* 2 degrees of freedom: critical value 13.82 at p=0.001 *)
  Alcotest.(check bool)
    (Printf.sprintf "chi-square %.2f < 13.82" chi2)
    true (chi2 < 13.82)

let test_prng_pow2_stream_unchanged () =
  (* power-of-two bounds take the masking fast path; it must agree with
     the uniform draw (and historically, with the old modulo stream) *)
  let a = Prng.create ~seed:23 and b = Prng.create ~seed:23 in
  for _ = 1 to 200 do
    let expected = Int64.to_int (Int64.rem (Int64.shift_right_logical (Prng.int64 a) 1) 16L) in
    Alcotest.(check int) "mask = rem for pow2" expected (Prng.int b 16)
  done

let test_prng_split_independent () =
  let parent = Prng.create ~seed:3 in
  let child = Prng.split parent in
  let c1 = Prng.int64 child and p1 = Prng.int64 parent in
  Alcotest.(check bool) "split diverges from parent" true (c1 <> p1)

let test_prng_exponential_mean () =
  let rng = Prng.create ~seed:11 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Prng.exponential rng ~mean:2.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "sample mean near 2.0" true (Float.abs (mean -. 2.0) < 0.1)

let test_prng_shuffle_permutation () =
  let rng = Prng.create ~seed:13 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

(* The generator as it was when its state was a boxed [int64] and [int]
   retried through a local closure, frozen here so the allocation-free
   rewrite is held to the exact same streams. [rejections] counts retried
   draws so the test can show the retry path ran. *)
module Prng_frozen = struct
  type t = { mutable state : int64 }

  let rejections = ref 0
  let golden_gamma = 0x9E3779B97F4A7C15L

  let mix64 z =
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let create ~seed = { state = Int64.of_int seed }

  let int64 t =
    t.state <- Int64.add t.state golden_gamma;
    mix64 t.state

  let split t = { state = int64 t }

  let int t bound =
    assert (bound > 0);
    let b = Int64.of_int bound in
    if bound land (bound - 1) = 0 then
      Int64.to_int (Int64.logand (Int64.shift_right_logical (int64 t) 1) (Int64.sub b 1L))
    else begin
      let rec draw () =
        let bits = Int64.shift_right_logical (int64 t) 1 in
        let v = Int64.rem bits b in
        if Int64.compare (Int64.add (Int64.sub bits v) (Int64.sub b 1L)) 0L < 0 then begin
          incr rejections;
          draw ()
        end
        else Int64.to_int v
      in
      draw ()
    end

  let float t bound =
    assert (bound > 0.);
    let raw = Int64.shift_right_logical (int64 t) 11 in
    Int64.to_float raw /. 9007199254740992. *. bound

  let bool t = Int64.logand (int64 t) 1L = 1L
end

(* 3 * bound exceeds 2^63 by one, so about a third of all 63-bit draws
   fall in the incomplete top interval and are rejected *)
let rejecting_bound = 3074457345618258603

let int_bounds =
  [ 1; 2; 3; 7; 10; 16; 17; 1000; 1024; 1_000_003; 1 lsl 30; 1 lsl 61; max_int;
    max_int - 1; rejecting_bound ]

let test_prng_matches_frozen () =
  Prng_frozen.rejections := 0;
  let seeds = [ 0; 1; 2; 7; 11; 42; -1; -12345; max_int; min_int ] @ List.init 40 (fun i -> (i * 7919) + 3) in
  List.iter
    (fun seed ->
      let a = Prng.create ~seed and r = Prng_frozen.create ~seed in
      let tag what = Printf.sprintf "seed %d: %s" seed what in
      for round = 1 to 20 do
        List.iter
          (fun bound ->
            Alcotest.(check int) (tag (Printf.sprintf "int %d" bound))
              (Prng_frozen.int r bound) (Prng.int a bound))
          int_bounds;
        List.iter
          (fun bound ->
            Alcotest.(check int64) (tag "float bits")
              (Int64.bits_of_float (Prng_frozen.float r bound))
              (Int64.bits_of_float (Prng.float a bound)))
          [ 1.0; 3.5; 1e-300; 1e300 ];
        Alcotest.(check bool) (tag "bool") (Prng_frozen.bool r) (Prng.bool a);
        Alcotest.(check int64) (tag "int64") (Prng_frozen.int64 r) (Prng.int64 a);
        if round mod 5 = 0 then begin
          let ca = Prng.split a and cr = Prng_frozen.split r in
          for _ = 1 to 10 do
            Alcotest.(check int) (tag "split child int") (Prng_frozen.int cr rejecting_bound)
              (Prng.int ca rejecting_bound);
            Alcotest.(check int64) (tag "split child int64") (Prng_frozen.int64 cr)
              (Prng.int64 ca)
          done
        end
      done)
    seeds;
  Alcotest.(check bool)
    (Printf.sprintf "the retry path ran (%d rejections)" !Prng_frozen.rejections)
    true
    (!Prng_frozen.rejections > 100)

let test_prng_no_alloc () =
  let g = Prng.create ~seed:9 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    acc :=
      !acc + Prng.int g 1000 + Prng.int g 1024 + Prng.int g rejecting_bound
      + if Prng.bool g then 1 else 0
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  Alcotest.(check (float 0.)) "int and bool draws allocate nothing" 0. words;
  (* a float crosses the module boundary boxed: two words, nothing more *)
  let sum = ref 0. in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    sum := !sum +. Prng.float g 1.0
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sum);
  Alcotest.(check bool)
    (Printf.sprintf "float draws allocate only their result (%.0f words)" words)
    true (words <= 20_000.)

(* ---------------- Stats ---------------- *)

let test_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]);
  check_float "empty mean" 0. (Stats.mean [])

let test_variance () =
  check_float "variance" 1.25 (Stats.variance [ 1.; 2.; 3.; 4. ]);
  check_float "singleton" 0. (Stats.variance [ 5. ])

let test_percentile () =
  let xs = [ 1.; 2.; 3.; 4.; 5. ] in
  check_float "p0" 1. (Stats.percentile 0. xs);
  check_float "p50" 3. (Stats.percentile 50. xs);
  check_float "p100" 5. (Stats.percentile 100. xs);
  check_float "p25 interpolates" 2. (Stats.percentile 25. xs)

let test_percentile_empty () =
  Alcotest.check_raises "empty percentile" (Invalid_argument "Stats.percentile: empty sample")
    (fun () -> ignore (Stats.percentile 50. []))

let test_ewma () =
  let e = Stats.Ewma.create ~alpha:0.5 in
  check_float "initial" 0. (Stats.Ewma.value e);
  Stats.Ewma.update e 10.;
  check_float "first sample taken whole" 10. (Stats.Ewma.value e);
  Stats.Ewma.update e 0.;
  check_float "decays" 5. (Stats.Ewma.value e);
  Stats.Ewma.reset e;
  check_float "reset" 0. (Stats.Ewma.value e)

let test_window_counter () =
  let w = Stats.Window_counter.create ~width:1.0 in
  Stats.Window_counter.add w ~now:0.1 100.;
  Stats.Window_counter.add w ~now:0.5 100.;
  check_float_loose "rate inside window" 200. (Stats.Window_counter.rate w ~now:0.9);
  (* after the window passes, old samples age out *)
  check_float_loose "rate after window" 0. (Stats.Window_counter.rate w ~now:5.0)

let test_window_counter_long_gap () =
  let w = Stats.Window_counter.create ~width:1.0 in
  Stats.Window_counter.add w ~now:0.2 100.;
  (* a gap many windows long: advance must zero every bucket, not just
     (gap mod window) of them, or the stale 100. would leak back in *)
  check_float_loose "rate after long gap" 0. (Stats.Window_counter.rate w ~now:57.3);
  Stats.Window_counter.add w ~now:57.4 300.;
  check_float_loose "counts again after gap" 300. (Stats.Window_counter.rate w ~now:57.6);
  (* a second long gap where [add] itself (not [rate]) does the advancing *)
  Stats.Window_counter.add w ~now:123.0 500.;
  check_float_loose "only the fresh sample survives" 500.
    (Stats.Window_counter.rate w ~now:123.1)

(* [Net.transmit] calls [add] on every hop. Built without -opaque, the call
   inlines across the module boundary and its two float arguments stay
   unboxed; with -opaque each call boxes both, four words. *)
let test_window_counter_no_alloc () =
  let w = Stats.Window_counter.create ~width:1.0 in
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Stats.Window_counter.add w ~now:(float_of_int i *. 1e-4) (float_of_int (i land 1023))
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "add allocates nothing (%.2f words per call)" per_call)
    true (per_call < 0.01)

(* ---------------- Heap ---------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun p -> Heap.push h ~prio:p p) [ 5.; 1.; 4.; 2.; 3. ];
  let order = List.init 5 (fun _ -> fst (Option.get (Heap.pop h))) in
  Alcotest.(check (list (float 0.))) "sorted pops" [ 1.; 2.; 3.; 4.; 5. ] order

let test_heap_fifo_ties () =
  let h = Heap.create () in
  Heap.push h ~prio:1. "first";
  Heap.push h ~prio:1. "second";
  Heap.push h ~prio:1. "third";
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "insertion order on ties" [ "first"; "second"; "third" ] order

let test_heap_empty () =
  let h = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Heap.push h ~prio:1. 1;
  Alcotest.(check int) "size" 1 (Heap.size h);
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h)

(* Regression: popping used to leave the element reachable from the
   vacated slot [vals.(len)] until something overwrote it — a space leak
   pinning packets and closures on any heap that drains. A weak pointer
   sees whether the popped value stays alive across a major GC. *)
let test_heap_pop_releases () =
  let h = Heap.create () in
  let weak = Weak.create 8 in
  for i = 0 to 7 do
    let v = ref (1000 + i) in
    (* boxed, unshared *)
    Weak.set weak i (Some v);
    Heap.push h ~prio:(float_of_int i) v
  done;
  for _ = 0 to 3 do
    ignore (Heap.pop h)
  done;
  Gc.full_major ();
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "popped value %d collected" i)
      false
      (Weak.check weak i)
  done;
  for i = 4 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "pending value %d alive" i)
      true
      (Weak.check weak i)
  done;
  Heap.clear h;
  Gc.full_major ();
  for i = 4 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "cleared value %d collected" i)
      false
      (Weak.check weak i)
  done

(* The float instantiation crosses the [Obj.magic 0] slot filler with
   potential flat-float-array specialization; exercising growth, drain
   and refill proves the value arrays stay generic. *)
let test_heap_float_values () =
  let h : float Heap.t = Heap.create () in
  for i = 99 downto 0 do
    Heap.push h ~prio:(float_of_int i) (float_of_int i *. 2.)
  done;
  for i = 0 to 49 do
    Alcotest.(check (float 0.)) "float value" (float_of_int i *. 2.) (Heap.pop_min h)
  done;
  Heap.push h ~prio:(-1.) (-2.);
  Alcotest.(check (float 0.)) "refilled min" (-2.) (Heap.pop_min h)

(* Slots are recycled across a clear: pops first scatter the free row ids
   through the slot column, then a clear frees the rest, and a refill to
   the same size (no growth) must still pop every value and tag in key
   order. *)
let test_heap_clear_refill () =
  let h = Heap.create () in
  let fill base =
    for i = 0 to 39 do
      let k = (i * 17) mod 40 in
      Heap.push_tagged h ~prio:(float_of_int (k mod 8)) ~seq:(base + k) ~tag1:(base + k)
        ~tag2:(-k) (base + k)
    done
  in
  fill 0;
  for _ = 1 to 13 do
    ignore (Heap.pop_min h)
  done;
  Heap.clear h;
  Alcotest.(check int) "cleared" 0 (Heap.size h);
  fill 1000;
  let expected =
    List.init 40 Fun.id
    |> List.sort (fun a b -> compare (a mod 8, a) (b mod 8, b))
  in
  List.iteri
    (fun i k ->
      Alcotest.(check int) "size" (40 - i) (Heap.size h);
      Alcotest.(check int) "tag1" (1000 + k) (Heap.top_tag1 h);
      Alcotest.(check int) "tag2" (-k) (Heap.top_tag2 h);
      Alcotest.(check int) "value" (1000 + k) (Heap.pop_min h))
    expected;
  Alcotest.(check bool) "drained" true (Heap.is_empty h)

(* Random interleavings of every push flavour, pops and clears, with
   priority ties, against a sorted-list reference keyed (prio, seq).
   [push] draws its sequence from the heap's own counter (reset by
   [clear]); the explicit sequences start at 10^6, so they dominate it
   and every key stays unique. *)
let prop_heap_matches_model =
  QCheck.Test.make ~name:"heap matches a sorted-list model" ~count:300
    QCheck.(list (triple (int_bound 19) (int_bound 5) small_nat))
    (fun ops ->
      let h = Heap.create () in
      (* model entries: (prio, seq, value, tag1, tag2) *)
      let model = ref [] and own_seq = ref 0 and ext_seq = ref 1_000_000 and id = ref 0 in
      let add prio seq tag1 tag2 =
        incr id;
        model := (prio, seq, !id, tag1, tag2) :: !model
      in
      let ok = ref true in
      let pop () =
        match List.sort compare !model with
        | [] -> ok := !ok && Heap.is_empty h
        | (prio, _, v, t1, t2) :: rest ->
          model := rest;
          let got_prio = Heap.min_prio h and g1 = Heap.top_tag1 h and g2 = Heap.top_tag2 h in
          let got = Heap.pop_min h in
          ok := !ok && got_prio = prio && g1 = t1 && g2 = t2 && got = v
      in
      List.iter
        (fun (op, p, tag) ->
          let prio = float_of_int p in
          (match op with
          | 0 | 1 | 2 | 3 ->
            add prio !own_seq 0 0;
            incr own_seq;
            Heap.push h ~prio !id
          | 4 | 5 | 6 ->
            add prio !ext_seq 0 0;
            Heap.push_seq h ~prio ~seq:!ext_seq !id;
            incr ext_seq
          | 7 | 8 | 9 | 10 ->
            add prio !ext_seq tag (-tag);
            Heap.push_tagged h ~prio ~seq:!ext_seq ~tag1:tag ~tag2:(-tag) !id;
            incr ext_seq
          | 19 ->
            Heap.clear h;
            model := [];
            own_seq := 0
          | _ -> pop ());
          ok := !ok && Heap.size h = List.length !model)
        ops;
      while !model <> [] do
        pop ()
      done;
      !ok && Heap.is_empty h)

(* ---------------- Int_table ---------------- *)

module It = Ff_util.Int_table

let test_int_table_basics () =
  let t = It.create () in
  Alcotest.(check int) "empty" 0 (It.length t);
  It.set t 5 42;
  It.set t 7 1;
  It.set t 5 43;
  Alcotest.(check int) "length counts keys once" 2 (It.length t);
  Alcotest.(check int) "overwrite" 43 (It.get t 5 ~default:(-1));
  Alcotest.(check int) "miss takes default" (-1) (It.get t 9 ~default:(-1));
  Alcotest.(check bool) "mem hit" true (It.mem t 7);
  Alcotest.(check bool) "mem miss" false (It.mem t 9);
  Alcotest.(check (option int)) "find_opt" (Some 1) (It.find_opt t 7);
  It.remove t 5;
  Alcotest.(check bool) "removed" false (It.mem t 5);
  Alcotest.(check int) "length after remove" 1 (It.length t);
  (* reinsert must land on (or probe past) the tombstone *)
  It.set t 5 7;
  Alcotest.(check int) "reinsert over tombstone" 7 (It.get t 5 ~default:(-1));
  Alcotest.(check bool) "negative keys rejected on set" true
    (try
       It.set t (-3) 0;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "negative key reads as miss" (-1) (It.get t (-3) ~default:(-1));
  It.clear t;
  Alcotest.(check int) "cleared" 0 (It.length t)

let test_int_table_growth () =
  let t = It.create ~capacity:4 () in
  for k = 0 to 999 do
    It.set t k (k * 3)
  done;
  Alcotest.(check int) "length across rehashes" 1000 (It.length t);
  let ok = ref true in
  for k = 0 to 999 do
    if It.get t k ~default:(-1) <> k * 3 then ok := false
  done;
  Alcotest.(check bool) "values survive rehash" true !ok;
  Alcotest.(check int) "fold visits each live entry once" 1000
    (It.fold (fun _ _ acc -> acc + 1) t 0)

(* Tombstone churn: repeated remove/reinsert over the same small key space
   must neither lose entries nor let dead slots break probe chains. *)
let test_int_table_tombstone_churn () =
  let t = It.create ~capacity:8 () in
  for round = 0 to 99 do
    for k = 0 to 15 do
      It.set t k (round + k)
    done;
    for k = 0 to 15 do
      if k mod 2 = 0 then It.remove t k
    done
  done;
  Alcotest.(check int) "odd keys live" 8 (It.length t);
  for k = 0 to 15 do
    if k mod 2 = 0 then Alcotest.(check int) "even removed" (-1) (It.get t k ~default:(-1))
    else Alcotest.(check int) "odd kept" (99 + k) (It.get t k ~default:(-1))
  done

let prop_int_table_matches_hashtbl =
  QCheck.Test.make ~name:"int_table agrees with Hashtbl under random ops" ~count:200
    QCheck.(list (pair (int_range 0 2) (int_range 0 60)))
    (fun ops ->
      let t = It.create () in
      let h = Hashtbl.create 16 in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
            It.set t k (k * 7);
            Hashtbl.replace h k (k * 7)
          | 1 ->
            It.remove t k;
            Hashtbl.remove h k
          | _ -> ignore (It.mem t k))
        ops;
      It.length t = Hashtbl.length h
      && Hashtbl.fold (fun k v acc -> acc && It.get t k ~default:min_int = v) h true
      && List.for_all (fun (_, k) -> It.mem t k = Hashtbl.mem h k) ops)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops any input in sorted order" ~count:200
    QCheck.(list (float_range 0. 1000.))
    (fun xs ->
      let h = Heap.create () in
      List.iter (fun x -> Heap.push h ~prio:x x) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
      in
      drain [] = List.sort compare xs)

let prop_percentile_within_range =
  QCheck.Test.make ~name:"percentile stays within sample bounds" ~count:200
    QCheck.(pair (float_range 0. 100.) (list_of_size (Gen.int_range 1 40) (float_range (-50.) 50.)))
    (fun (p, xs) ->
      let v = Stats.percentile p xs in
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ---------------- Series ---------------- *)

let test_series_basics () =
  let s = Series.create ~name:"x" in
  Series.add s ~time:0. 1.;
  Series.add s ~time:1. 2.;
  Series.add s ~time:2. 3.;
  Alcotest.(check int) "length" 3 (Series.length s);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "last" (Some (2., 3.)) (Series.last s)

let test_series_resample () =
  let s = Series.create ~name:"x" in
  Series.add s ~time:1. 10.;
  Series.add s ~time:3. 20.;
  let pts = Series.resample s ~step:1. ~until:4. in
  Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
    "piecewise-constant grid"
    [ (0., 0.); (1., 10.); (2., 10.); (3., 20.); (4., 20.) ]
    pts

let test_series_csv () =
  let a = Series.create ~name:"a" and b = Series.create ~name:"b" in
  List.iter (fun t -> Series.add a ~time:t (t *. 2.)) [ 0.; 1.; 2. ];
  List.iter (fun t -> Series.add b ~time:t (t +. 10.)) [ 0.; 1.; 2. ];
  let out = Format.asprintf "%a" (fun fmt s -> Series.pp_csv fmt s) [ a; b ] in
  let lines = String.split_on_char '\n' (String.trim out) in
  Alcotest.(check string) "header" "time,a,b" (List.hd lines);
  Alcotest.(check int) "rows" 4 (List.length lines);
  Alcotest.(check bool) "values present" true
    (List.exists (fun l -> l = "2.000,4.0000,12.0000") lines)

let test_series_ascii_renders () =
  let s = Series.create ~name:"wave" in
  for i = 0 to 20 do
    Series.add s ~time:(float_of_int i) (float_of_int (i mod 5))
  done;
  let out = Format.asprintf "%a" (fun fmt x -> Series.pp_ascii ~height:6 fmt x) [ s ] in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "chart body drawn" true (String.contains out '*');
  Alcotest.(check bool) "legend includes the name" true (contains out "wave")

(* ---------------- Gate file ---------------- *)

let gate_keys = [ "perf.alloc"; "shard.imbalance" ]

let test_gates_parse () =
  match
    Gates.parse ~keys:gate_keys
      "# budgets\n\nperf.alloc: 14\n  shard.imbalance :1.4  \n# trailing comment\n"
  with
  | Error e -> Alcotest.failf "rejected a well-formed file: %s" e
  | Ok g ->
    check_float "perf" 14. (Option.get (Gates.find g "perf.alloc"));
    check_float "shard" 1.4 (Option.get (Gates.find g "shard.imbalance"));
    Alcotest.(check (option (float 0.))) "outside the keys" None (Gates.find g "fluid")

(* Every malformed file is refused, and the message names what is wrong. *)
let test_gates_reject () =
  let rejects name text fragment =
    match Gates.parse ~keys:gate_keys text with
    | Ok _ -> Alcotest.failf "%s: accepted %S" name text
    | Error e ->
      let nl = String.length fragment and el = String.length e in
      let rec has i = i + nl <= el && (String.sub e i nl = fragment || has (i + 1)) in
      if not (has 0) then Alcotest.failf "%s: message %S does not mention %S" name e fragment
  in
  let ok_shard = "shard.imbalance: 1.4\n" in
  rejects "non-number" ("perf.alloc: fourteen\n" ^ ok_shard) "line 1";
  rejects "nan" ("perf.alloc: nan\n" ^ ok_shard) "not a finite number";
  rejects "no colon" ("perf.alloc 14\n" ^ ok_shard) "expected";
  rejects "bare number" ("14\n" ^ ok_shard) "line 1";
  rejects "empty key" ("perf.alloc: 14\n: 3\n" ^ ok_shard) "empty key";
  rejects "unknown key" "perf.alloc: 14\nshrad.imbalance: 1.4\n"
    "unknown key \"shrad.imbalance\"";
  rejects "duplicate" ("perf.alloc: 14\n" ^ ok_shard ^ "perf.alloc: 15\n") "line 3: duplicate";
  rejects "missing" "perf.alloc: 14\n" "missing key \"shard.imbalance\"";
  rejects "empty file" "" "missing key"

let () =
  let qcheck =
    List.map Test_seed.to_alcotest
      [ prop_heap_sorts; prop_percentile_within_range; prop_int_table_matches_hashtbl ]
  in
  Alcotest.run "ff_util"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed dependence" `Quick test_prng_seed_dependence;
          Alcotest.test_case "int bounds" `Quick test_prng_int_bounds;
          Alcotest.test_case "float bounds" `Quick test_prng_float_bounds;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "unbiased small bound" `Quick test_prng_int_unbiased_small_bound;
          Alcotest.test_case "pow2 stream unchanged" `Quick test_prng_pow2_stream_unchanged;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "exponential mean" `Quick test_prng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "matches the frozen generator" `Quick test_prng_matches_frozen;
          Alcotest.test_case "allocation-free draws" `Quick test_prng_no_alloc;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile empty" `Quick test_percentile_empty;
          Alcotest.test_case "ewma" `Quick test_ewma;
          Alcotest.test_case "window counter" `Quick test_window_counter;
          Alcotest.test_case "window counter long gap" `Quick test_window_counter_long_gap;
          Alcotest.test_case "window counter allocation-free add" `Quick
            test_window_counter_no_alloc;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "pop releases values" `Quick test_heap_pop_releases;
          Alcotest.test_case "float values" `Quick test_heap_float_values;
          Alcotest.test_case "clear then refill reuses slots" `Quick test_heap_clear_refill;
          Test_seed.to_alcotest prop_heap_matches_model;
        ] );
      ( "int_table",
        [
          Alcotest.test_case "basics" `Quick test_int_table_basics;
          Alcotest.test_case "growth" `Quick test_int_table_growth;
          Alcotest.test_case "tombstone churn" `Quick test_int_table_tombstone_churn;
        ] );
      ( "gates",
        [
          Alcotest.test_case "parse" `Quick test_gates_parse;
          Alcotest.test_case "reject malformed" `Quick test_gates_reject;
        ] );
      ( "series",
        [
          Alcotest.test_case "basics" `Quick test_series_basics;
          Alcotest.test_case "resample" `Quick test_series_resample;
          Alcotest.test_case "csv rendering" `Quick test_series_csv;
          Alcotest.test_case "ascii rendering" `Quick test_series_ascii_renders;
        ] );
      ("properties", qcheck);
    ]
