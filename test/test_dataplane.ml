(* Tests for Ff_dataplane: packets, resources, registers, sketches, bloom
   filters, HashPipe, match-action tables, PPM IR analysis. *)

module Packet = Ff_dataplane.Packet
module Resource = Ff_dataplane.Resource
module Register = Ff_dataplane.Register
module Sketch = Ff_dataplane.Sketch
module Bloom = Ff_dataplane.Bloom
module Hashpipe = Ff_dataplane.Hashpipe
module Ppm = Ff_dataplane.Ppm
module Cuckoo = Ff_dataplane.Cuckoo
module Cuckoo_ref = Ff_oracle.Oracle.Cuckoo_ref

(* ---------------- Packet ---------------- *)

let test_packet_defaults () =
  let p = Packet.make ~src:1 ~dst:2 ~flow:3 () in
  Alcotest.(check int) "default size" 1000 p.Packet.size;
  Alcotest.(check int) "default ttl" 64 p.Packet.ttl;
  Alcotest.(check bool) "data not control" false (Packet.is_control p);
  let probe =
    Packet.make ~src:1 ~dst:2 ~flow:3
      ~payload:(Packet.Mode_probe { attack = Packet.Lfa; epoch = 1; origin = 0; activate = true;
                                    region_ttl = 4 })
      ()
  in
  Alcotest.(check int) "control size" Packet.control_size probe.Packet.size;
  Alcotest.(check bool) "probe is control" true (Packet.is_control probe)

let test_packet_uids_unique () =
  let a = Packet.make ~src:0 ~dst:1 ~flow:1 () in
  let b = Packet.make ~src:0 ~dst:1 ~flow:1 () in
  Alcotest.(check bool) "unique uids" true (a.Packet.uid <> b.Packet.uid)

(* A packet is one 10-word block (nine immediate fields, no float box
   beside it). [make_ack] adds its two-word [Ack] payload; [Data] and
   [Syn] are constants. Arguments vary per call so none is a constant. *)
let test_packet_constructor_words () =
  let n = 100_000 in
  let sink = ref (Packet.make ~src:0 ~dst:1 ~flow:0 ()) in
  let words_per_call build =
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      sink := build i
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let check name expected build =
    let w = words_per_call build in
    Alcotest.(check bool)
      (Printf.sprintf "%s allocates %d words (%.3f per call)" name expected w)
      true
      (Float.abs (w -. float_of_int expected) < 0.01)
  in
  check "make_data" 10 (fun i ->
      Packet.make_data ~size:(1000 + (i land 7)) ~seq:i ~ttl:64 ~src:0 ~dst:1 ~flow:i);
  check "make_control Syn" 10 (fun i ->
      Packet.make_control ~payload:Packet.Syn ~src:i ~dst:1 ~flow:i);
  check "make_ack" 12 (fun i -> Packet.make_ack ~acked:i ~src:1 ~dst:0 ~flow:i);
  Alcotest.(check bool) "last packet kept" true (!sink.Packet.flow = n)

(* ---------------- Resource ---------------- *)

let test_resource_arith () =
  let a = Resource.make ~stages:2. ~sram_kb:100. () in
  let b = Resource.make ~stages:1. ~tcam:50. () in
  let s = Resource.add a b in
  Alcotest.(check (float 0.)) "stages add" 3. s.Resource.stages;
  Alcotest.(check (float 0.)) "tcam add" 50. s.Resource.tcam;
  let d = Resource.sub s b in
  Alcotest.(check (float 0.)) "sub" 2. d.Resource.stages;
  Alcotest.(check (float 0.)) "scale" 4. (Resource.scale 2. a).Resource.stages

let test_resource_fits () =
  let cap = Resource.tofino_like in
  Alcotest.(check bool) "zero fits" true (Resource.fits ~need:Resource.zero ~within:cap);
  Alcotest.(check bool) "cap fits itself" true (Resource.fits ~need:cap ~within:cap);
  let over = Resource.add cap (Resource.make ~stages:1. ()) in
  Alcotest.(check bool) "over does not fit" false (Resource.fits ~need:over ~within:cap)

let test_dominant_share () =
  let cap = Resource.make ~stages:10. ~sram_kb:100. ~alus:10. ~tcam:10. ~hash_units:10. () in
  let need = Resource.make ~stages:5. ~sram_kb:10. () in
  Alcotest.(check (float 1e-9)) "dominant" 0.5 (Resource.dominant_share ~need ~within:cap);
  let impossible = Resource.make ~stages:1. () in
  let no_cap = Resource.make ~sram_kb:10. () in
  Alcotest.(check (float 0.)) "infinite when impossible" infinity
    (Resource.dominant_share ~need:impossible ~within:no_cap)

(* ---------------- Registers and meters ---------------- *)

let test_array_reg () =
  let r = Register.Array_reg.create ~name:"r" ~slots:16 () in
  Register.Array_reg.set r 42 3.0;
  Alcotest.(check (float 0.)) "get" 3.0 (Register.Array_reg.get r 42);
  Alcotest.(check (float 0.)) "bump" 5.0 (Register.Array_reg.bump r 42 2.0);
  Register.Array_reg.reset r;
  Alcotest.(check (float 0.)) "reset" 0.0 (Register.Array_reg.get r 42)

let test_array_reg_dump_load () =
  let r = Register.Array_reg.create ~name:"state" ~slots:8 () in
  Register.Array_reg.set_slot r 1 10.;
  Register.Array_reg.set_slot r 5 20.;
  let dump = Register.Array_reg.dump r in
  Alcotest.(check int) "two non-zero entries" 2 (List.length dump);
  let r2 = Register.Array_reg.create ~name:"state" ~slots:8 () in
  Register.Array_reg.load r2 dump;
  Alcotest.(check (float 0.)) "slot 1 restored" 10. (Register.Array_reg.get_slot r2 1);
  Alcotest.(check (float 0.)) "slot 5 restored" 20. (Register.Array_reg.get_slot r2 5)

let test_meter () =
  let m = Register.Meter.create ~rate:1000. ~burst:500. in
  Alcotest.(check bool) "burst allowed" true (Register.Meter.allow m ~now:0. ~bytes:500.);
  Alcotest.(check bool) "empty bucket refuses" false (Register.Meter.allow m ~now:0. ~bytes:100.);
  (* after 0.1 s, 100 bytes of tokens have accrued *)
  Alcotest.(check bool) "refill allows" true (Register.Meter.allow m ~now:0.1 ~bytes:100.);
  Alcotest.(check bool) "but not more" false (Register.Meter.allow m ~now:0.1 ~bytes:100.)

(* The dropper calls [allow] on every suspicious packet. It inlines, so its
   computed float arguments stay unboxed, and the refill clamps with a
   float comparison: polymorphic [min] boxed both operands per call. *)
let test_meter_no_alloc () =
  let m = Register.Meter.create ~rate:1000. ~burst:500. in
  let n = 100_000 in
  let allowed = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    if Register.Meter.allow m ~now:(float_of_int i *. 1e-4) ~bytes:(float_of_int (i land 127))
    then incr allowed
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check bool) "some calls allowed" true (!allowed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "allow allocates nothing (%.3f words per call)" per_call)
    true (per_call < 0.01)

(* ---------------- Sketch ---------------- *)

let test_sketch_never_underestimates () =
  let s = Sketch.create ~rows:4 ~cols:64 () in
  for key = 0 to 99 do
    Sketch.add s key (float_of_int (key + 1))
  done;
  for key = 0 to 99 do
    Alcotest.(check bool) "estimate >= truth" true
      (Sketch.estimate s key >= float_of_int (key + 1))
  done

let test_sketch_exact_when_sparse () =
  let s = Sketch.create ~rows:4 ~cols:1024 () in
  Sketch.add s 7 5.;
  Sketch.add s 9 3.;
  Alcotest.(check (float 0.)) "sparse exact" 5. (Sketch.estimate s 7);
  Alcotest.(check (float 0.)) "total" 8. (Sketch.total s)

let test_sketch_merge () =
  let a = Sketch.create ~rows:3 ~cols:128 () in
  let b = Sketch.create ~rows:3 ~cols:128 () in
  Sketch.add a 1 10.;
  Sketch.add b 1 5.;
  Sketch.add b 2 7.;
  Sketch.merge_into ~dst:a ~src:b;
  Alcotest.(check bool) "merged estimate" true (Sketch.estimate a 1 >= 15.);
  Alcotest.(check bool) "merged other key" true (Sketch.estimate a 2 >= 7.);
  Alcotest.(check (float 0.)) "merged total" 22. (Sketch.total a)

let test_sketch_merge_incompatible () =
  let a = Sketch.create ~rows:3 ~cols:128 () in
  let b = Sketch.create ~rows:4 ~cols:128 () in
  Alcotest.check_raises "incompatible"
    (Invalid_argument "Sketch.merge_into: incompatible sketches") (fun () ->
      Sketch.merge_into ~dst:a ~src:b)

let test_sketch_serialize_absorb () =
  let a = Sketch.create ~rows:3 ~cols:128 () in
  Sketch.add a 5 9.;
  let snap = Sketch.serialize a in
  let b = Sketch.create ~rows:3 ~cols:128 () in
  Sketch.absorb b snap;
  Alcotest.(check bool) "absorbed" true (Sketch.estimate b 5 >= 9.)

let test_sketch_roundtrip_total_exact () =
  (* regression: absorb used to re-sum cell values into [total], inflating
     it by a factor of [rows] on every serialize->absorb round trip *)
  let a = Sketch.create ~rows:4 ~cols:64 () in
  for key = 0 to 49 do
    Sketch.add a key (float_of_int key +. 0.5)
  done;
  let b = Sketch.create ~rows:4 ~cols:64 () in
  Sketch.absorb b (Sketch.serialize a);
  Alcotest.(check (float 0.)) "total survives exactly" (Sketch.total a) (Sketch.total b);
  (* absorbing into a non-empty sketch adds, not replaces *)
  Sketch.absorb b (Sketch.serialize a);
  Alcotest.(check (float 0.)) "second absorb accumulates" (2. *. Sketch.total a)
    (Sketch.total b)

let prop_sketch_upper_bound =
  QCheck.Test.make ~name:"count-min estimate always >= true count" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 200) (int_range 0 50))
    (fun keys ->
      let s = Sketch.create ~rows:4 ~cols:32 () in
      List.iter (fun k -> Sketch.add s k 1.) keys;
      List.for_all
        (fun k ->
          let truth = float_of_int (List.length (List.filter (( = ) k) keys)) in
          Sketch.estimate s k >= truth)
        (List.sort_uniq compare keys))

(* ---------------- Bloom ---------------- *)

let test_bloom_no_false_negatives () =
  let b = Bloom.create ~bits:1024 ~hashes:3 () in
  for k = 0 to 99 do
    Bloom.add b k
  done;
  for k = 0 to 99 do
    Alcotest.(check bool) "member" true (Bloom.mem b k)
  done

let test_bloom_fp_rate_reasonable () =
  let b = Bloom.create ~bits:4096 ~hashes:3 () in
  for k = 0 to 199 do
    Bloom.add b k
  done;
  let fps = ref 0 in
  for k = 10_000 to 10_999 do
    if Bloom.mem b k then incr fps
  done;
  let analytic = Bloom.expected_fp_rate b ~inserted:200 in
  Alcotest.(check bool) "observed fp within 3x analytic + slack" true
    (float_of_int !fps /. 1000. <= (3. *. analytic) +. 0.02)

let test_bloom_reset () =
  let b = Bloom.create ~bits:256 ~hashes:2 () in
  Bloom.add b 1;
  Bloom.reset b;
  Alcotest.(check int) "no set bits" 0 (Bloom.count_set_bits b)

let prop_bloom_membership =
  QCheck.Test.make ~name:"bloom: every inserted key is a member" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 100) int)
    (fun keys ->
      let b = Bloom.create ~bits:2048 ~hashes:4 () in
      List.iter (Bloom.add b) keys;
      List.for_all (Bloom.mem b) keys)

(* ---------------- HashPipe ---------------- *)

let test_hashpipe_tracks_heavy () =
  let hp = Hashpipe.create ~stages:4 ~slots_per_stage:32 () in
  (* heavy key 1000 interleaved with light noise *)
  for i = 0 to 999 do
    Hashpipe.update hp ~key:1000 ~weight:1.;
    Hashpipe.update hp ~key:(i mod 200) ~weight:1.
  done;
  let hh = Hashpipe.heavy_hitters hp ~threshold:400. in
  Alcotest.(check bool) "heavy key found" true (List.mem_assoc 1000 hh)

let test_hashpipe_no_overestimate () =
  let hp = Hashpipe.create ~stages:2 ~slots_per_stage:8 () in
  for _ = 1 to 50 do
    Hashpipe.update hp ~key:1 ~weight:2.
  done;
  Alcotest.(check bool) "count <= truth" true (Hashpipe.count hp ~key:1 <= 100.)

let test_hashpipe_reset () =
  let hp = Hashpipe.create ~stages:2 ~slots_per_stage:8 () in
  Hashpipe.update hp ~key:1 ~weight:1.;
  Hashpipe.reset hp;
  Alcotest.(check (float 0.)) "reset" 0. (Hashpipe.count hp ~key:1);
  Alcotest.(check (list int)) "no residents" [] (Hashpipe.resident_keys hp)

(* ---------------- Cuckoo filter ---------------- *)

(* The differential ring: every property drives the filter and the naive
   multiset oracle ([Ff_oracle.Oracle.Cuckoo_ref]) over the same random
   inputs. Case counts scale 5x under the @deep alias (DEEP=1). *)
let ck_count n = if Test_seed.deep then 5 * n else n

let test_cuckoo_basics () =
  let c = Cuckoo.create ~capacity:64 () in
  Alcotest.(check bool) "insert" true (Cuckoo.insert c 42);
  Alcotest.(check bool) "member" true (Cuckoo.member c 42);
  Alcotest.(check int) "size" 1 (Cuckoo.size c);
  Alcotest.(check bool) "delete" true (Cuckoo.delete c 42);
  Alcotest.(check bool) "gone" false (Cuckoo.member c 42);
  Alcotest.(check int) "empty" 0 (Cuckoo.size c);
  Alcotest.(check bool) "delete absent" false (Cuckoo.delete c 42)

let test_cuckoo_delete_one_copy () =
  let c = Cuckoo.create ~capacity:64 () in
  Alcotest.(check bool) "first copy" true (Cuckoo.insert c 7);
  Alcotest.(check bool) "second copy" true (Cuckoo.insert c 7);
  Alcotest.(check int) "two slots" 2 (Cuckoo.size c);
  Alcotest.(check bool) "delete one" true (Cuckoo.delete c 7);
  Alcotest.(check bool) "still member" true (Cuckoo.member c 7);
  Alcotest.(check bool) "delete other" true (Cuckoo.delete c 7);
  Alcotest.(check bool) "now gone" false (Cuckoo.member c 7)

let test_cuckoo_resource_per_entry () =
  let small = Cuckoo.resource (Cuckoo.create ~capacity:256 ()) in
  let large = Cuckoo.resource (Cuckoo.create ~capacity:4096 ()) in
  Alcotest.(check bool) "sram grows with capacity" true
    (large.Resource.sram_kb >= 8. *. small.Resource.sram_kb);
  Alcotest.(check (float 0.)) "no tcam" 0. large.Resource.tcam

let test_cuckoo_absorb_union () =
  let a = Cuckoo.create ~capacity:128 () in
  let b = Cuckoo.create ~capacity:128 () in
  for k = 0 to 39 do
    ignore (Cuckoo.insert a k)
  done;
  for k = 100 to 139 do
    ignore (Cuckoo.insert b k)
  done;
  Cuckoo.absorb b (Cuckoo.serialize a);
  for k = 0 to 39 do
    Alcotest.(check bool) "migrated member" true (Cuckoo.member b k)
  done;
  for k = 100 to 139 do
    Alcotest.(check bool) "resident member" true (Cuckoo.member b k)
  done

let test_cuckoo_absorb_overflow_stashes () =
  (* both filters nearly full: the union cannot fit, but membership must
     survive anyway — overflow goes to the stash, never to the floor *)
  let a = Cuckoo.create ~capacity:64 ~fp_bits:8 () in
  let b = Cuckoo.create ~capacity:64 ~fp_bits:8 () in
  for k = 0 to 57 do
    ignore (Cuckoo.insert a k)
  done;
  for k = 1000 to 1057 do
    ignore (Cuckoo.insert b k)
  done;
  Cuckoo.absorb b (Cuckoo.serialize a);
  Alcotest.(check bool) "stash used" true (Cuckoo.stash_size b > 0);
  for k = 0 to 57 do
    Alcotest.(check bool) "migrated member survives overflow" true (Cuckoo.member b k)
  done

let test_cuckoo_absorb_geometry_mismatch () =
  let a = Cuckoo.create ~capacity:64 () in
  let b = Cuckoo.create ~capacity:128 () in
  Alcotest.check_raises "geometry mismatch"
    (Invalid_argument "Cuckoo.absorb: geometry/seed mismatch") (fun () ->
      Cuckoo.absorb b (Cuckoo.serialize a))

let prop_cuckoo_no_false_negatives =
  QCheck.Test.make ~name:"cuckoo: never a false negative vs oracle"
    ~count:(ck_count 100)
    QCheck.(list_of_size (Gen.int_range 0 300) (pair (int_range 0 500) bool))
    (fun ops ->
      let c = Cuckoo.create ~capacity:1024 () in
      let o = Cuckoo_ref.create () in
      List.iter
        (fun (key, del) ->
          if del && Cuckoo_ref.member o key then begin
            (* deletions mirror tracker usage: only keys actually held *)
            let ok = Cuckoo.delete c key in
            ignore (Cuckoo_ref.delete o key);
            if not ok then failwith "delete of held key failed"
          end
          else if not del then if Cuckoo.insert c key then Cuckoo_ref.insert o key)
        ops;
      List.for_all (Cuckoo.member c) (Cuckoo_ref.keys o))

let prop_cuckoo_delete_exactly_one =
  QCheck.Test.make ~name:"cuckoo: deletion removes exactly one copy"
    ~count:(ck_count 100)
    QCheck.(list_of_size (Gen.int_range 1 100) (int_range 0 30))
    (fun keys ->
      let c = Cuckoo.create ~capacity:1024 () in
      let o = Cuckoo_ref.create () in
      List.iter
        (fun k -> if Cuckoo.insert c k then Cuckoo_ref.insert o k)
        keys;
      (* drain each key one copy at a time; sizes must track in lockstep *)
      List.for_all
        (fun k ->
          let copies = Cuckoo_ref.count o k in
          let ok = ref true in
          for _ = 1 to copies do
            let before = Cuckoo.size c in
            ok := !ok && Cuckoo.delete c k && Cuckoo.size c = before - 1;
            ignore (Cuckoo_ref.delete o k)
          done;
          !ok)
        (List.sort_uniq compare keys)
      && Cuckoo.size c = 0)

let prop_cuckoo_fp_within_analytic_bound =
  QCheck.Test.make ~name:"cuckoo: observed fp rate within 2x analytic bound"
    ~count:(ck_count 10)
    QCheck.(int_range 0 10_000)
    (fun key_base ->
      (* narrow 8-bit fingerprints make the analytic rate large enough to
         measure against 2000 probes without sampling noise dominating *)
      let c = Cuckoo.create ~fp_bits:8 ~capacity:1024 () in
      let inserted = 768 (* load 0.75 *) in
      for k = key_base to key_base + inserted - 1 do
        ignore (Cuckoo.insert c k)
      done;
      let fps = ref 0 in
      let probes = 2000 in
      for k = key_base + 100_000 to key_base + 100_000 + probes - 1 do
        if Cuckoo.member c k then incr fps
      done;
      let analytic = Cuckoo.expected_fp_rate c in
      float_of_int !fps /. float_of_int probes <= (2. *. analytic) +. 0.01)

let prop_cuckoo_no_insert_fail_below_threshold =
  QCheck.Test.make ~name:"cuckoo: inserts never fail below occupancy threshold"
    ~count:(ck_count 50)
    QCheck.(pair (int_range 0 100_000) (int_range 1 972))
    (fun (key_base, n) ->
      (* 972 = floor(0.95 * 1024): distinct keys up to the documented
         threshold must always place, kicks included *)
      let c = Cuckoo.create ~capacity:1024 () in
      let all_ok = ref true in
      for k = key_base to key_base + n - 1 do
        all_ok := !all_ok && Cuckoo.insert c k
      done;
      !all_ok && Cuckoo.failed_inserts c = 0
      && Cuckoo.occupancy c <= Cuckoo.occupancy_threshold)

let prop_cuckoo_serialize_roundtrip =
  QCheck.Test.make ~name:"cuckoo: serialize/absorb into empty preserves members"
    ~count:(ck_count 100)
    QCheck.(list_of_size (Gen.int_range 0 200) (int_range 0 1000))
    (fun keys ->
      let c = Cuckoo.create ~capacity:512 () in
      let inserted = List.filter (Cuckoo.insert c) keys in
      let d = Cuckoo.create ~capacity:512 () in
      Cuckoo.absorb d (Cuckoo.serialize c);
      Cuckoo.size d = Cuckoo.size c && List.for_all (Cuckoo.member d) inserted)

(* ---------------- PPM IR analysis ---------------- *)

let sample_spec =
  Ppm.make_spec ~name:"s" ~booster:"b" ~role:Ppm.Detection
    ~resources:(Resource.make ~stages:1. ())
    [
      Ppm.Set_meta ("m", Ppm.Reg_read ("counts", Ppm.Hash [ "src" ]));
      Ppm.Reg_write ("counts", Ppm.Hash [ "src" ], Ppm.Binop (Ppm.Add, Ppm.Meta "m", Ppm.Const 1.));
      Ppm.If
        ( Ppm.Cmp (Ppm.Gt, Ppm.Meta "m", Ppm.Const 10.),
          [ Ppm.Reg_write ("alarms", Ppm.Const 0., Ppm.Const 1.) ],
          [] );
    ]

let test_ppm_reads_writes () =
  Alcotest.(check (list string)) "reads" [ "counts" ] (Ppm.registers_read sample_spec);
  Alcotest.(check (list string)) "writes" [ "alarms"; "counts" ]
    (Ppm.registers_written sample_spec)

let test_ppm_state_shared () =
  let reader =
    Ppm.make_spec ~name:"r" ~booster:"b" ~role:Ppm.Mitigation ~resources:Resource.zero
      [ Ppm.Drop_when (Ppm.Cmp (Ppm.Gt, Ppm.Reg_read ("alarms", Ppm.Const 0.), Ppm.Const 0.)) ]
  in
  Alcotest.(check (list string)) "shared register" [ "alarms" ]
    (Ppm.state_shared sample_spec reader)

let test_ppm_body_size () =
  Alcotest.(check int) "statements counted recursively" 4 (Ppm.body_size sample_spec)

let () =
  let qcheck =
    List.map Test_seed.to_alcotest
      [
        prop_sketch_upper_bound;
        prop_bloom_membership;
        prop_cuckoo_no_false_negatives;
        prop_cuckoo_delete_exactly_one;
        prop_cuckoo_fp_within_analytic_bound;
        prop_cuckoo_no_insert_fail_below_threshold;
        prop_cuckoo_serialize_roundtrip;
      ]
  in
  Alcotest.run "ff_dataplane"
    [
      ( "packet",
        [
          Alcotest.test_case "defaults" `Quick test_packet_defaults;
          Alcotest.test_case "unique uids" `Quick test_packet_uids_unique;
          Alcotest.test_case "constructors allocate one block" `Quick
            test_packet_constructor_words;
        ] );
      ( "resource",
        [
          Alcotest.test_case "arithmetic" `Quick test_resource_arith;
          Alcotest.test_case "fits" `Quick test_resource_fits;
          Alcotest.test_case "dominant share" `Quick test_dominant_share;
        ] );
      ( "registers",
        [
          Alcotest.test_case "array register" `Quick test_array_reg;
          Alcotest.test_case "dump/load" `Quick test_array_reg_dump_load;
          Alcotest.test_case "meter" `Quick test_meter;
          Alcotest.test_case "meter/allow allocation-free" `Quick test_meter_no_alloc;
        ] );
      ( "sketch",
        [
          Alcotest.test_case "never underestimates" `Quick test_sketch_never_underestimates;
          Alcotest.test_case "sparse exact" `Quick test_sketch_exact_when_sparse;
          Alcotest.test_case "merge" `Quick test_sketch_merge;
          Alcotest.test_case "merge incompatible" `Quick test_sketch_merge_incompatible;
          Alcotest.test_case "serialize/absorb" `Quick test_sketch_serialize_absorb;
          Alcotest.test_case "roundtrip total exact" `Quick
            test_sketch_roundtrip_total_exact;
        ] );
      ( "bloom",
        [
          Alcotest.test_case "no false negatives" `Quick test_bloom_no_false_negatives;
          Alcotest.test_case "fp rate" `Quick test_bloom_fp_rate_reasonable;
          Alcotest.test_case "reset" `Quick test_bloom_reset;
        ] );
      ( "hashpipe",
        [
          Alcotest.test_case "tracks heavy keys" `Quick test_hashpipe_tracks_heavy;
          Alcotest.test_case "no overestimate" `Quick test_hashpipe_no_overestimate;
          Alcotest.test_case "reset" `Quick test_hashpipe_reset;
        ] );
      ( "cuckoo",
        [
          Alcotest.test_case "basics" `Quick test_cuckoo_basics;
          Alcotest.test_case "delete one copy" `Quick test_cuckoo_delete_one_copy;
          Alcotest.test_case "per-entry resource" `Quick test_cuckoo_resource_per_entry;
          Alcotest.test_case "absorb union" `Quick test_cuckoo_absorb_union;
          Alcotest.test_case "absorb overflow stashes" `Quick
            test_cuckoo_absorb_overflow_stashes;
          Alcotest.test_case "absorb geometry mismatch" `Quick
            test_cuckoo_absorb_geometry_mismatch;
        ] );
      ( "ppm",
        [
          Alcotest.test_case "reads/writes" `Quick test_ppm_reads_writes;
          Alcotest.test_case "state shared" `Quick test_ppm_state_shared;
          Alcotest.test_case "body size" `Quick test_ppm_body_size;
        ] );
      ("properties", qcheck);
    ]
