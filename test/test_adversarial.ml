(* Tests for the closed-loop adaptive-adversary arena: seeded
   determinism of the full attacker-vs-defense runs, the offered-load
   hysteresis flap regression, exact-totals hash rotation, and the
   strategic chaos hook. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Hashpipe = Ff_dataplane.Hashpipe
module B = Ff_boosters
module Scenario = Fastflex.Scenario
module Adaptive = Ff_attacks.Adaptive

(* ---------------- seeded determinism ---------------- *)

(* The whole adversarial arena — attacker decisions, defense draws,
   damage integral — must replay bit-for-bit from the seed. Float
   results are compared by bit pattern, not tolerance. *)
let check_replay ~strategy ~hardened () =
  let run () =
    Scenario.run_adversarial ~strategy ~adversary:Scenario.Closed_loop ~hardened ~seed:5
      ~duration:30. ()
  in
  let a = run () and b = run () in
  Alcotest.(check int) "fingerprint" a.Scenario.ar_fingerprint b.Scenario.ar_fingerprint;
  Alcotest.(check int) "probes" a.Scenario.ar_probes b.Scenario.ar_probes;
  Alcotest.(check int) "drops" a.Scenario.ar_drops b.Scenario.ar_drops;
  Alcotest.(check int64) "damage bits"
    (Int64.bits_of_float a.Scenario.ar_damage)
    (Int64.bits_of_float b.Scenario.ar_damage);
  Alcotest.(check int64) "work-factor bits"
    (Int64.bits_of_float a.Scenario.ar_work_factor)
    (Int64.bits_of_float b.Scenario.ar_work_factor)

let test_replay_collision_probe () =
  check_replay ~strategy:Adaptive.Collision_probe ~hardened:false ()

let test_replay_epoch_time_hardened () =
  check_replay ~strategy:Adaptive.Epoch_time ~hardened:true ()

(* ---------------- pinned arena ---------------- *)

(* Absolute values of every arena at seed 5 over 30 s: each strategy
   open-loop, adaptive and adaptive+hardened. The replay tests above only
   compare a run with itself; these pin what a run computes, so a refactor
   of the arena's defenses or driver must reproduce them exactly.
   (fingerprint, probes, drops, alarms, rotations, damage bits,
   work-factor bits) *)
let pins =
  [ (Adaptive.Threshold_hug, `Open_loop,
     (0, 0, 66477, 2, 0, 4598589176011505505L, 4626322717216342016L));
    (Adaptive.Threshold_hug, `Adaptive,
     (246995636023125780, 5728, 2377, 4, 0, 4603232365610046276L, 4682608916465451008L));
    (Adaptive.Threshold_hug, `Hardened,
     (301998619134245291, 6006, 1537, 2, 0, 4577624739602110759L, 4682990996756103168L));
    (Adaptive.Collision_probe, `Open_loop,
     (0, 0, 14180, 1, 0, 4598485528368241350L, 4626322717216342016L));
    (Adaptive.Collision_probe, `Adaptive,
     (2143207516101578501, 1750, 356, 1, 0, 4612023002971665689L, 4670587680961069064L));
    (Adaptive.Collision_probe, `Hardened,
     (2029806192819683312, 13580, 11051, 3, 59, 0L, 4688409664935690240L));
    (Adaptive.Epoch_time, `Open_loop,
     (0, 0, 23638, 1, 0, 4598477861440235714L, 4626322717216342016L));
    (Adaptive.Epoch_time, `Adaptive,
     (4000218137404176391, 1198, 110, 7, 0, 4599032704914327758L, 4672315288606212096L));
    (Adaptive.Epoch_time, `Hardened,
     (2092383551994753992, 2143, 1995, 3, 59, 0L, 4676123447129014272L)) ]

let test_pinned_arenas () =
  List.iter
    (fun (strategy, which, (fingerprint, probes, drops, alarms, rotations, damage, wf)) ->
      let adversary, hardened =
        match which with
        | `Open_loop -> (Scenario.Open_loop, false)
        | `Adaptive -> (Scenario.Closed_loop, false)
        | `Hardened -> (Scenario.Closed_loop, true)
      in
      let r = Scenario.run_adversarial ~strategy ~adversary ~hardened ~seed:5 ~duration:30. () in
      let tag field =
        Printf.sprintf "%s %s %s" (Adaptive.strategy_name strategy)
          (match which with
          | `Open_loop -> "open-loop"
          | `Adaptive -> "adaptive"
          | `Hardened -> "adaptive+hardened")
          field
      in
      Alcotest.(check int) (tag "fingerprint") fingerprint r.Scenario.ar_fingerprint;
      Alcotest.(check int) (tag "probes") probes r.Scenario.ar_probes;
      Alcotest.(check int) (tag "drops") drops r.Scenario.ar_drops;
      Alcotest.(check int) (tag "alarms") alarms r.Scenario.ar_alarms;
      Alcotest.(check int) (tag "rotations") rotations r.Scenario.ar_rotations;
      Alcotest.(check int64) (tag "damage bits") damage (Int64.bits_of_float r.Scenario.ar_damage);
      Alcotest.(check int64) (tag "work-factor bits") wf
        (Int64.bits_of_float r.Scenario.ar_work_factor))
    pins

(* ---------------- offered-load hysteresis flap regression -------- *)

(* A demand oscillating +-1% around the alarm threshold must produce at
   most one alarm and no clears: the alarm rises on the first upward
   crossing, and clearing requires the *offered* load to subside below
   the low threshold (high - 0.05), which a 1% dip never reaches. A
   detector without hysteresis (or one clearing on transmitted
   utilization once mitigation sheds load) flaps an alarm/clear pair on
   every crossing. *)
let test_hysteresis_no_flap () =
  let lm = T.Fig2.build ~bots:8 ~normals:4 () in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  Net.install_shortest_paths net;
  let watched =
    List.map
      (fun (l : T.link) ->
        if l.T.a = lm.T.Fig2.agg then (l.T.a, l.T.b) else (l.T.b, l.T.a))
      lm.T.Fig2.critical
  in
  let alarms = ref 0 and clears = ref 0 in
  let (_ : B.Lfa_detector.t) =
    B.Lfa_detector.install net ~sw:lm.T.Fig2.agg ~watched ~check_period:0.05
      ~threshold_jitter:0. ~seed:0x1FA_D ~min_age:2.0 ~clear_hold:3.0
      ~on_alarm:(fun _ -> incr alarms)
      ~on_clear:(fun _ -> incr clears)
  in
  let bot = List.hd lm.T.Fig2.bot_sources in
  let decoy = List.hd lm.T.Fig2.decoys in
  (* 10 Mb/s critical link: 8.4 Mb/s steady + a 0.2 Mb/s square wave
     oscillates the load 0.84 <-> 0.86 across the 0.85 threshold every
     second for ten seconds *)
  ignore (Flow.Cbr.start net ~src:bot ~dst:decoy ~rate_pps:1050. ~at:0.1 ());
  ignore
    (Flow.Cbr.start net ~src:bot ~dst:decoy ~rate_pps:25. ~at:0.1 ~pulse_period:1.0
       ~pulse_duty:0.5 ());
  Engine.run engine ~until:12.;
  Alcotest.(check int) "one alarm" 1 !alarms;
  Alcotest.(check int) "no clears" 0 !clears

(* ---------------- hash rotation preserves totals ---------------- *)

(* Re-salting the HashPipe mid-epoch must not disturb the resident
   accounting: the full-scan views (heavy_hitters, resident_keys) must
   be exactly identical across a reseed, whatever was inserted before
   it. (Only [count]'s point probe may miss, which is why the booster
   rotates at epoch boundaries.) *)
let rotation_totals_exact =
  QCheck2.Test.make ~count:200 ~name:"hashpipe reseed preserves resident totals"
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 300) (pair (int_range 0 50) (int_range 1 10)))
        small_int small_int)
    (fun (updates, pipe_seed, new_salt) ->
      let pipe = Hashpipe.create ~stages:2 ~slots_per_stage:8 () in
      Hashpipe.reseed pipe pipe_seed;
      List.iter
        (fun (key, w) -> Hashpipe.update pipe ~key ~weight:(float_of_int w))
        updates;
      let snapshot p =
        ( List.sort compare (Hashpipe.heavy_hitters p ~threshold:0.),
          List.sort compare (Hashpipe.resident_keys p) )
      in
      let before = snapshot pipe in
      Hashpipe.reseed pipe new_salt;
      let after = snapshot pipe in
      before = after)

(* ---------------- strategic chaos hook ---------------- *)

(* Chaos.strategic polls a decision function and applies what it
   returns: faults land when the attacker's belief state says so, not
   on a prescheduled clock. *)
let test_strategic_hook () =
  let lm = T.Fig2.build () in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  let chaos = Ff_chaos.Chaos.create net in
  let d = List.hd lm.T.Fig2.detour in
  let trigger = ref false in
  Ff_chaos.Chaos.strategic chaos ~period:0.5 ~start:1.0 ~until:6.0 ~decide:(fun () ->
      if !trigger then begin
        trigger := false;
        [ Ff_chaos.Chaos.Switch_down d ]
      end
      else []);
  Engine.after engine ~delay:2.2 (fun () -> trigger := true);
  Engine.run engine ~until:8.;
  Alcotest.(check int) "one action applied" 1 (Ff_chaos.Chaos.injected chaos);
  (match Ff_chaos.Chaos.log chaos with
  | [ (at, Ff_chaos.Chaos.Switch_down sw) ] ->
    Alcotest.(check int) "targeted switch" d sw;
    Alcotest.(check bool) "after the trigger, on the poll grid" true (at >= 2.2 && at <= 3.0)
  | l -> Alcotest.failf "unexpected log (%d entries)" (List.length l));
  Alcotest.(check bool) "switch is down" false (Net.switch_is_up net ~sw:d)

let () =
  Alcotest.run "ff_adversarial"
    [
      ( "determinism",
        [
          Alcotest.test_case "collision-probe replays bit-for-bit" `Quick
            test_replay_collision_probe;
          Alcotest.test_case "hardened epoch-time replays bit-for-bit" `Quick
            test_replay_epoch_time_hardened;
          Alcotest.test_case "arenas match their pinned values" `Quick test_pinned_arenas;
        ] );
      ( "hysteresis",
        [ Alcotest.test_case "threshold oscillation does not flap" `Quick
            test_hysteresis_no_flap ] );
      ("rotation", [ Test_seed.to_alcotest rotation_totals_exact ]);
      ("chaos", [ Alcotest.test_case "strategic hook" `Quick test_strategic_hook ]);
    ]
