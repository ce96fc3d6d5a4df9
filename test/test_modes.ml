(* Tests for Ff_modes: the distributed mode-change protocol and the
   detection-sync service. The model checker over the protocol's switch
   transition is in test_explore.ml. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet
module Protocol = Ff_modes.Protocol

let ring_net n =
  let topo = T.ring ~n () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  (topo, engine, net)

let modes_for = function
  | Packet.Lfa -> [ "reroute"; "obfuscate" ]
  | Packet.Volumetric -> [ "drop" ]
  | Packet.Pulsing -> [ "reroute" ]
  | Packet.Recon -> [ "obfuscate" ]
  | Packet.Synflood -> [ "syn_guard" ]

let test_alarm_propagates () =
  let _, engine, net = ring_net 6 in
  let p = Protocol.create net ~modes_for () in
  Protocol.raise_alarm p ~sw:0 Packet.Lfa;
  Engine.run engine ~until:1.;
  List.iter
    (fun sw ->
      Alcotest.(check bool)
        (Printf.sprintf "switch %d rerouting" sw)
        true (Protocol.active p ~sw "reroute");
      Alcotest.(check bool)
        (Printf.sprintf "switch %d obfuscating" sw)
        true
        (Protocol.active p ~sw "obfuscate"))
    (Net.switch_ids net);
  Alcotest.(check int) "six activations logged" 6 (List.length (Protocol.log p));
  Alcotest.(check bool) "flag bit set" true
    (Net.flag_on (Net.switch net 3) ~mask:(Net.flag_mask (Protocol.mode_var "reroute")))

let test_region_ttl_bounds_propagation () =
  (* a long ring with a small region ttl: far switches stay in default *)
  let _, engine, net = ring_net 12 in
  let p = Protocol.create net ~region_ttl:3 ~modes_for () in
  Protocol.raise_alarm p ~sw:0 Packet.Lfa;
  Engine.run engine ~until:1.;
  Alcotest.(check bool) "near switch active" true (Protocol.active p ~sw:1 "reroute");
  Alcotest.(check bool) "antipode stays default" false (Protocol.active p ~sw:6 "reroute")

let test_clear_after_dwell () =
  let _, engine, net = ring_net 4 in
  let p = Protocol.create net ~min_dwell:1.0 ~modes_for () in
  ignore net;
  Protocol.raise_alarm p ~sw:0 Packet.Lfa;
  Engine.run engine ~until:0.1;
  (* a re-raise while active changes nothing, but the counter sees it *)
  Protocol.raise_alarm p ~sw:0 Packet.Lfa;
  Alcotest.(check int) "every raise counted" 2 (Protocol.raises p);
  (* immediate clear: blocked by the dwell, applied when it expires *)
  Protocol.clear_alarm p ~sw:0 Packet.Lfa;
  Engine.run engine ~until:0.5;
  Alcotest.(check bool) "still active during dwell" true (Protocol.active p ~sw:0 "reroute");
  Engine.run engine ~until:3.;
  Alcotest.(check bool) "cleared after dwell" false (Protocol.active p ~sw:0 "reroute");
  Alcotest.(check bool) "cleared everywhere" false (Protocol.active_anywhere p "reroute");
  Alcotest.(check int) "clears are not raises" 2 (Protocol.raises p)

let test_stale_epoch_ignored () =
  let _, engine, net = ring_net 4 in
  let p = Protocol.create net ~min_dwell:0.1 ~modes_for () in
  Protocol.raise_alarm p ~sw:0 Packet.Lfa;
  Engine.run engine ~until:1.;
  Protocol.clear_alarm p ~sw:0 Packet.Lfa;
  Engine.run engine ~until:2.;
  Alcotest.(check bool) "cleared" false (Protocol.active p ~sw:2 "reroute");
  (* replay the original activation probe: its epoch is stale *)
  let stale =
    Packet.make ~src:0 ~dst:0 ~flow:0
      ~payload:(Packet.Mode_probe
                  { attack = Packet.Lfa; epoch = 1; origin = 0; activate = true; region_ttl = 8 })
      ()
  in
  Net.inject_at_switch net ~sw:2 stale;
  Engine.run engine ~until:3.;
  Alcotest.(check bool) "stale epoch has no effect" false (Protocol.active p ~sw:2 "reroute")

let test_coexisting_modes () =
  (* mixed attack vectors: different modes active at different regions *)
  let _, engine, net = ring_net 8 in
  let p = Protocol.create net ~region_ttl:2 ~modes_for () in
  Protocol.raise_alarm p ~sw:0 Packet.Lfa;
  Protocol.raise_alarm p ~sw:4 Packet.Volumetric;
  Engine.run engine ~until:1.;
  Alcotest.(check bool) "lfa modes near 0" true (Protocol.active p ~sw:0 "reroute");
  Alcotest.(check bool) "volumetric modes near 4" true (Protocol.active p ~sw:4 "drop");
  Alcotest.(check bool) "attack state queryable" true (Protocol.attack_active p ~sw:0 Packet.Lfa);
  (* the two switch-sets are mostly disjoint *)
  let reroute_sws = Protocol.switches_with_mode p "reroute" in
  Alcotest.(check bool) "region scoped" false (List.mem 4 reroute_sws)

let test_flap_holddown_grows () =
  let _, engine, net = ring_net 4 in
  let p = Protocol.create net ~min_dwell:0.2 ~flap_window:60. ~modes_for () in
  ignore net;
  (* attacker tries to force mode oscillation *)
  for _ = 1 to 4 do
    Protocol.raise_alarm p ~sw:0 Packet.Lfa;
    let t = Engine.now engine +. 0.3 in
    Engine.schedule engine ~at:t (fun () -> Protocol.clear_alarm p ~sw:0 Packet.Lfa);
    Engine.run engine ~until:(t +. 3.)
  done;
  Alcotest.(check bool) "hold-down escalated" true (Protocol.current_dwell p Packet.Lfa > 0.2);
  Alcotest.(check bool) "epochs advanced" true (Protocol.epoch p Packet.Lfa >= 8)

let test_flap_list_bounded () =
  (* regression: with a very long flap window, sustained oscillation used
     to grow the activation-timestamp list without bound. It is now capped
     at the depth where the holddown saturates at max_holddown. *)
  let _, engine, net = ring_net 4 in
  let p =
    Protocol.create net ~min_dwell:0.2 ~flap_window:1e9 ~max_holddown:16. ~modes_for ()
  in
  ignore net;
  for _ = 1 to 40 do
    Protocol.raise_alarm p ~sw:0 Packet.Lfa;
    let t = Engine.now engine +. 0.3 in
    Engine.schedule engine ~at:t (fun () -> Protocol.clear_alarm p ~sw:0 Packet.Lfa);
    Engine.run engine ~until:(t +. 20.)
  done;
  (* 2 + ceil(log2(16/0.2)) = 9 *)
  let entries = Protocol.flap_entries p Packet.Lfa in
  Alcotest.(check bool)
    (Printf.sprintf "flap list capped (%d <= 9)" entries)
    true
    (entries <= 9);
  Alcotest.(check bool) "holddown saturated" true
    (Protocol.current_dwell p Packet.Lfa = 16.)

let test_overlapping_attacks_share_mode () =
  (* Lfa and Pulsing both map to "reroute": clearing one must keep it *)
  let _, engine, net = ring_net 4 in
  let p = Protocol.create net ~min_dwell:0.1 ~modes_for () in
  ignore net;
  Protocol.raise_alarm p ~sw:0 Packet.Lfa;
  Protocol.raise_alarm p ~sw:0 Packet.Pulsing;
  Engine.run engine ~until:1.;
  Protocol.clear_alarm p ~sw:0 Packet.Lfa;
  Engine.run engine ~until:2.;
  Alcotest.(check bool) "reroute kept by pulsing" true (Protocol.active p ~sw:0 "reroute");
  Alcotest.(check bool) "obfuscate dropped with lfa" false (Protocol.active p ~sw:0 "obfuscate");
  Protocol.clear_alarm p ~sw:0 Packet.Pulsing;
  Engine.run engine ~until:3.;
  Alcotest.(check bool) "reroute cleared at last" false (Protocol.active p ~sw:0 "reroute")

(* Every out-of-range parameter is refused by name, before a stage is
   installed. A zero dwell is the one that matters most: the hold-down is
   dwell * 2^k, so nothing would damp an attacker's flapping. *)
let test_create_rejects_out_of_range () =
  let rejects what create =
    let _, _, net = ring_net 4 in
    match create net with
    | (_ : Protocol.t) -> Alcotest.failf "%s accepted" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (Printf.sprintf "%S names %s" msg what) true
        (String.starts_with ~prefix:("Protocol.create: " ^ what) msg)
  in
  rejects "min_dwell" (fun net -> Protocol.create net ~min_dwell:0. ~modes_for ());
  rejects "min_dwell" (fun net -> Protocol.create net ~min_dwell:(-1.) ~modes_for ());
  rejects "min_dwell" (fun net -> Protocol.create net ~min_dwell:nan ~modes_for ());
  rejects "min_dwell" (fun net ->
      Protocol.create net ~min_dwell:infinity ~max_holddown:infinity ~modes_for ());
  rejects "region_ttl" (fun net -> Protocol.create net ~region_ttl:(-1) ~modes_for ());
  rejects "flap_window" (fun net -> Protocol.create net ~flap_window:(-1.) ~modes_for ());
  rejects "flap_window" (fun net -> Protocol.create net ~flap_window:nan ~modes_for ());
  rejects "flap_window" (fun net -> Protocol.create net ~flap_window:infinity ~modes_for ());
  rejects "max_holddown" (fun net ->
      Protocol.create net ~min_dwell:2. ~max_holddown:1. ~modes_for ());
  rejects "max_holddown" (fun net -> Protocol.create net ~max_holddown:nan ~modes_for ());
  rejects "anti_entropy" (fun net -> Protocol.create net ~anti_entropy:nan ~modes_for ());
  rejects "anti_entropy" (fun net -> Protocol.create net ~anti_entropy:infinity ~modes_for ());
  (* the edges stay accepted: no region, no flap memory, anti-entropy off *)
  let _, _, net = ring_net 4 in
  ignore
    (Protocol.create net ~region_ttl:0 ~flap_window:0. ~min_dwell:0.5 ~max_holddown:0.5
       ~anti_entropy:(-1.) ~modes_for ())

(* ---------------- Detection synchronization ---------------- *)

module Sync = Ff_modes.Sync

let test_sync_views_converge () =
  let _, engine, net = ring_net 6 in
  (* two participants with static local views *)
  let views = Hashtbl.create 4 in
  Hashtbl.replace views 0 [ (100, 5.); (200, 1.) ];
  Hashtbl.replace views 3 [ (100, 7.) ];
  let sync =
    Sync.create net ~participants:[ 0; 3 ] ~period:0.2
      ~local_view:(fun ~sw -> try Hashtbl.find views sw with Not_found -> [])
      ()
  in
  Engine.run engine ~until:2.;
  Alcotest.(check (float 0.01)) "switch 0 sees the global sum" 12.
    (Sync.global_value sync ~sw:0 ~key:100);
  Alcotest.(check (float 0.01)) "switch 3 sees the global sum" 12.
    (Sync.global_value sync ~sw:3 ~key:100);
  Alcotest.(check (float 0.01)) "remote part at 0" 7.
    (Sync.remote_contribution sync ~sw:0 ~key:100);
  Alcotest.(check (float 0.01)) "key known only at one origin" 1.
    (Sync.global_value sync ~sw:3 ~key:200);
  Alcotest.(check bool) "rounds advanced" true (Sync.rounds sync >= 5);
  (* non-participants also hear the probes (they flood) *)
  Alcotest.(check (float 0.01)) "observer switch sums remotes" 12.
    (Sync.remote_contribution sync ~sw:1 ~key:100)

let test_sync_staleness_expires () =
  let _, engine, net = ring_net 4 in
  let live = ref true in
  let sync =
    Sync.create net ~participants:[ 0; 2 ] ~period:0.2 ~staleness:0.5
      ~local_view:(fun ~sw -> if sw = 0 && !live then [ (7, 4.) ] else [])
      ()
  in
  Engine.run engine ~until:1.;
  Alcotest.(check (float 0.01)) "advert heard" 4. (Sync.global_value sync ~sw:2 ~key:7);
  live := false;
  Engine.run engine ~until:3.;
  Alcotest.(check (float 0.01)) "stale advert expired" 0.
    (Sync.global_value sync ~sw:2 ~key:7)

let test_sync_threshold_suppresses () =
  let _, engine, net = ring_net 4 in
  let sync =
    Sync.create net ~participants:[ 0; 2 ] ~period:0.2 ~threshold:10.
      ~local_view:(fun ~sw -> if sw = 0 then [ (1, 3.) ] else [])
      ()
  in
  Engine.run engine ~until:1.5;
  (* below threshold: not advertised, so the remote sees nothing *)
  Alcotest.(check (float 0.01)) "small entries not synced" 0.
    (Sync.remote_contribution sync ~sw:2 ~key:1)

let test_sync_classes_isolated () =
  let _, engine, net = ring_net 4 in
  (* two participants per class, each class's view held at one of them *)
  let s1 =
    Sync.create net ~participants:[ 0; 2 ] ~period:0.2 ~probe_class:5
      ~local_view:(fun ~sw -> if sw = 0 then [ (1, 100.) ] else [])
      ()
  in
  let s2 =
    Sync.create net ~participants:[ 2; 0 ] ~period:0.2 ~probe_class:6
      ~local_view:(fun ~sw -> if sw = 2 then [ (1, 7.) ] else [])
      ()
  in
  Engine.run engine ~until:1.5;
  Alcotest.(check (float 0.01)) "class 5 sees only class 5" 100.
    (Sync.global_value s1 ~sw:1 ~key:1);
  Alcotest.(check (float 0.01)) "class 6 sees only class 6" 7.
    (Sync.global_value s2 ~sw:1 ~key:1)

(* A lone participant has no peer: it floods nothing, and its own global
   view is still its local one. *)
let test_sync_lone_participant_silent () =
  let _, engine, net = ring_net 4 in
  let sync =
    Sync.create net ~participants:[ 0 ] ~period:0.2
      ~local_view:(fun ~sw:_ -> [ (1, 100.); (2, 3.) ])
      ()
  in
  Engine.run engine ~until:1.5;
  Alcotest.(check int) "no probes" 0 (Sync.probes_sent sync);
  Alcotest.(check (list (pair int (float 0.)))) "own view intact" [ (1, 100.); (2, 3.) ]
    (Sync.global_view sync ~sw:0);
  Alcotest.(check (float 0.)) "nothing reached a neighbour" 0.
    (Sync.remote_contribution sync ~sw:1 ~key:1)

(* Random alarm/clear sequences: afterwards, with enough settle time,
   every switch's mode vars agree with its active-attack set, and if the
   last action was a clear followed by quiescence the network returns to
   default. *)
let prop_protocol_vars_consistent =
  QCheck.Test.make ~name:"mode vars mirror active attacks after any alarm/clear sequence"
    ~count:30
    QCheck.(list_of_size (Gen.int_range 1 8) (pair bool (int_range 0 3)))
    (fun script ->
      let topo = T.ring ~n:5 () in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      let p = Protocol.create net ~min_dwell:0.1 ~modes_for () in
      let attack_of = function
        | 0 -> Packet.Lfa
        | 1 -> Packet.Volumetric
        | 2 -> Packet.Pulsing
        | _ -> Packet.Recon
      in
      List.iteri
        (fun i (raise_it, a) ->
          Engine.schedule engine
            ~at:(float_of_int i *. 2.)
            (fun () ->
              if raise_it then Protocol.raise_alarm p ~sw:0 (attack_of a)
              else Protocol.clear_alarm p ~sw:0 (attack_of a)))
        script;
      Engine.run engine ~until:(float_of_int (List.length script) *. 2. +. 10.);
      (* consistency: a mode var is set iff some active attack maps to it *)
      List.for_all
        (fun sw ->
          List.for_all
            (fun mode ->
              let var = Protocol.active p ~sw mode in
              let derived =
                List.exists
                  (fun a -> Protocol.attack_active p ~sw a && List.mem mode (modes_for a))
                  Packet.all_attack_kinds
              in
              var = derived)
            [ "reroute"; "obfuscate"; "drop" ])
        (Net.switch_ids net))

let () =
  let qcheck =
    List.map Test_seed.to_alcotest
      [ prop_protocol_vars_consistent ]
  in
  Alcotest.run "ff_modes"
    [
      ( "protocol",
        [
          Alcotest.test_case "alarm propagates" `Quick test_alarm_propagates;
          Alcotest.test_case "region ttl bounds" `Quick test_region_ttl_bounds_propagation;
          Alcotest.test_case "clear after dwell" `Quick test_clear_after_dwell;
          Alcotest.test_case "stale epoch ignored" `Quick test_stale_epoch_ignored;
          Alcotest.test_case "coexisting modes" `Quick test_coexisting_modes;
          Alcotest.test_case "flap hold-down grows" `Quick test_flap_holddown_grows;
          Alcotest.test_case "flap list bounded" `Quick test_flap_list_bounded;
          Alcotest.test_case "overlapping attacks share mode" `Quick
            test_overlapping_attacks_share_mode;
          Alcotest.test_case "create rejects out-of-range" `Quick
            test_create_rejects_out_of_range;
        ] );
      ( "sync",
        [
          Alcotest.test_case "views converge" `Quick test_sync_views_converge;
          Alcotest.test_case "staleness expires" `Quick test_sync_staleness_expires;
          Alcotest.test_case "threshold suppresses" `Quick test_sync_threshold_suppresses;
          Alcotest.test_case "classes isolated" `Quick test_sync_classes_isolated;
          Alcotest.test_case "lone participant silent" `Quick test_sync_lone_participant_silent;
        ] );
      ("properties", qcheck);
    ]
