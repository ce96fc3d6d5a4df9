(* Tests for Ff_attacks: the rolling Crossfire LFA, volumetric DDoS with
   spoofing, and pulsing attacks. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Lfa = Ff_attacks.Lfa
module Volumetric = Ff_attacks.Volumetric
module Pulsing = Ff_attacks.Pulsing

let fig2_net () =
  let lm = T.Fig2.build ~bots:8 ~normals:4 () in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  Net.install_shortest_paths net;
  (lm, engine, net)

let test_lfa_congests_target () =
  let lm, engine, net = fig2_net () in
  let atk =
    Lfa.launch net ~bots:lm.T.Fig2.bot_sources
      ~decoy_groups:(List.map (fun d -> [ d ]) lm.T.Fig2.decoys)
      ~start:1. ~roll_on_path_change:false ()
  in
  Engine.run engine ~until:10.;
  (* the decoy's middle link is saturated *)
  let decoy = List.hd lm.T.Fig2.decoys in
  let mid =
    match Net.current_path net ~src:(List.hd lm.T.Fig2.bot_sources) ~dst:decoy with
    | Some p -> List.nth p 3
    | None -> Alcotest.fail "no decoy path"
  in
  Alcotest.(check bool) "target link saturated" true
    (Net.utilization net ~from_:lm.T.Fig2.agg ~to_:mid > 0.9);
  Alcotest.(check int) "24 attack flows" 24 (List.length (Lfa.bot_flows atk));
  Alcotest.(check bool) "attack carries data" true (Lfa.attack_rate atk ~now:10. > 500_000.);
  Alcotest.(check int) "no rolls without reason" 0 (List.length (Lfa.rolls atk))

let test_lfa_individually_low_rate () =
  let lm, engine, net = fig2_net () in
  let atk =
    Lfa.launch net ~bots:lm.T.Fig2.bot_sources
      ~decoy_groups:(List.map (fun d -> [ d ]) lm.T.Fig2.decoys)
      ~start:1. ~roll_on_path_change:false ()
  in
  Engine.run engine ~until:10.;
  (* each flow stays individually low-rate (indistinguishability) *)
  List.iter
    (fun f ->
      Alcotest.(check bool) "flow under 1.5 Mb/s" true
        (Flow.Tcp.goodput f ~now:10. *. 8. < 1_500_000.))
    (Lfa.bot_flows atk)

let test_lfa_rolls_on_schedule () =
  let lm, engine, net = fig2_net () in
  let atk =
    Lfa.launch net ~bots:lm.T.Fig2.bot_sources
      ~decoy_groups:(List.map (fun d -> [ d ]) lm.T.Fig2.decoys)
      ~start:1. ~roll_on_path_change:false ~roll_schedule:[ 5.; 9. ] ()
  in
  Engine.run engine ~until:12.;
  Alcotest.(check (list (float 0.01))) "rolled at the scheduled times" [ 5.; 9. ]
    (Lfa.rolls atk);
  (* after two rolls over two groups we are back at group 0 *)
  Alcotest.(check int) "group cycled" 0 (Lfa.current_group atk)

let test_lfa_rolls_on_path_change () =
  let lm, engine, net = fig2_net () in
  let atk =
    Lfa.launch net ~bots:lm.T.Fig2.bot_sources
      ~decoy_groups:(List.map (fun d -> [ d ]) lm.T.Fig2.decoys)
      ~start:1. ~recon_interval:0.5 ()
  in
  (* reroute decoy1's traffic at t=5: the attacker must notice and roll *)
  let decoy = List.hd lm.T.Fig2.decoys in
  Engine.schedule engine ~at:5. (fun () ->
      let detour_path =
        [ lm.T.Fig2.agg ] @ lm.T.Fig2.detour @ [ lm.T.Fig2.victim_agg ]
      in
      let rec pairs = function
        | a :: (b :: _ as rest) ->
          Net.set_route net ~sw:a ~dst:decoy ~next_hop:b;
          pairs rest
        | _ -> ()
      in
      pairs detour_path);
  Engine.run engine ~until:12.;
  Alcotest.(check int) "one roll triggered by the visible reroute" 1
    (List.length (Lfa.rolls atk));
  Alcotest.(check bool) "observed paths recorded" true (Lfa.observed_paths atk <> [])

let test_lfa_loss_does_not_trigger_roll () =
  let lm, engine, net = fig2_net () in
  (* inject heavy control-packet loss so traceroute replies go missing *)
  ignore (Ff_scaling.Loss.install net ~sw:lm.T.Fig2.agg ~prob:0.4
            ~classes:Ff_scaling.Loss.Control_only ());
  let atk =
    Lfa.launch net ~bots:lm.T.Fig2.bot_sources
      ~decoy_groups:(List.map (fun d -> [ d ]) lm.T.Fig2.decoys)
      ~start:1. ~recon_interval:0.5 ()
  in
  Engine.run engine ~until:10.;
  Alcotest.(check int) "missing replies are not path changes" 0
    (List.length (Lfa.rolls atk))

let test_lfa_stop () =
  let lm, engine, net = fig2_net () in
  let atk =
    Lfa.launch net ~bots:lm.T.Fig2.bot_sources
      ~decoy_groups:(List.map (fun d -> [ d ]) lm.T.Fig2.decoys)
      ~start:1. ()
  in
  Engine.run engine ~until:5.;
  Lfa.stop_now atk;
  let rate_before = Lfa.attack_rate atk ~now:5. in
  Engine.run engine ~until:10.;
  Alcotest.(check bool) "was attacking" true (rate_before > 100_000.);
  Alcotest.(check bool) "quiet after stop" true (Lfa.attack_rate atk ~now:10. < 20_000.)

let test_volumetric_floods () =
  let lm, engine, net = fig2_net () in
  let atk =
    Volumetric.launch net ~bots:lm.T.Fig2.bot_sources ~victim:lm.T.Fig2.victim
      ~rate_pps_per_bot:200. ~start:0.5 ()
  in
  Engine.run engine ~until:5.;
  Alcotest.(check int) "one flow per bot" 8 (List.length (Volumetric.flows atk));
  Alcotest.(check bool) "packets flowing" true (Volumetric.packets_sent atk > 5000);
  Volumetric.stop_now atk;
  let sent = Volumetric.packets_sent atk in
  Engine.run engine ~until:8.;
  Alcotest.(check int) "stopped" sent (Volumetric.packets_sent atk)

let test_volumetric_spoofing_ttl () =
  let lm, engine, net = fig2_net () in
  let claimed = List.hd lm.T.Fig2.normal_sources in
  (* observe TTLs at agg *)
  let ttls = ref [] in
  Net.add_stage net ~sw:lm.T.Fig2.agg
    {
      Net.stage_name = "ttl-spy";
      process =
        (fun _ pkt ->
          (match pkt.Ff_dataplane.Packet.payload with
          | Ff_dataplane.Packet.Data when pkt.Ff_dataplane.Packet.src = claimed ->
            ttls := pkt.Ff_dataplane.Packet.ttl :: !ttls
          | _ -> ());
          Net.Continue);
    };
  let _atk =
    Volumetric.launch net ~bots:[ List.hd lm.T.Fig2.bot_sources ] ~victim:lm.T.Fig2.victim
      ~rate_pps_per_bot:50. ~spoof_as:[ claimed ] ~start:0.5 ()
  in
  Engine.run engine ~until:3.;
  Alcotest.(check bool) "spoofed packets observed" true (!ttls <> []);
  List.iter
    (fun ttl -> Alcotest.(check bool) "ttl reveals spoofing" true (ttl < 60))
    !ttls

let test_pulsing_average_rate () =
  let lm, engine, net = fig2_net () in
  let atk =
    Pulsing.launch net ~bots:lm.T.Fig2.bot_sources ~victim:lm.T.Fig2.victim ~burst_pps:500. ()
  in
  Engine.run engine ~until:10.;
  let sent = List.fold_left (fun acc f -> acc + Flow.Cbr.sent_packets f) 0 (Pulsing.flows atk) in
  let expected = Pulsing.average_rate_pps atk *. 10. in
  Alcotest.(check bool) "average rate matches duty cycle" true
    (Float.abs (float_of_int sent -. expected) < 0.25 *. expected)

let () =
  Alcotest.run "ff_attacks"
    [
      ( "lfa",
        [
          Alcotest.test_case "congests target" `Quick test_lfa_congests_target;
          Alcotest.test_case "individually low rate" `Quick test_lfa_individually_low_rate;
          Alcotest.test_case "rolls on schedule" `Quick test_lfa_rolls_on_schedule;
          Alcotest.test_case "rolls on path change" `Quick test_lfa_rolls_on_path_change;
          Alcotest.test_case "loss does not trigger roll" `Quick
            test_lfa_loss_does_not_trigger_roll;
          Alcotest.test_case "stop" `Quick test_lfa_stop;
        ] );
      ( "volumetric",
        [
          Alcotest.test_case "floods" `Quick test_volumetric_floods;
          Alcotest.test_case "spoofing ttl" `Quick test_volumetric_spoofing_ttl;
        ] );
      ("pulsing", [ Alcotest.test_case "average rate" `Quick test_pulsing_average_rate ]);
    ]
