(* Mixed attack vectors, co-existing modes (paper sections 1 and 3.3):
   "Mixed-vector attacks would trigger co-existing modes at different
   regions of the network."

   A rolling Crossfire LFA floods a critical link while, in a different
   region, a bot blasts a spoofed-source volumetric DDoS straight at the
   victim. Each attack trips its own detector (per-flow LFA detection at
   the aggregation switch; HashPipe heavy-hitter detection at the source
   edge), each raises its own alarm kind through the same distributed mode
   protocol, and different defense modes light up in different places:
   classification/rerouting/obfuscation/dropping for the LFA, dropping plus
   hop-count filtering for the volumetric flood.

   Run with: dune exec examples/multi_vector.exe *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet
module B = Ff_boosters
module Protocol = Ff_modes.Protocol

let () =
  let lm = T.Fig2.build ~bots:8 ~normals:4 () in
  let topo = lm.T.Fig2.topo in
  let engine = Engine.create () in
  let net = Net.create engine topo in

  (* default routes + TE for the normal demand, as in the scenario driver *)
  Net.install_shortest_paths net;
  let matrix = Ff_te.Traffic_matrix.empty () in
  List.iter
    (fun n -> Ff_te.Traffic_matrix.set matrix ~src:n ~dst:lm.T.Fig2.victim 2_300_000.)
    lm.T.Fig2.normal_sources;
  let plan = Ff_te.Solver.solve ~k:2 topo matrix in
  Ff_te.Solver.install net plan;

  (* one mode protocol behind the orchestrator's alarm sink. region_ttl 3
     keeps each attack's modes scoped near its detector, so the two
     defenses coexist in different regions *)
  let sink =
    Fastflex.Orchestrator.sink net
      { Fastflex.Orchestrator.default_config with region_ttl = 3 }
  in
  let protocol = sink.Fastflex.Orchestrator.s_protocol in
  let log verb (a : B.Lfa_detector.alarm) =
    Printf.printf "t=%6.2fs  %s  %-10s at %s\n" (Net.now net) verb
      (Packet.attack_kind_to_string a.B.Lfa_detector.attack)
      (T.node topo a.B.Lfa_detector.switch).T.name
  in
  let raise_alarm a = log "ALARM" a; sink.Fastflex.Orchestrator.on_alarm a in
  let clear_alarm a = log "CLEAR" a; sink.Fastflex.Orchestrator.on_clear a in

  (* region 1: LFA defense at the aggregation switch *)
  let watched =
    List.map
      (fun (l : T.link) -> if l.T.a = lm.T.Fig2.agg then (l.T.a, l.T.b) else (l.T.b, l.T.a))
      lm.T.Fig2.critical
  in
  let _detector =
    B.Lfa_detector.install net ~sw:lm.T.Fig2.agg ~watched ~min_age:1.0 ~on_alarm:raise_alarm
      ~on_clear:clear_alarm ()
  in
  let _dropper = B.Dropper.install net ~sw:lm.T.Fig2.agg () in
  let _reroute =
    B.Reroute.install net ~roots:(lm.T.Fig2.victim :: lm.T.Fig2.decoys) ()
  in

  (* region 2: volumetric defense at the source edge e2 *)
  let e2 = (T.node_by_name topo "e2").T.id in
  let hh =
    B.Heavy_hitter.install net ~sw:e2 ~threshold_bps:3_000_000. ~on_alarm:raise_alarm
      ~on_clear:clear_alarm ()
  in
  Net.add_stage net ~sw:e2 (B.Heavy_hitter.mark_offenders_stage hh);
  let _hh_dropper = B.Dropper.install net ~sw:e2 ~rate_limit:1_000_000. () in
  let hcf = B.Hop_count_filter.install net ~sw:e2 () in

  (* legitimate traffic *)
  let normal_flows =
    List.map
      (fun n -> Flow.Tcp.start net ~src:n ~dst:lm.T.Fig2.victim ~at:0.5 ~max_cwnd:4. ())
      lm.T.Fig2.normal_sources
  in

  (* attack 1: rolling LFA from all bots *)
  let _lfa =
    Ff_attacks.Lfa.launch net ~bots:lm.T.Fig2.bot_sources
      ~decoy_groups:(List.map (fun d -> [ d ]) lm.T.Fig2.decoys)
      ~start:8. ~roll_schedule:[ 25. ] ()
  in
  (* attack 2: spoofed volumetric flood from a bot behind e2, claiming the
     identity of a legitimate host that is also behind e2 (whose TTL
     fingerprint the filter has learned) *)
  let behind_e2 h = Net.access_switch net ~host:h = e2 in
  let bot_e2 = List.find behind_e2 lm.T.Fig2.bot_sources in
  let victim_identity = List.find behind_e2 lm.T.Fig2.normal_sources in
  let _vol =
    Ff_attacks.Volumetric.launch net ~bots:[ bot_e2 ] ~victim:lm.T.Fig2.victim
      ~rate_pps_per_bot:600. ~start:15. ~stop:35. ~spoof_as:[ victim_identity ] ()
  in
  (* remember the offender set as it stood when the alarm fired *)
  let offenders_at_alarm = ref 0 in
  Engine.every engine ~period:1. (fun () ->
      offenders_at_alarm :=
        max !offenders_at_alarm (List.length (B.Heavy_hitter.offenders hh)));

  (* observe which modes are active where, once a second *)
  Engine.every engine ~period:5. (fun () ->
      let show mode =
        let sws = Protocol.switches_with_mode protocol mode in
        if sws = [] then "-"
        else String.concat "," (List.map (fun s -> (T.node topo s).T.name) sws)
      in
      Printf.printf "t=%6.2fs  modes: reroute@[%s] drop@[%s] hcf@[%s]\n" (Net.now net)
        (show "reroute") (show "drop") (show "hcf"));

  Engine.run engine ~until:50.;

  let goodput =
    List.fold_left (fun acc f -> acc +. Flow.Tcp.delivered_bytes f) 0. normal_flows
  in
  Printf.printf "\nnormal traffic delivered: %.1f MB over 50 s\n" (goodput /. 1e6);
  Printf.printf "spoofed packets filtered by hop-count: %d\n" (B.Hop_count_filter.filtered hcf);
  Printf.printf "volumetric offenders caught by HashPipe: %d\n" !offenders_at_alarm;
  Printf.printf "mode transitions: %d\n" (Protocol.transitions protocol)
