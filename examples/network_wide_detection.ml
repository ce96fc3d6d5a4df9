(* Distributed detection (paper section 3.3): attacks that no single
   switch can see.

   A distributed flood sends ~1 Mb/s from each of 8 bots toward the victim
   — every ingress switch sees well under the local alarm threshold, but
   the aggregate is 8 Mb/s. Two network-wide detectors cooperate through
   in-data-plane view synchronization probes:

     - the network-wide heavy hitter aggregates per-destination rates
       across ingresses and raises the volumetric alarm no local counter
       could justify;
     - the distributed rate limiter polices one tenant's global rate at
       every ingress simultaneously.

   Run with: dune exec examples/network_wide_detection.exe *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module B = Ff_boosters

let () =
  let lm = T.Fig2.build ~bots:8 ~normals:4 () in
  let topo = lm.T.Fig2.topo in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  Net.install_shortest_paths net;

  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let name i = (T.node topo i).T.name in

  (* network-wide heavy hitter across both ingresses *)
  let nw =
    B.Network_wide_hh.install net ~ingresses:[ e1; e2 ]
      ~on_alarm:(fun a ->
        Printf.printf "t=%5.2fs  NETWORK-WIDE ALARM raised at %s (no single switch saw it)\n"
          (Net.now net)
          (name a.B.Lfa_detector.switch))
      ~on_clear:(fun _ -> Printf.printf "t=%5.2fs  all clear\n" (Net.now net))
  in

  (* the distributed flood: 8 bots x ~1 Mb/s, split over both ingresses *)
  List.iter
    (fun bot ->
      ignore (Flow.Cbr.start net ~src:bot ~dst:lm.T.Fig2.victim ~rate_pps:125. ~at:2. ()))
    lm.T.Fig2.bot_sources;

  Engine.every engine ~period:2. (fun () ->
      Printf.printf
        "t=%5.2fs  victim inbound: local@e1 %.1f Mb/s, local@e2 %.1f Mb/s, global %.1f Mb/s%s\n"
        (Net.now net)
        (B.Network_wide_hh.local_rate nw ~sw:e1 ~dst:lm.T.Fig2.victim /. 1e6)
        (B.Network_wide_hh.local_rate nw ~sw:e2 ~dst:lm.T.Fig2.victim /. 1e6)
        (B.Network_wide_hh.global_rate nw ~sw:e1 ~dst:lm.T.Fig2.victim /. 1e6)
        (if B.Network_wide_hh.alarmed nw then "   [ALARMED]" else ""));

  Engine.run engine ~until:10.;

  (* now point the distributed rate limiter at the offending aggregate *)
  print_endline "\nactivating distributed global rate limiting (2 Mb/s cap for the botnet):";
  let grl = B.Global_rate_limit.install net ~participants:[ e1; e2 ] in
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "grl" true) [ e1; e2 ];
  B.Global_rate_limit.set_limit grl ~tenant:1 2_000_000.;
  List.iter (fun bot -> B.Global_rate_limit.assign grl ~src:bot ~tenant:1) lm.T.Fig2.bot_sources;

  Engine.every engine ~start:12. ~period:2. (fun () ->
      Printf.printf "t=%5.2fs  tenant global rate: %.1f Mb/s (cap 2.0), dropped %d\n"
        (Net.now net)
        (B.Global_rate_limit.global_rate grl ~sw:e1 ~tenant:1 /. 1e6)
        (B.Global_rate_limit.dropped grl));
  Engine.run engine ~until:20.;

  Printf.printf "\nsync probes: %d (heavy hitter) + %d (rate limiter)\n"
    (B.Network_wide_hh.sync_probes nw)
    (B.Global_rate_limit.sync_probes grl)
