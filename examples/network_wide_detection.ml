(* Distributed detection (paper section 3.3): an attack that no single
   switch can see, detected and policed entirely in the data plane.

   A distributed flood sends 1 Mb/s from each of 8 bots toward the victim
   — every ingress switch sees well under the alarm threshold, but the
   aggregate is 8 Mb/s. One deployment runs two network-wide boosters
   that cooperate through in-data-plane view synchronization probes:

     - the network-wide heavy hitter aggregates per-destination rates
       across the ingresses and raises the Volumetric alarm no local
       counter could justify;
     - the alarm's mode change switches on every Volumetric mode, "grl"
       among them, and the distributed rate limiter then polices the
       botnet tenant's global rate at both ingresses at once.

   Run with: dune exec examples/network_wide_detection.exe *)

module T = Ff_topology.Topology
module Net = Ff_netsim.Net
module B = Ff_boosters
module Scenario = Fastflex.Scenario
module Orchestrator = Fastflex.Orchestrator

let () =
  let lm = T.Fig2.build ~bots:8 ~normals:4 () in
  let topo = lm.T.Fig2.topo and victim = lm.T.Fig2.victim and bots = lm.T.Fig2.bot_sources in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let name i = (T.node topo i).T.name in
  let mbps bps = bps /. 1e6 in
  let hook (r : Scenario.report) =
    let net = r.Scenario.net and d = Option.get r.Scenario.deployment in
    let nw = List.hd d.Orchestrator.network_hhs and grl = List.hd d.Orchestrator.rate_limits in
    Ff_modes.Protocol.on_transition d.Orchestrator.protocol (fun ~sw ~attack:_ ~active ->
        if sw = e1 || sw = e2 then
          Printf.printf "t=%5.2fs  volumetric modes (drop, hcf, grl) %s at %s\n" (Net.now net)
            (if active then "ON" else "off")
            (name sw));
    Ff_netsim.Engine.every (Net.engine net) ~period:2. (fun () ->
        Printf.printf
          "t=%5.2fs  victim inbound: e1 %.1f, e2 %.1f, network-wide %.1f Mb/s%s | botnet \
           offers %.1f Mb/s (cap 2.0), %d packets policed\n"
          (Net.now net)
          (mbps (B.Network_wide_hh.local_rate nw ~sw:e1 ~dst:victim))
          (mbps (B.Network_wide_hh.local_rate nw ~sw:e2 ~dst:victim))
          (mbps (B.Network_wide_hh.global_rate nw ~sw:e1 ~dst:victim))
          (if B.Network_wide_hh.alarmed nw then " [ALARM]" else "")
          (mbps (B.Global_rate_limit.global_rate grl ~sw:e1 ~tenant:1))
          (B.Global_rate_limit.dropped grl))
  in
  let r =
    Scenario.run
      { testbed = { topo; routes = Net.install_shortest_paths }; server = None; flows = [];
        defense = Scenario.Fastflex Orchestrator.default_config;
        boosters =
          [ Orchestrator.Network_wide_hh { ingresses = [ e1; e2 ] };
            Orchestrator.Global_rate_limit
              { participants = [ e1; e2 ]; tenants = List.map (fun bot -> (bot, 1)) bots;
                limits = [ (1, 2_000_000.) ] } ];
        attacks = [ Scenario.Flood { bots; victim; rate_pps = 125.; start = 1.; spoof_as = [] } ];
        duration = 20.; sample_period = None; hook }
  in
  let d = Option.get r.Scenario.deployment in
  Printf.printf "\nsync probes: %d (heavy hitter) + %d (rate limiter)\n"
    (B.Network_wide_hh.sync_probes (List.hd d.Orchestrator.network_hhs))
    (B.Global_rate_limit.sync_probes (List.hd d.Orchestrator.rate_limits))
