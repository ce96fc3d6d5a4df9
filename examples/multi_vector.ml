(* Mixed attack vectors, co-existing modes (paper sections 1 and 3.3):
   "Mixed-vector attacks would trigger co-existing modes at different
   regions of the network."

   One spec value, Scenario.multi_vector_spec: a rolling Crossfire LFA
   floods a critical link, a bot behind e2 blasts a spoofed-source
   volumetric flood at the victim, and the bots behind e1 open spoofed
   half-connections against its accept backlog. One deployment runs the
   three defense stacks side by side (LFA detection at the aggregation
   switch, a HashPipe heavy hitter at e2, the SYN split proxy at the
   victim-side aggregation switch); each raises its own alarm class
   through the same mode protocol, and different modes light up in
   different places.

   Run with: dune exec examples/multi_vector.exe *)

module T = Ff_topology.Topology
module Scenario = Fastflex.Scenario
module Orchestrator = Fastflex.Orchestrator
module Packet = Ff_dataplane.Packet
module B = Ff_boosters

let () =
  let lm = T.Fig2.build ~bots:8 ~normals:4 () in
  let topo = lm.T.Fig2.topo in
  let name sw = (T.node topo sw).T.name in
  let spec = Scenario.multi_vector_spec lm in
  (* every 5 s, which switches run which mitigation *)
  let hook (r : Scenario.report) =
    let protocol = (Option.get r.Scenario.deployment).Orchestrator.protocol in
    Ff_netsim.Engine.every (Ff_netsim.Net.engine r.Scenario.net) ~period:5. (fun () ->
        let show mode =
          match Ff_modes.Protocol.switches_with_mode protocol mode with
          | [] -> "-"
          | sws -> String.concat "," (List.map name sws)
        in
        Printf.printf "t=%5.1fs  modes: reroute@[%s] hcf@[%s] syn_guard@[%s]\n"
          (Ff_netsim.Net.now r.Scenario.net) (show B.Common.mode_reroute)
          (show B.Common.mode_hcf) (show B.Common.mode_syn_guard))
  in
  let r = Scenario.run { spec with hook } in
  let d = Option.get r.Scenario.deployment in
  print_endline "\nfirst activation per attack class:";
  List.iter
    (fun attack ->
      match List.find_opt (fun (_, _, a, up) -> up && a = attack) (Scenario.mode_log r) with
      | Some (t, sw, _, _) ->
        Printf.printf "  %-10s t=%5.2fs at %s\n" (Packet.attack_kind_to_string attack) t (name sw)
      | None -> Printf.printf "  %-10s never\n" (Packet.attack_kind_to_string attack))
    [ Packet.Lfa; Packet.Volumetric; Packet.Synflood ];
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  Printf.printf "\nnormal goodput under attack: %.2f of baseline\n"
    (Scenario.mean_goodput r ~from:10.);
  Printf.printf "spoofed packets filtered by hop-count: %d\n"
    (sum B.Hop_count_filter.filtered d.Orchestrator.hop_count_filters);
  Printf.printf "SYN cookies sent / validated: %d / %d\n"
    (sum B.Syn_guard.cookies_sent d.Orchestrator.syn_guards)
    (sum B.Syn_guard.validated d.Orchestrator.syn_guards);
  Printf.printf "mode transitions: %d\n" (List.length (Scenario.mode_log r))
