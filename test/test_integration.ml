(* End-to-end integration tests: the full FastFlex pipeline and the
   case-study scenario (shortened versions of paper Figure 3). *)

module Scenario = Fastflex.Scenario
module Orchestrator = Fastflex.Orchestrator
module Compile = Fastflex.Compile
module Series = Ff_util.Series
module Packet = Ff_dataplane.Packet

(* One 60-second round: attack starts at 10 s, no forced rolls. *)
let one_round = { Scenario.default_attack with roll_schedule = []; start = 10. }

let run defense =
  Scenario.run_lfa ~defense ~attack:(Some one_round) ~duration:60. ()

let test_no_attack_stays_at_baseline () =
  let r = Scenario.run_lfa ~defense:Scenario.No_defense ~attack:None ~duration:30. () in
  Alcotest.(check bool) "positive baseline" true (r.Scenario.baseline_goodput > 100_000.);
  Alcotest.(check bool) "mean stays near 1" true (r.Scenario.mean_during_attack > 0.9);
  Alcotest.(check int) "no rolls" 0 (List.length r.Scenario.rolls)

let test_attack_hurts_undefended () =
  let r = run Scenario.No_defense in
  Alcotest.(check bool) "mean degraded" true (r.Scenario.mean_during_attack < 0.8);
  Alcotest.(check bool) "deep dip" true (r.Scenario.min_during_attack < 0.7)

let test_fastflex_recovers_fast () =
  let r = run (Scenario.Fastflex Orchestrator.default_config) in
  Alcotest.(check bool) "high mean under attack" true (r.Scenario.mean_during_attack > 0.85);
  (* the multimode data plane activated and the detector marked traffic *)
  Alcotest.(check bool) "modes changed" true (List.length r.Scenario.mode_log > 0);
  Alcotest.(check bool) "flows classified" true (r.Scenario.suspicious_marked > 1000);
  Alcotest.(check bool) "probes circulated" true (r.Scenario.probes_sent > 100);
  (* recovery at data plane timescale: within 5 s of attack start *)
  (match r.Scenario.recovery_times with
  | (_, rt) :: _ -> Alcotest.(check bool) "recovers within 5 s" true (rt < 5.)
  | [] -> Alcotest.fail "no recovery measured")

let test_fastflex_beats_baseline_and_none () =
  let ff = run (Scenario.Fastflex Orchestrator.default_config) in
  let sdn = run (Scenario.Baseline_sdn { period = 30.; delay = 0.5 }) in
  let none = run Scenario.No_defense in
  Alcotest.(check bool) "fastflex > baseline sdn" true
    (ff.Scenario.mean_during_attack > sdn.Scenario.mean_during_attack);
  Alcotest.(check bool) "fastflex > no defense" true
    (ff.Scenario.mean_during_attack > none.Scenario.mean_during_attack +. 0.15)

let test_baseline_sdn_reconfigures () =
  let r = run (Scenario.Baseline_sdn { period = 20.; delay = 0.5 }) in
  Alcotest.(check bool) "controller ran" true (List.length r.Scenario.reconfigs >= 2);
  Alcotest.(check int) "no data plane mode changes" 0 (List.length r.Scenario.mode_log)

let test_fastflex_obfuscation_suppresses_rolling () =
  (* an attacker rolling on path changes: under FastFlex the observed
     topology never changes, so only scheduled rolls occur *)
  let plan = { Scenario.default_attack with roll_schedule = [ 30. ]; start = 10. } in
  let r =
    Scenario.run_lfa ~defense:(Scenario.Fastflex Orchestrator.default_config)
      ~attack:(Some plan) ~duration:60. ()
  in
  Alcotest.(check (list (float 0.01))) "only the scheduled roll" [ 30. ] r.Scenario.rolls

let test_modes_return_to_default () =
  (* a short attack that ends: every activation must eventually clear *)
  let plan = { one_round with start = 5. } in
  let r =
    Scenario.run_lfa ~defense:(Scenario.Fastflex Orchestrator.default_config)
      ~attack:(Some plan) ~duration:60. ()
  in
  ignore r;
  (* we cannot stop the attacker mid-scenario via the public API, so this
     checks the weaker invariant: activations and deactivations balance per
     switch in the log, or the attack is still running at the end *)
  let activations =
    List.length (List.filter (fun (_, _, _, up) -> up) r.Scenario.mode_log)
  in
  Alcotest.(check bool) "activations happened" true (activations > 0)

(* A bot forges one mode-change clear with a huge epoch and sends it to its
   access switch before the attack starts. Were it accepted, every genuine
   alarm after it would be stale and the data plane would never change
   mode again; switches drop control payloads that arrive from hosts. *)
let test_forged_mode_clear_from_bot () =
  let forged_at = 5. in
  let on_ready net (lm : Ff_topology.Topology.Fig2.landmarks) _ =
    let bot = List.hd lm.Ff_topology.Topology.Fig2.bot_sources in
    let access = Ff_netsim.Net.access_switch net ~host:bot in
    Ff_netsim.Engine.schedule (Ff_netsim.Net.engine net) ~at:forged_at (fun () ->
        Ff_netsim.Net.send_from_host net
          (Packet.make_control ~src:bot ~dst:access ~flow:0 ~birth:forged_at
             ~payload:
               (Packet.Mode_probe
                  { attack = Packet.Lfa; epoch = max_int / 2; origin = access;
                    activate = false; region_ttl = 8 })))
  in
  let r =
    Scenario.run_lfa ~defense:(Scenario.Fastflex Orchestrator.default_config) ~on_ready ()
  in
  let later = List.filter (fun (t, _, _, _) -> t > forged_at) r.Scenario.mode_log in
  Alcotest.(check bool) "modes still change after the forgery" true (later <> []);
  Alcotest.(check bool)
    (Printf.sprintf "mean under attack %.3f >= 0.85" r.Scenario.mean_during_attack)
    true
    (r.Scenario.mean_during_attack >= 0.85);
  Alcotest.(check bool) "every round recovers within 5 s" true
    (r.Scenario.recovery_times <> []
    && List.for_all (fun (_, rt) -> rt < 5.) r.Scenario.recovery_times);
  Alcotest.(check bool) "the forgery was dropped at the switch" true
    (List.mem_assoc "host-control" r.Scenario.drops)

let test_mode_log_covers_all_switches () =
  let r = run (Scenario.Fastflex Orchestrator.default_config) in
  let switches =
    List.sort_uniq compare (List.map (fun (_, sw, _, _) -> sw) r.Scenario.mode_log)
  in
  (* the Fig2 topology has 10 switches; region_ttl 8 reaches all of them *)
  Alcotest.(check int) "whole region activated" 10 (List.length switches);
  List.iter
    (fun (_, _, attack, _) ->
      Alcotest.(check bool) "lfa modes only" true (attack = Packet.Lfa))
    r.Scenario.mode_log

let test_series_shapes () =
  let r = run (Scenario.Fastflex Orchestrator.default_config) in
  Alcotest.(check bool) "normalized sampled" true (Series.length r.Scenario.normalized > 100);
  Alcotest.(check bool) "attack series sampled" true
    (Series.length r.Scenario.attack_goodput > 100);
  (* normalized pre-attack hovers near 1 *)
  let pre =
    List.filter_map
      (fun (t, v) -> if t > 5. && t < 9. then Some v else None)
      (Series.points r.Scenario.normalized)
  in
  Alcotest.(check bool) "pre-attack near 1" true
    (Float.abs (Ff_util.Stats.mean pre -. 1.) < 0.1)

(* the volumetric scenario: heavy-hitter detection through the mode protocol *)
let run_volumetric ~defended ?spoof () =
  let lm = Ff_topology.Topology.Fig2.build ~bots:8 ~normals:4 () in
  let r = Scenario.run (Scenario.volumetric_spec ~defended ?spoof ~duration:40. lm) in
  let d = Option.get r.Scenario.deployment in
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  ( r,
    sum Ff_boosters.Hop_count_filter.filtered d.Orchestrator.hop_count_filters,
    sum (fun (_, dr) -> Ff_boosters.Dropper.dropped dr) d.Orchestrator.droppers )

let test_volumetric_defended_vs_not () =
  let lm = Ff_topology.Topology.Fig2.build ~bots:8 ~normals:4 () in
  let undefended = Scenario.run (Scenario.volumetric_spec ~defended:false ~duration:40. lm) in
  let defended, filtered, policed = run_volumetric ~defended:true () in
  let hh = List.hd (Option.get defended.Scenario.deployment).Orchestrator.heavy_hitters in
  Alcotest.(check bool) "flood crushes undefended victim" true
    (Scenario.mean_goodput undefended ~from:12. < 0.4);
  Alcotest.(check bool) "defense restores goodput" true
    (Scenario.mean_goodput defended ~from:12. > 0.9);
  Alcotest.(check bool) "alarm raised" true (Ff_boosters.Heavy_hitter.alarmed hh);
  Alcotest.(check bool) "modes propagated" true
    (List.length (Scenario.mode_log defended) >= 10);
  Alcotest.(check bool) "spoofed packets filtered" true (filtered > 1000);
  Alcotest.(check bool) "offenders policed" true (policed > 10_000)

let test_volumetric_without_spoofing () =
  (* unspoofed flood: hop-count filtering has nothing to do, but policing
     the heavy hitters still restores the victim *)
  let d, filtered, _ = run_volumetric ~defended:true ~spoof:false () in
  Alcotest.(check bool) "policing alone recovers" true (Scenario.mean_goodput d ~from:12. > 0.85);
  Alcotest.(check int) "nothing spoofed, nothing filtered" 0 filtered

(* the multi-vector storm: three attack classes, three stacks, one
   deployment — each class activates its own modes, and the run replays *)
let test_multi_vector_storm () =
  let storm () =
    let lm = Ff_topology.Topology.Fig2.build ~bots:8 ~normals:4 () in
    Scenario.mode_log (Scenario.run (Scenario.multi_vector_spec lm))
  in
  let log = storm () in
  List.iter
    (fun attack ->
      Alcotest.(check bool)
        (Packet.attack_kind_to_string attack ^ " activated")
        true
        (List.exists (fun (_, _, a, up) -> up && a = attack) log))
    [ Packet.Lfa; Packet.Volumetric; Packet.Synflood ];
  Alcotest.(check bool) "replays identically" true (log = storm ())

(* deploy_wide: the pervasive deployment on an arbitrary topology *)
let test_deploy_wide_on_ring () =
  let topo = Ff_topology.Topology.ring ~n:6 () in
  let engine = Ff_netsim.Engine.create () in
  let net = Ff_netsim.Net.create engine topo in
  Ff_netsim.Net.install_shortest_paths net;
  let hosts = Ff_topology.Topology.hosts topo in
  let victim = (Ff_topology.Topology.node_by_name topo "h0").Ff_topology.Topology.id in
  let wide = Orchestrator.deploy_wide net ~protect:[ victim ] () in
  (* every switch got a detector and a dropper *)
  Alcotest.(check int) "detector per switch" 6 (List.length wide.Orchestrator.w_detectors);
  Alcotest.(check int) "dropper per switch" 6 (List.length wide.Orchestrator.w_droppers);
  (* flood the victim from everywhere: some detector must alarm and the
     modes must propagate *)
  List.iter
    (fun (h : Ff_topology.Topology.node) ->
      if h.Ff_topology.Topology.id <> victim then
        for _ = 1 to 3 do
          ignore
            (Ff_netsim.Flow.Tcp.start net ~src:h.Ff_topology.Topology.id ~dst:victim ~at:1.
               ~max_cwnd:4. ())
        done)
    hosts;
  Ff_netsim.Engine.run engine ~until:15.;
  Alcotest.(check bool) "modes activated" true
    (Ff_modes.Protocol.log wide.Orchestrator.w_protocol <> []);
  Alcotest.(check bool) "flows classified somewhere" true
    (List.exists (fun (_, d) -> Ff_boosters.Lfa_detector.marks d > 0) wide.Orchestrator.w_detectors)

(* Two detectors raise the same attack class; the first one to clear must
   not switch the mode off at the other, which is still alarmed (a bare
   [Protocol.clear_alarm] floods a region-wide deactivation, and the
   still-alarmed detector never raises again). The last clear must switch
   the mode off at both detectors, even when they sit further apart than
   one clear's [region_ttl] reaches. *)
let deploy_wide_last_clear_wins ~n ~config () =
  let module Topology = Ff_topology.Topology in
  let module Net = Ff_netsim.Net in
  let topo = Topology.ring ~n () in
  let engine = Ff_netsim.Engine.create () in
  let net = Net.create engine topo in
  Scenario.install_all_routes net;
  let id name = (Topology.node_by_name topo name).Topology.id in
  let s0 = id "s0" and s2 = id "s2" in
  let wide = Orchestrator.deploy_wide net ~protect:[ id "h1" ] ~config () in
  let alarmed sw = Ff_boosters.Lfa_detector.alarmed (List.assoc sw wide.Orchestrator.w_detectors) in
  let mode_on sw = Ff_modes.Protocol.attack_active wide.Orchestrator.w_protocol ~sw Packet.Lfa in
  (* 12 Mb/s into each 10 Mb/s ring link toward s1: s0's flood stops at
     6 s, s2's at 20 s *)
  List.iter
    (fun (src, stop) ->
      ignore
        (Ff_netsim.Flow.Cbr.start net ~src:(id src) ~dst:(id "h1") ~rate_pps:1500. ~at:1. ~stop ()))
    [ ("h0", 6.); ("h2", 20.) ];
  Ff_netsim.Engine.run engine ~until:5.;
  Alcotest.(check (pair bool bool)) "both detectors alarmed" (true, true) (alarmed s0, alarmed s2);
  Ff_netsim.Engine.run engine ~until:16.;
  Alcotest.(check (pair bool bool)) "only s2 still alarmed" (false, true) (alarmed s0, alarmed s2);
  Alcotest.(check bool) "mode still active at s2" true (mode_on s2);
  Ff_netsim.Engine.run engine ~until:35.;
  Alcotest.(check bool) "s2 cleared" false (alarmed s2);
  Alcotest.(check (pair bool bool)) "mode off at s0 and s2 after the last clear" (false, false)
    (mode_on s0, mode_on s2)

let test_deploy_wide_last_clear_wins =
  deploy_wide_last_clear_wins ~n:3 ~config:Orchestrator.default_config

(* on a 4-ring with region_ttl 1, s0 and s2 are two hops apart: a clear
   sent from s2 alone would leave s0's region on *)
let test_deploy_wide_last_clear_reaches_far_regions =
  deploy_wide_last_clear_wins ~n:4 ~config:{ Orchestrator.default_config with region_ttl = 1 }

let test_compile_verify_clean () =
  List.iter
    (fun (name, issues) ->
      Alcotest.(check int) (name ^ " verifies clean") 0 (List.length issues))
    (Compile.verify ())

let test_merged_graph_to_dot () =
  let compiled = Compile.boosters () in
  let dot = Ff_dataflow.Graph.to_dot compiled.Compile.merged in
  Alcotest.(check bool) "digraph syntax" true
    (String.length dot > 100
    && String.sub dot 0 7 = "digraph"
    && dot.[String.length dot - 2] = '}');
  (* one node line per merged vertex *)
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let node_lines =
    List.filter
      (fun l ->
        String.length l > 4 && String.sub l 2 1 = "n" && String.contains l '['
        && not (contains l "->"))
      (String.split_on_char '\n' dot)
  in
  Alcotest.(check int) "one node per PPM"
    (Ff_dataflow.Graph.num_vertices compiled.Compile.merged)
    (List.length node_lines)

(* The compile pipeline end-to-end: catalogue -> merged graph -> packing *)
let test_compile_pipeline_end_to_end () =
  let compiled = Compile.boosters () in
  match Compile.pack_onto compiled ~switches:[ 0; 1; 2; 3 ] () with
  | Ok bins ->
    Alcotest.(check bool) "fits on tofino-class switches" true
      (Ff_placement.Pack.respects_capacity bins);
    let rows = Compile.module_rows compiled in
    Alcotest.(check bool) "module table non-trivial" true (List.length rows >= 15);
    (* every module row names at least one booster *)
    List.iter
      (fun (_, boosters, _) ->
        Alcotest.(check bool) "owner recorded" true (boosters <> []))
      rows
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "integration"
    [
      ( "scenario",
        [
          Alcotest.test_case "no attack stays at baseline" `Slow
            test_no_attack_stays_at_baseline;
          Alcotest.test_case "attack hurts undefended" `Slow test_attack_hurts_undefended;
          Alcotest.test_case "fastflex recovers fast" `Slow test_fastflex_recovers_fast;
          Alcotest.test_case "fastflex beats baselines" `Slow
            test_fastflex_beats_baseline_and_none;
          Alcotest.test_case "baseline sdn reconfigures" `Slow test_baseline_sdn_reconfigures;
          Alcotest.test_case "obfuscation suppresses rolling" `Slow
            test_fastflex_obfuscation_suppresses_rolling;
          Alcotest.test_case "modes return to default" `Slow test_modes_return_to_default;
          Alcotest.test_case "mode log covers switches" `Slow test_mode_log_covers_all_switches;
          Alcotest.test_case "series shapes" `Slow test_series_shapes;
          Alcotest.test_case "volumetric defended vs not" `Slow
            test_volumetric_defended_vs_not;
          Alcotest.test_case "volumetric without spoofing" `Slow
            test_volumetric_without_spoofing;
          Alcotest.test_case "multi-vector storm" `Slow test_multi_vector_storm;
          Alcotest.test_case "forged mode clear from a bot" `Slow
            test_forged_mode_clear_from_bot;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "compile to packing" `Quick test_compile_pipeline_end_to_end;
          Alcotest.test_case "verify clean" `Quick test_compile_verify_clean;
          Alcotest.test_case "merged graph to dot" `Quick test_merged_graph_to_dot;
          Alcotest.test_case "deploy_wide on a ring" `Slow test_deploy_wide_on_ring;
          Alcotest.test_case "deploy_wide: last clear wins" `Quick
            test_deploy_wide_last_clear_wins;
          Alcotest.test_case "deploy_wide: last clear reaches far regions" `Quick
            test_deploy_wide_last_clear_reaches_far_regions;
        ] );
    ]
