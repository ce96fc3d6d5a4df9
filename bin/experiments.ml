(* The paper's figures, the ablations, the gated SYN-flood and
   adversarial experiments, and the micro-benchmarks: one function per
   experiment, each printing its result once. The CLI makes each one a
   subcommand and prints its banner. *)

module T = Ff_topology.Topology
module Scenario = Fastflex.Scenario
module Orchestrator = Fastflex.Orchestrator
module Series = Ff_util.Series
module Table = Ff_util.Table

(* ------------------------------------------------------------------ *)
(* fig1: module table, sharing, packing (paper Figure 1 a-c)           *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  let compiled = Fastflex.Compile.boosters () in
  print_endline "Merged module table (paper Figure 1, 'Module | Stages | SRAM | TCAM'):";
  Table.print
    ~header:[ "module"; "shared-by"; "stages"; "SRAM(KB)"; "TCAM"; "ALUs"; "hash"; "boosters" ]
    ~rows:
      (List.map
         (fun (name, boosters, res) ->
           (name :: string_of_int (List.length boosters) :: Ff_dataplane.Resource.to_row res)
           @ [ String.concat "+" boosters ])
         (Fastflex.Compile.module_rows compiled));
  Printf.printf
    "\nPPMs before merging: %d   after: %d   stage savings: %.0f%% (%d PPM absorptions)\n"
    (List.fold_left
       (fun acc (_, g) -> acc + Ff_dataflow.Graph.num_vertices g)
       0 compiled.Fastflex.Compile.graphs)
    (Ff_dataflow.Graph.num_vertices compiled.Fastflex.Compile.merged)
    (100. *. compiled.Fastflex.Compile.savings)
    (List.length compiled.Fastflex.Compile.sharing);
  (* packing the whole catalogue *)
  print_endline "\nPacking the merged catalogue onto Tofino-class switches:";
  let rows =
    List.map
      (fun pool ->
        let switches = List.init pool Fun.id in
        match Fastflex.Compile.pack_onto compiled ~switches with
        | Ok bins ->
          [ string_of_int pool;
            string_of_int (Ff_placement.Pack.bins_used bins);
            (if Ff_placement.Pack.respects_capacity bins then "yes" else "NO") ]
        | Error e -> [ string_of_int pool; "-"; "infeasible: " ^ e ])
      [ 1; 2; 4; 8 ]
  in
  Table.print ~header:[ "switch pool"; "switches used"; "capacity ok" ] ~rows

(* ------------------------------------------------------------------ *)
(* fig2: the multimode timeline (paper Figure 2 a-d)                   *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  let attack = { Scenario.default_attack with start = 10.; roll_schedule = [ 30. ] } in
  let r =
    Scenario.run_lfa ~defense:(Scenario.Fastflex Orchestrator.default_config)
      ~attack:(Some attack) ~duration:50. ()
  in
  print_endline "Mode-change log (probe-driven, no controller in the loop):";
  List.iter
    (fun (t, sw, attack, up) ->
      Printf.printf "  t=%6.2fs  switch %-2d %s %s mode set\n" t sw
        (if up then "activates" else "deactivates")
        (Ff_dataplane.Packet.attack_kind_to_string attack))
    r.Scenario.mode_log;
  let activation_times =
    List.filter_map (fun (t, _, _, up) -> if up then Some t else None) r.Scenario.mode_log
  in
  (match activation_times with
  | t0 :: _ ->
    let tn = List.fold_left Float.max t0 activation_times in
    Printf.printf
      "\n(a) default mode until t=%.1fs (defenses off, TE-optimal routing)\n\
       (b) LFA detected at t=%.2fs; activation probes flooded the region\n\
      \    in %.0f ms (every switch in defense mode by t=%.2fs)\n\
       (c) mitigation: %d packets classified suspicious, %d rerouting probes,\n\
      \    %d suspicious packets dropped (rate-limit + illusion-of-success)\n\
       (d) forced re-target at t=30s absorbed at data plane timescale:\n"
      attack.Scenario.start t0
      ((tn -. t0) *. 1000.)
      tn r.Scenario.suspicious_marked r.Scenario.probes_sent
      (List.fold_left
         (fun acc (reason, n) ->
           if reason = "suspicious-rate-limit" || reason = "illusion-of-success" then acc + n
           else acc)
         0 r.Scenario.drops)
  | [] -> print_endline "no activations?!");
  List.iter
    (fun (ev, rt) -> Printf.printf "    event t=%.1fs -> back to 80%% in %.1fs\n" ev rt)
    r.Scenario.recovery_times;
  print_endline "\nNormalized goodput during the timeline:";
  Series.pp_ascii ~height:10 Format.std_formatter [ r.Scenario.normalized ]

(* ------------------------------------------------------------------ *)
(* fig3: the headline result (paper Figure 3)                          *)
(* ------------------------------------------------------------------ *)

let rename s name =
  let out = Series.create ~name in
  List.iter (fun (t, v) -> Series.add out ~time:t v) (Series.points s);
  out

let fig3 () =
  let run name defense =
    Printf.printf "  %s: %!" name;
    let r = Scenario.run_lfa ~defense ~duration:120. () in
    Scenario.pp_summary Format.std_formatter r;
    r
  in
  let none = run "no-defense" Scenario.No_defense in
  let sdn = run "baseline-sdn" (Scenario.Baseline_sdn { period = 30.; delay = 0.5 }) in
  let ff = run "fastflex" (Scenario.Fastflex Orchestrator.default_config) in
  print_endline "\nFigure 3 series (normalized throughput, 5 s grid):";
  let grid s = Series.resample s ~step:5. ~until:120. in
  let cells s = List.map (fun (_, v) -> Printf.sprintf "%.2f" v) (grid s) in
  let times = List.map (fun (t, _) -> Printf.sprintf "%.0f" t) (grid none.Scenario.normalized) in
  Table.print
    ~header:("time(s)" :: times)
    ~rows:
      [ "baseline-sdn" :: cells sdn.Scenario.normalized;
        "fastflex" :: cells ff.Scenario.normalized;
        "no-defense" :: cells none.Scenario.normalized ];
  print_endline "";
  Series.pp_ascii ~height:14 Format.std_formatter
    [ rename sdn.Scenario.normalized "Baseline (SDN)";
      rename ff.Scenario.normalized "FastFlex" ];
  print_endline "\nSummary (paper claim: baseline constantly falls behind rolling attacks;";
  print_endline "FastFlex disperses traffic almost instantaneously by data plane mode changes):";
  let median_recovery (r : Scenario.result) =
    let finite = List.filter (fun x -> x < infinity) (List.map snd r.Scenario.recovery_times) in
    if finite = [] then "never" else Printf.sprintf "%.1fs" (Ff_util.Stats.median finite)
  in
  Table.print
    ~header:[ "defense"; "mean goodput"; "min"; "median recovery"; "mechanism latency" ]
    ~rows:
      [
        [ "no-defense"; Printf.sprintf "%.2f" none.Scenario.mean_during_attack;
          Printf.sprintf "%.2f" none.Scenario.min_during_attack; median_recovery none; "-" ];
        [ "baseline-sdn"; Printf.sprintf "%.2f" sdn.Scenario.mean_during_attack;
          Printf.sprintf "%.2f" sdn.Scenario.min_during_attack; median_recovery sdn;
          "30s TE period" ];
        [ "fastflex"; Printf.sprintf "%.2f" ff.Scenario.mean_during_attack;
          Printf.sprintf "%.2f" ff.Scenario.min_during_attack; median_recovery ff;
          "RTT-scale probes" ];
      ]

(* lfa: one run of the Figure 3 scenario, every setting an option, with
   an optional fault schedule applied through the spec's hook *)
let lfa ~defense ~duration ~rolls ~csv ~chaos lm =
  let harness = ref None in
  let hook (r : Scenario.report) =
    if chaos <> [] then begin
      let h = Ff_chaos.Chaos.create ?seed:(Ff_chaos.Chaos.spec_seed chaos) r.Scenario.net in
      Ff_chaos.Chaos.apply h chaos;
      harness := Some h
    end
  in
  let attack = Some { Scenario.default_attack with roll_schedule = rolls } in
  let spec = Scenario.lfa_spec ~defense ~attack ~duration lm in
  let r = Scenario.run_lfa_spec { spec with hook } in
  Scenario.pp_summary Format.std_formatter r;
  if csv then Series.pp_csv Format.std_formatter [ r.Scenario.normalized ]
  else Series.pp_ascii ~height:12 Format.std_formatter [ r.Scenario.normalized ];
  Option.iter
    (fun h ->
      Printf.printf "chaos: %d fault actions injected\n" (Ff_chaos.Chaos.injected h);
      List.iter
        (fun (time, action) ->
          Printf.printf "  %8.3f  %s\n" time (Ff_chaos.Chaos.action_to_string action))
        (Ff_chaos.Chaos.log h))
    !harness

(* ------------------------------------------------------------------ *)
(* abl-te: baseline TE period sweep                                    *)
(* ------------------------------------------------------------------ *)

let abl_te () =
  let rows =
    List.map
      (fun period ->
        let r =
          Scenario.run_lfa ~defense:(Scenario.Baseline_sdn { period; delay = 0.5 })
            ~duration:120. ()
        in
        [ Printf.sprintf "%.0f" period;
          Printf.sprintf "%.2f" r.Scenario.mean_during_attack;
          Printf.sprintf "%.2f" r.Scenario.min_during_attack;
          string_of_int (List.length r.Scenario.rolls);
          string_of_int (List.length r.Scenario.reconfigs) ])
      [ 5.; 10.; 30.; 60. ]
  in
  let ff = Scenario.run_lfa ~defense:(Scenario.Fastflex Orchestrator.default_config)
      ~duration:120. () in
  Table.print
    ~header:[ "TE period (s)"; "mean goodput"; "min"; "attacker rolls"; "reconfigs" ]
    ~rows:
      (rows
      @ [ [ "fastflex"; Printf.sprintf "%.2f" ff.Scenario.mean_during_attack;
            Printf.sprintf "%.2f" ff.Scenario.min_during_attack;
            string_of_int (List.length ff.Scenario.rolls); "0" ] ]);
  print_endline "\n(the attacker re-targets within seconds of each reconfiguration, so even";
  print_endline " aggressive controller periods trail the attack; the data plane does not)"

(* ------------------------------------------------------------------ *)
(* abl-probe: mode/probe timescale sweep                               *)
(* ------------------------------------------------------------------ *)

let abl_probe () =
  let attack = Some { Scenario.default_attack with start = 10.; roll_schedule = [] } in
  let recovery (r : Scenario.result) =
    match r.Scenario.recovery_times with
    | (_, rt) :: _ when rt < infinity -> Printf.sprintf "%.1f" rt
    | _ -> "never"
  in
  let rows =
    List.map
      (fun probe_interval ->
        let config = { Orchestrator.default_config with probe_interval } in
        let r = Scenario.run_lfa ~defense:(Scenario.Fastflex config) ~attack ~duration:60. () in
        [ Printf.sprintf "%.0f" (probe_interval *. 1000.);
          Printf.sprintf "%.2f" r.Scenario.mean_during_attack; recovery r;
          string_of_int r.Scenario.probes_sent ])
      [ 0.01; 0.05; 0.2; 0.5 ]
  in
  Table.print
    ~header:[ "probe interval (ms)"; "mean goodput"; "recovery (s)"; "probes sent" ]
    ~rows;
  print_endline "";
  let rows =
    List.map
      (fun min_age ->
        let config = { Orchestrator.default_config with min_age } in
        let r = Scenario.run_lfa ~defense:(Scenario.Fastflex config) ~attack ~duration:60. () in
        [ Printf.sprintf "%.1f" min_age;
          Printf.sprintf "%.2f" r.Scenario.mean_during_attack; recovery r;
          string_of_int r.Scenario.suspicious_marked ])
      [ 0.5; 1.0; 2.0; 4.0 ]
  in
  Table.print
    ~header:[ "classification age (s)"; "mean goodput"; "recovery (s)"; "marked packets" ]
    ~rows;
  print_endline "\n(probe interval moves reaction time by milliseconds; the classification";
  print_endline " age dominates recovery — the indistinguishability cost of Crossfire)"

(* ------------------------------------------------------------------ *)
(* abl-sharing: packing with/without module sharing across topologies  *)
(* ------------------------------------------------------------------ *)

let abl_sharing () =
  let compiled = Fastflex.Compile.boosters () in
  let topologies =
    [ ("fig2", (T.Fig2.build ()).T.Fig2.topo);
      ("fat-tree(4)", T.fat_tree ~k:4 ());
      ("abilene", T.abilene ());
      ("waxman(12)", T.waxman ~n:12 ~seed:3 ()) ]
  in
  let rows =
    List.map
      (fun (name, topo) ->
        let capacities =
          List.map (fun (s : T.node) -> (s.T.id, Ff_dataplane.Resource.tofino_like))
            (T.switches topo)
        in
        let merged =
          match
            Ff_placement.Pack.first_fit_decreasing ~capacities compiled.Fastflex.Compile.merged
          with
          | Ok bins -> Ff_placement.Pack.bins_used bins
          | Error _ -> -1
        in
        let unmerged =
          List.fold_left
            (fun acc (_, g) ->
              match Ff_placement.Pack.first_fit_decreasing ~capacities g with
              | Ok bins -> acc + Ff_placement.Pack.bins_used bins
              | Error _ -> acc)
            0 compiled.Fastflex.Compile.graphs
        in
        [ name;
          string_of_int (List.length (T.switches topo));
          string_of_int unmerged;
          string_of_int merged;
          Printf.sprintf "%.1fx" (float_of_int unmerged /. float_of_int (max 1 merged)) ])
      topologies
  in
  Table.print
    ~header:[ "topology"; "switches"; "slots no-sharing"; "slots shared"; "reduction" ]
    ~rows;
  Printf.printf "\n(resource stages saved by the analyzer: %.0f%%; %d PPM pairs deduplicated)\n"
    (100. *. compiled.Fastflex.Compile.savings)
    (List.length compiled.Fastflex.Compile.sharing)

(* ------------------------------------------------------------------ *)
(* abl-fec: state-transfer FEC vs. loss                                *)
(* ------------------------------------------------------------------ *)

let abl_fec () =
  let entries = List.init 400 (fun i -> (Printf.sprintf "reg[%d]" i, float_of_int i)) in
  let run ~loss ~fec ~seed =
    let topo = T.linear ~n:4 () in
    let engine = Ff_netsim.Engine.create () in
    (* not a scenario: a lone state transfer over an idle chain, no traffic *)
    let net = Ff_netsim.Net.create engine topo in
    let s0 = (T.node_by_name topo "s0").T.id in
    let s3 = (T.node_by_name topo "s3").T.id in
    if loss > 0. then
      ignore
        (Ff_scaling.Loss.install net ~sw:(s0 + 1) ~prob:loss ~seed
           ~classes:Ff_scaling.Loss.State_chunks_only ());
    let done_at = ref infinity in
    let x =
      Ff_scaling.Transfer.send net ~src_sw:s0 ~dst_sw:s3 ~entries ~fec
        ~on_complete:(fun _ -> done_at := Ff_netsim.Engine.now engine)
        ()
    in
    Ff_netsim.Engine.run engine ~until:30.;
    ( Ff_scaling.Transfer.complete x, !done_at, Ff_scaling.Transfer.chunks_sent x,
      Ff_scaling.Transfer.retransmitted_groups x, Ff_scaling.Transfer.fec_recoveries x )
  in
  let average ~loss ~fec =
    let seeds = [ 11; 22; 33; 44; 55 ] in
    let ok, time, chunks, retx, recov =
      List.fold_left
        (fun (ok, time, chunks, retx, recov) seed ->
          let o, t, c, r, v = run ~loss ~fec ~seed in
          ((if o then ok + 1 else ok), time +. t, chunks + c, retx + r, recov + v))
        (0, 0., 0, 0, 0) seeds
    in
    let n = float_of_int (List.length seeds) in
    (ok, time /. n, float_of_int chunks /. n, float_of_int retx /. n, float_of_int recov /. n)
  in
  let rows =
    List.concat_map
      (fun loss ->
        List.map
          (fun fec ->
            let ok, time, chunks, retx, recov = average ~loss ~fec in
            [ Printf.sprintf "%.0f%%" (loss *. 100.);
              (if fec then "on" else "off");
              Printf.sprintf "%d/5" ok;
              (if time = infinity then "-" else Printf.sprintf "%.0f" (time *. 1000.));
              Printf.sprintf "%.0f" chunks;
              Printf.sprintf "%.1f" retx;
              Printf.sprintf "%.1f" recov ])
          [ true; false ])
      [ 0.; 0.05; 0.1; 0.2; 0.3 ]
  in
  Table.print
    ~header:
      [ "loss"; "FEC"; "completed"; "time (ms)"; "chunks sent"; "retx groups";
        "FEC recoveries" ]
    ~rows;
  print_endline "\n(parity lets a group survive one lost chunk without waiting out the";
  print_endline " retransmission timer: completion time stays near-flat under moderate loss)"

(* ------------------------------------------------------------------ *)
(* abl-scaling: repurposing downtime vs. fast-reroute                  *)
(* ------------------------------------------------------------------ *)

let abl_scaling () =
  let run ~downtime ~fast_reroute =
    let lm = T.Fig2.build () in
    let topo = lm.T.Fig2.topo in
    let engine = Ff_netsim.Engine.create () in
    (* hand-built: switch repurposing is not a spec element yet *)
    let net = Ff_netsim.Net.create engine topo in
    Ff_netsim.Net.install_shortest_paths net;
    let mid_of (l : T.link) = if l.T.a = lm.T.Fig2.agg then l.T.b else l.T.a in
    let m1 = mid_of (List.hd lm.T.Fig2.critical) in
    let src = List.hd lm.T.Fig2.normal_sources in
    Ff_netsim.Net.set_route net ~sw:lm.T.Fig2.agg ~dst:lm.T.Fig2.victim ~next_hop:m1;
    Ff_netsim.Net.set_route net ~sw:m1 ~dst:lm.T.Fig2.victim ~next_hop:lm.T.Fig2.victim_agg;
    let flow = Ff_netsim.Flow.Cbr.start net ~src ~dst:lm.T.Fig2.victim ~rate_pps:200. () in
    Ff_netsim.Engine.schedule engine ~at:2. (fun () ->
        if fast_reroute then
          Ff_scaling.Repurpose.repurpose net ~sw:m1 ~downtime
            ~install:(fun () -> ())
            ~on_done:(fun _ -> ())
            ()
        else begin
          (* no neighbor notification: the switch just goes dark *)
          Ff_netsim.Net.set_switch_up net ~sw:m1 false;
          Ff_netsim.Engine.after engine ~delay:downtime (fun () ->
              Ff_netsim.Net.set_switch_up net ~sw:m1 true)
        end);
    Ff_netsim.Engine.run engine ~until:10.;
    Ff_netsim.Flow.Cbr.delivered_bytes flow
    /. float_of_int (Ff_netsim.Flow.Cbr.sent_packets flow * 1000)
  in
  let rows =
    List.map
      (fun downtime ->
        let with_frr = run ~downtime ~fast_reroute:true in
        let without = run ~downtime ~fast_reroute:false in
        [ (if downtime = 0. then "0 (Trident-style)" else Printf.sprintf "%.1f" downtime);
          Printf.sprintf "%.1f%%" (100. *. with_frr);
          Printf.sprintf "%.1f%%" (100. *. without) ])
      [ 0.; 0.5; 2.; 5. ]
  in
  Table.print
    ~header:[ "downtime (s)"; "delivery w/ fast reroute"; "delivery w/o notification" ]
    ~rows;
  print_endline "\n(with neighbor notification the reconfiguration is invisible even for";
  print_endline " Tofino-style multi-second installs; without it, downtime = loss)"


(* ------------------------------------------------------------------ *)
(* abl-pulse: short-lived pulsing attacks (paper Fig. 2 caption)       *)
(* ------------------------------------------------------------------ *)

let abl_pulse () =
  let run ~defend ~duty =
    let lm = T.Fig2.build ~bots:8 ~normals:4 () in
    let defense =
      if defend then Scenario.Fastflex Orchestrator.default_config else Scenario.No_defense
    in
    let r =
      Scenario.run
        (Scenario.fig2_spec ~defense lm ~boosters:[ Scenario.fig2_lfa lm ]
           [ Scenario.Pulse
               { bots = lm.T.Fig2.bot_sources; victim = lm.T.Fig2.victim; burst_pps = 250.; duty;
                 start = 10. } ])
    in
    Scenario.mean_goodput r ~from:12.
  in
  let rows =
    List.map
      (fun duty ->
        [ Printf.sprintf "%.0f%%" (duty *. 100.);
          Printf.sprintf "%.2f" (run ~defend:false ~duty);
          Printf.sprintf "%.2f" (run ~defend:true ~duty) ])
      [ 0.1; 0.2; 0.5 ]
  in
  Table.print ~header:[ "duty cycle"; "undefended goodput"; "fastflex goodput" ] ~rows;
  print_endline "\n(low/medium duty: classification catches the persistent senders and the";
  print_endline " multimode defense absorbs the pulses. At 50% duty the sustained congestion";
  print_endline " depresses normal flows below the suspicion threshold too - classification";
  print_endline " collateral, the false-positive risk the paper's indistinguishability";
  print_endline " discussion warns about; see abl-probe for the threshold sensitivity)"

(* ------------------------------------------------------------------ *)
(* abl-sync: local vs network-wide detection (paper section 3.3)       *)
(* ------------------------------------------------------------------ *)

let abl_sync () =
  let run ~rate_pps_per_bot =
    let lm = T.Fig2.build ~bots:8 ~normals:4 () in
    let topo = lm.T.Fig2.topo in
    let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
    let r =
      Scenario.run
        { testbed = { topo; routes = Ff_netsim.Net.install_shortest_paths }; server = None;
          flows = []; defense = Scenario.Fastflex Orchestrator.default_config;
          (* a local-only detector (the same per-destination logic, its
             view limited to one ingress) beside the network-wide one *)
          boosters =
            [ Orchestrator.Network_wide_hh { ingresses = [ e1 ] };
              Orchestrator.Network_wide_hh { ingresses = [ e1; e2 ] } ];
          attacks =
            [ Scenario.Flood
                { bots = lm.T.Fig2.bot_sources; victim = lm.T.Fig2.victim;
                  rate_pps = rate_pps_per_bot; start = 1.; spoof_as = [] } ];
          duration = 8.; sample_period = None; hook = ignore }
    in
    match (Option.get r.Scenario.deployment).Orchestrator.network_hhs with
    | [ local; nw ] ->
      let module N = Ff_boosters.Network_wide_hh in
      (N.alarmed local, N.alarmed nw, N.sync_probes nw)
    | _ -> assert false
  in
  let rows =
    List.map
      (fun rate_pps_per_bot ->
        let total_mbps = rate_pps_per_bot *. 8. *. 8000. /. 1e6 in
        let local, nw, probes = run ~rate_pps_per_bot in
        [ Printf.sprintf "%.1f" total_mbps;
          (if local then "yes" else "no");
          (if nw then "yes" else "no");
          string_of_int probes ])
      [ 40.; 80.; 125.; 250. ]
  in
  Table.print
    ~header:
      [ "aggregate flood (Mb/s)"; "local detector fires"; "network-wide fires"; "sync probes" ]
    ~rows;
  print_endline "\n(between ~6 and ~12 Mb/s aggregate, each ingress sees under the threshold:";
  print_endline " only the synchronized network-wide view catches the attack)"


(* fat-tree(4) with the victim on pod 0 edge 0 and two decoys on pod 0
   edge 1, and LFA detection on every switch protecting the three *)
let fat_tree4 () =
  let topo = T.fat_tree ~k:4 () in
  let id name = (T.node_by_name topo name).T.id in
  let victim = id "h0_0_0" and decoys = [ id "h0_1_0"; id "h0_1_1" ] in
  let sites = Orchestrator.pervasive topo in
  (topo, id, victim, decoys, Orchestrator.Lfa { sites; protect = victim :: decoys; handoff = None })

(* ------------------------------------------------------------------ *)
(* abl-topo: the architecture beyond the case-study topology           *)
(* ------------------------------------------------------------------ *)

let abl_topo () =
  (* victim in pod 0 edge 0; decoys on pod 0 edge 1; the two critical
     cuts are the core->agg0_0 and core->agg0_1 downlinks into the pod *)
  let run ~defend =
    let topo, id, victim, decoys, lfa = fat_tree4 () in
    let decoy1 = List.nth decoys 0 and decoy2 = List.nth decoys 1 in
    (* one normal flow through each targeted core downlink, two on
       untouched cores: each attack round cuts a quarter of the normal
       traffic *)
    let normal_specs =
      [ ("h1_0_0", "agg1_0", "core0", "agg0_0"); ("h1_1_0", "agg1_1", "core2", "agg0_1");
        ("h2_0_0", "agg2_0", "core1", "agg0_0"); ("h2_1_0", "agg2_1", "core3", "agg0_1") ]
    in
    let routes net =
      let path dst hops = Ff_netsim.Net.install_path net ~dst (List.map id hops @ [ dst ]) in
      Ff_netsim.Net.install_shortest_paths net;
      (* pin each decoy behind a different aggregation path into pod 0
         (agg0_0 reachable via core0/core1, agg0_1 via core2/core3), giving
         the attacker its two rollable targets; each decoy's traffic goes
         through one core, whose downlink into pod 0 is the target link *)
      List.iter
        (fun pod ->
          List.iter
            (fun e ->
              let edge = Printf.sprintf "edge%d_%d" pod e and agg = Printf.sprintf "agg%d_%d" pod in
              path decoy1 [ edge; agg 0; "core0"; "agg0_0"; "edge0_1" ];
              path decoy2 [ edge; agg 1; "core2"; "agg0_1"; "edge0_1" ])
            [ 0; 1 ])
        [ 1; 2; 3 ];
      path decoy1 [ "core1"; "agg0_0"; "edge0_1" ];
      path decoy2 [ "core3"; "agg0_1"; "edge0_1" ];
      (* the normal flows from pods 1-2, split over the two agg paths into
         pod 0 *)
      List.iter
        (fun (src, agg_src, core, agg_dst) ->
          let src = id src in
          Ff_netsim.Net.install_pair_path net ~src ~dst:victim
            (src :: Ff_netsim.Net.access_switch net ~host:src
             :: List.map id [ agg_src; core; agg_dst; "edge0_0" ] @ [ victim ]))
        normal_specs
    in
    (* tighter suspicious-flow budget than the fig2 scenario: the fat-tree
       pod has no spare detour capacity, so mitigation leans on policing
       (24 suspicious flows x 150 kb/s = 3.6 Mb/s residual) *)
    let config = { Orchestrator.default_config with drop_rate_limit = 150_000. } in
    let r =
      Scenario.run
        { testbed = { topo; routes }; server = None;
          flows =
            List.map
              (fun (src, _, _, _) -> Scenario.Tcp { src = id src; dst = victim; max_cwnd = 3. })
              normal_specs;
          defense = (if defend then Scenario.Fastflex config else Scenario.No_defense);
          boosters = [ lfa ];
          (* rolling Crossfire from 8 bots spread over pods 1-3 *)
          attacks =
            [ Scenario.Crossfire
                { bots =
                    List.map id
                      [ "h1_0_1"; "h1_1_1"; "h2_0_1"; "h2_1_1"; "h3_0_0"; "h3_0_1"; "h3_1_0";
                        "h3_1_1" ];
                  decoy_groups = [ [ decoy1 ]; [ decoy2 ] ];
                  plan = { Scenario.default_attack with start = 10.; roll_schedule = [ 35. ] } } ];
          duration = 60.; sample_period = Some 0.5; hook = ignore }
    in
    let baseline = Scenario.baseline r in
    let under_attack = List.map (fun v -> v /. baseline) (Scenario.window r.goodput 11. 60.) in
    (Scenario.mean_goodput r ~from:11., List.fold_left Float.min infinity under_attack)
  in
  let mean_u, min_u = run ~defend:false in
  let mean_d, min_d = run ~defend:true in
  Table.print
    ~header:[ "defense"; "mean goodput under attack"; "min" ]
    ~rows:
      [ [ "none"; Printf.sprintf "%.2f" mean_u; Printf.sprintf "%.2f" min_u ];
        [ "fastflex (deploy_wide)"; Printf.sprintf "%.2f" mean_d; Printf.sprintf "%.2f" min_d ] ];
  print_endline "\n(20 switches, detectors everywhere, alarms from whichever switch sees the";
  print_endline " congestion, classification activated network-wide by mode probes: the";
  print_endline " same multimode machinery generalizes beyond the paper's sketch topology)"


(* ------------------------------------------------------------------ *)
(* abl-vol: the volumetric scenario (HH -> modes -> police + HCF)      *)
(* ------------------------------------------------------------------ *)

let abl_vol () =
  let rows =
    List.concat_map
      (fun spoof ->
        List.map
          (fun defended ->
            let lm = T.Fig2.build ~bots:8 ~normals:4 () in
            let r = Scenario.run (Scenario.volumetric_spec ~defended ~spoof lm) in
            let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
            let filtered, policed =
              match r.Scenario.deployment with
              | Some d ->
                ( sum Ff_boosters.Hop_count_filter.filtered d.Orchestrator.hop_count_filters,
                  sum (fun (_, dr) -> Ff_boosters.Dropper.dropped dr) d.Orchestrator.droppers )
              | None -> (0, 0)
            in
            [ (if spoof then "yes" else "no");
              (if defended then "yes" else "no");
              Printf.sprintf "%.2f" (Scenario.mean_goodput r ~from:12.);
              string_of_int filtered;
              string_of_int policed ])
          [ false; true ])
      [ true; false ]
  in
  Table.print
    ~header:[ "spoofed"; "defended"; "normal goodput"; "hcf filtered"; "offenders policed" ]
    ~rows;
  print_endline "\n(HashPipe flags the 4.8 Mb/s offender flows, the mode probes light the";
  print_endline " drop + hcf modes, policing removes the volume and the hop-count filter";
  print_endline " discards the spoofed packets without touching the real address owners)"

(* ------------------------------------------------------------------ *)
(* synflood: the split-proxy SYN defense (cookies + cuckoo tracker)    *)
(* ------------------------------------------------------------------ *)

let synflood ~duration ~rate ~backlog ~syn_timeout =
  let run ?hardened defended =
    Scenario.run_synflood ~defended ?hardened ~duration ~attack_rate_pps:rate ~backlog ~syn_timeout
      ()
  in
  let undefended = run false and armed = run true and hardened = run ~hardened:true true in
  let row name cell = name :: List.map cell [ undefended; armed; hardened ] in
  let f2 x = Printf.sprintf "%.2f" x and int = string_of_int in
  Table.print
    ~header:[ "metric"; "none"; "armed"; "armed+hardening" ]
    ~rows:
      Scenario.
        [ row "normalized goodput" (fun r -> f2 r.sf_normalized_mean);
          row "baseline (B/s)" (fun r -> Printf.sprintf "%.0f" r.sf_baseline_goodput);
          row "peak backlog occupancy" (fun r -> f2 r.sf_peak_backlog_occupancy);
          row "backlog drops" (fun r -> int r.sf_backlog_drops);
          row "half-open timeouts" (fun r -> int r.sf_timeouts);
          row "established" (fun r -> int r.sf_established);
          row "client handshakes ok/failed" (fun r ->
              Printf.sprintf "%d / %d" r.sf_completed r.sf_failed);
          row "SYNs sent" (fun r -> int r.sf_syns_sent);
          row "cookies sent" (fun r -> int r.sf_cookies_sent);
          row "validated / rejected" (fun r ->
              Printf.sprintf "%d / %d" r.sf_validated r.sf_rejected);
          row "unverified drops" (fun r -> int r.sf_unverified_drops);
          row "cuckoo occupancy" (fun r -> Printf.sprintf "%.3f" r.sf_tracker_occupancy);
          row "cuckoo failed inserts" (fun r -> int r.sf_tracker_failed_inserts);
          row "mode changes" (fun r -> int r.sf_mode_changes);
          row "alarmed at end" (fun r -> string_of_bool r.sf_alarmed) ];
  Printf.printf "\n(%.0f SYNs/s of spoofed half-opens against a %d-slot backlog: undefended,\n"
    (8. *. rate) backlog;
  print_endline " every slot is a flood entry and clients time out; armed, the edge switch";
  print_endline " answers SYNs with stateless cookies, validated flows enter the cuckoo";
  print_endline " tracker, and the server accepts edge-validated handshakes backlog-free)";
  (* the undefended flood must actually kill the server, and the booster
     must actually bring it back *)
  let v = Harness.verdicts "synflood" in
  let floor = Harness.gate "synflood.undefended-goodput" in
  Harness.check v
    (undefended.Scenario.sf_peak_backlog_occupancy >= 1.0)
    (Printf.sprintf "undefended peak backlog occupancy %.2f, expected 1.0 (flood never filled it)"
       undefended.Scenario.sf_peak_backlog_occupancy);
  Harness.check v
    (undefended.Scenario.sf_normalized_mean < floor)
    (Printf.sprintf "undefended goodput %.2f, floor requires < %.2f"
       undefended.Scenario.sf_normalized_mean floor);
  let floor = Harness.gate "synflood.armed-goodput" in
  let threshold = Ff_dataplane.Cuckoo.occupancy_threshold in
  List.iter
    (fun (label, (r : Scenario.synflood_result)) ->
      Harness.check v
        (r.Scenario.sf_normalized_mean >= floor)
        (Printf.sprintf "%s goodput %.2f, floor requires >= %.2f" label
           r.Scenario.sf_normalized_mean floor);
      Harness.check v
        (r.Scenario.sf_tracker_occupancy < threshold)
        (Printf.sprintf "%s cuckoo occupancy %.3f breached the %.2f threshold" label
           r.Scenario.sf_tracker_occupancy threshold);
      Harness.check v r.Scenario.sf_alarmed
        (Printf.sprintf "%s guard never alarmed under a 16x-threshold flood" label);
      Harness.check v
        (r.Scenario.sf_tracker_failed_inserts = 0)
        (Printf.sprintf "%s tracker rejected %d validated flows" label
           r.Scenario.sf_tracker_failed_inserts))
    [ ("armed", armed); ("armed+hardening", hardened) ];
  Harness.conclude v ~all_hold:"all goodput and occupancy floors hold"

(* ------------------------------------------------------------------ *)
(* chaos: self-healing control channels under injected faults          *)
(* ------------------------------------------------------------------ *)

let chaos_exp () =
  let module Chaos = Ff_chaos.Chaos in
  (* part 1: mode convergence across a linear-8 chain whose middle link
     eats the first probe of every epoch (the cut-vertex failure
     fire-and-forget flooding cannot survive), plus 30% bursty loss on
     every control channel — without anti-entropy the far half of the
     chain never hears about the mode change *)
  print_endline
    "Mode convergence, linear-8 chain: middle link eats every first probe,\n\
     plus 30% bursty control-packet loss at every switch:";
  let converge ~anti_entropy ~seed =
    let topo = T.linear ~n:8 () in
    let engine = Ff_netsim.Engine.create () in
    (* not a scenario: a bare mode protocol raised by hand, no traffic *)
    let net = Ff_netsim.Net.create engine topo in
    let id name = (T.node_by_name topo name).T.id in
    let h = Chaos.create ~seed net in
    Chaos.drop_first_probe_per_epoch h ~a:(id "s3") ~b:(id "s4");
    List.iter
      (fun sw ->
        ignore
          (Chaos.burst_loss h ~sw ~start:0. ~until:infinity ~loss:0.3 ~mean_burst:2.
             ~classes:Ff_scaling.Loss.Control_only ()))
      (Ff_netsim.Net.switch_ids net);
    let p =
      Ff_modes.Protocol.create net ~modes_for:Orchestrator.modes_for ~anti_entropy ~seed ()
    in
    Ff_modes.Protocol.raise_alarm p ~sw:(id "s0") Ff_dataplane.Packet.Lfa;
    Ff_netsim.Engine.run engine ~until:8.;
    let active =
      List.filter (fun sw -> Ff_modes.Protocol.active p ~sw "reroute")
        (Ff_netsim.Net.switch_ids net)
    in
    let converged_at =
      if List.length active = 8 then
        List.fold_left (fun acc (t, _, _, up) -> if up then Float.max acc t else acc) 0.
          (Ff_modes.Protocol.log p)
      else infinity
    in
    (List.length active, converged_at, Ff_modes.Protocol.readverts p,
     Ff_modes.Protocol.repairs p)
  in
  let rows =
    List.concat_map
      (fun seed ->
        List.map
          (fun anti_entropy ->
            let n, at, readv, rep = converge ~anti_entropy ~seed in
            [ string_of_int seed;
              (if anti_entropy > 0. then Printf.sprintf "%.2fs" anti_entropy else "off");
              Printf.sprintf "%d/8" n;
              (if at = infinity then "never" else Printf.sprintf "%.2fs" at);
              string_of_int readv; string_of_int rep ])
          [ 0.; 0.25 ])
      [ 1; 2; 3 ]
  in
  Table.print
    ~header:[ "seed"; "anti-entropy"; "converged"; "by"; "readverts"; "repairs" ]
    ~rows;
  (* part 2: state transfer across a ring while its chunk path flaps —
     the live-path recompute should fail over to the other arc *)
  print_endline "\nState transfer s0->s3 on a ring-6, shortest-path link flapping:";
  let entries = List.init 400 (fun i -> (Printf.sprintf "reg[%d]" i, float_of_int i)) in
  let xfer_run ~seed ~fault =
    let topo = T.ring ~n:6 () in
    let engine = Ff_netsim.Engine.create () in
    (* not a scenario: a lone state transfer over an idle ring, no traffic *)
    let net = Ff_netsim.Net.create engine topo in
    let h = Chaos.create ~seed net in
    Chaos.watch h;
    let done_at = ref infinity in
    let x =
      Ff_scaling.Transfer.send net ~src_sw:0 ~dst_sw:3 ~entries ~seed
        ~on_complete:(fun _ -> done_at := Ff_netsim.Engine.now engine)
        ()
    in
    fault h;
    Ff_netsim.Engine.run engine ~until:10.;
    let violations = Chaos.check_quiescence h ~transfers:[ x ] () in
    (x, !done_at, violations)
  in
  let rows =
    List.map
      (fun seed ->
        let x, done_at, violations =
          xfer_run ~seed ~fault:(fun h ->
              Chaos.flap_link h ~a:1 ~b:2 ~start:0.004 ~until:2.0 ~down_dwell:0.5
                ~up_dwell:0.2)
        in
        [ string_of_int seed;
          (if Ff_scaling.Transfer.complete x then "yes" else "NO");
          (if done_at = infinity then "-" else Printf.sprintf "%.0fms" (done_at *. 1000.));
          string_of_int (Ff_scaling.Transfer.reroutes x);
          (match violations with [] -> "ok" | v -> String.concat "; " v) ])
      [ 1; 2; 3 ]
  in
  Table.print ~header:[ "seed"; "completed"; "time"; "reroutes"; "invariants" ] ~rows;
  (* part 3: no surviving path at all — the transfer must fail promptly
     with a reason instead of burning every retry *)
  print_endline "\nSame transfer when the destination crashes for good:";
  let x, _, _ =
    xfer_run ~seed:1 ~fault:(fun h ->
        Chaos.at h ~time:0.001 (Chaos.Switch_down 3))
  in
  Printf.printf "  failed=%b reason=%s (well before the %d-retry budget)\n"
    (Ff_scaling.Transfer.failed x)
    (Option.value ~default:"-" (Ff_scaling.Transfer.failure_reason x))
    10


(* ------------------------------------------------------------------ *)
(* micro: Bechamel micro-benchmarks of the primitives                  *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let sketch = Ff_dataplane.Sketch.create ~rows:4 ~cols:1024 () in
  let bloom = Ff_dataplane.Bloom.create ~bits:8192 ~hashes:4 () in
  let hashpipe = Ff_dataplane.Hashpipe.create ~stages:4 ~slots_per_stage:64 () in
  let heap = Ff_util.Heap.create () in
  let lm = T.Fig2.build () in
  let key = ref 0 in
  let lfa_parser = List.hd (Ff_boosters.Specs.specs_of "lfa-detector") in
  let fec_entries = List.init 64 (fun i -> (Printf.sprintf "r[%d]" i, float_of_int i)) in
  let fec_chunks = Ff_scaling.Fec.encode fec_entries in
  let tests =
    [
      Test.make ~name:"sketch-add"
        (Staged.stage (fun () ->
             incr key;
             Ff_dataplane.Sketch.add sketch !key 1.));
      Test.make ~name:"sketch-estimate"
        (Staged.stage (fun () -> ignore (Ff_dataplane.Sketch.estimate sketch 42)));
      Test.make ~name:"bloom-add"
        (Staged.stage (fun () ->
             incr key;
             Ff_dataplane.Bloom.add bloom !key));
      Test.make ~name:"bloom-mem"
        (Staged.stage (fun () -> ignore (Ff_dataplane.Bloom.mem bloom 42)));
      Test.make ~name:"hashpipe-update"
        (Staged.stage (fun () ->
             incr key;
             Ff_dataplane.Hashpipe.update hashpipe ~key:(!key mod 512) ~weight:1.));
      Test.make ~name:"event-heap-push-pop"
        (Staged.stage (fun () ->
             Ff_util.Heap.push heap ~prio:(float_of_int (!key mod 97)) ();
             incr key;
             ignore (Ff_util.Heap.pop heap)));
      Test.make ~name:"equiv-canonicalize"
        (Staged.stage (fun () -> ignore (Ff_dataflow.Equiv.canonical lfa_parser)));
      Test.make ~name:"yen-4-paths-fig2"
        (Staged.stage (fun () ->
             ignore
               (T.k_shortest_paths ~k:4 lm.T.Fig2.topo
                  ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim)));
      Test.make ~name:"fec-encode-64"
        (Staged.stage (fun () -> ignore (Ff_scaling.Fec.encode fec_entries)));
      Test.make ~name:"fec-decode-64"
        (Staged.stage (fun () -> ignore (Ff_scaling.Fec.decode fec_chunks)));
    ]
  in
  let grouped = Test.make_grouped ~name:"fastflex" tests in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (x :: _) -> x | _ -> nan in
        (name, ns) :: acc)
      results []
    |> List.sort compare
    |> List.map (fun (name, ns) -> [ name; Printf.sprintf "%.1f" ns ])
  in
  Table.print ~header:[ "operation"; "ns/op" ] ~rows

(* ------------------------------------------------------------------ *)
(* adversarial: closed-loop adaptive attackers vs hardened defenses     *)
(* ------------------------------------------------------------------ *)

(* Gates: the adaptive loop must out-damage the open-loop blast that the
   defense stops, hardening must blunt it back, and the hardened work
   factor must be adversarial.wf-floor x the recorded pre-hardening
   (unhardened, closed-loop) baseline of its strategy and seed: the
   "evasion resistance raised the attacker's cost" assertion. The run
   prints its own baseline lines in GATES's format, so re-recording after
   an intentional defense change is a paste. *)
let adversarial ~strategies ~seeds ~log =
  let gain = Harness.gate "adversarial.damage-gain"
  and residual = Harness.gate "adversarial.damage-residual"
  and wf_floor = Harness.gate "adversarial.wf-floor" in
  let v = Harness.verdicts "adversarial" in
  let runs =
    List.concat_map
      (fun strategy ->
        let sname = Ff_attacks.Adaptive.strategy_name strategy in
        List.map
          (fun seed ->
            Printf.printf "  %-15s seed %d ...%!" sname seed;
            let t0 = Unix.gettimeofday () in
            let run ?hardened adversary =
              Scenario.run_adversarial ~strategy ~adversary ?hardened ~seed ()
            in
            let open_loop = run Scenario.Open_loop in
            let adaptive = run Scenario.Closed_loop in
            let hardened = run ~hardened:true Scenario.Closed_loop in
            Printf.printf " %.1fs\n%!" (Unix.gettimeofday () -. t0);
            let fail fmt = Printf.ksprintf (Printf.sprintf "%s/seed=%d: %s" sname seed) fmt in
            Harness.check v
              (adaptive.Scenario.ar_damage >= gain *. open_loop.Scenario.ar_damage)
              (fail "adaptive damage %.2f < %.1fx open-loop %.2f" adaptive.Scenario.ar_damage gain
                 open_loop.Scenario.ar_damage);
            Harness.check v
              (hardened.Scenario.ar_damage
              <= residual *. Float.max 0.5 open_loop.Scenario.ar_damage)
              (fail "hardened damage %.2f > %.2fx open-loop %.2f" hardened.Scenario.ar_damage
                 residual open_loop.Scenario.ar_damage);
            let key = Harness.baseline_key strategy seed in
            (match Harness.find_gate key with
            | Some base ->
              Harness.check v
                (hardened.Scenario.ar_work_factor >= wf_floor *. base)
                (fail "hardened work factor %.0f < %.1fx baseline %.0f"
                   hardened.Scenario.ar_work_factor wf_floor base)
            | None -> Harness.check v false (fail "no %s line in bench/GATES" key));
            (key, sname, seed,
             [ ("open-loop", open_loop); ("adaptive", adaptive); ("adaptive+hard", hardened) ]))
          seeds)
      strategies
  in
  Table.print
    ~header:
      [ "strategy"; "seed"; "adversary"; "probes"; "damage"; "peak"; "tte"; "wf"; "alarms";
        "drops"; "rotations" ]
    ~rows:
      (List.concat_map
         (fun (_, sname, seed, by_adversary) ->
           List.map
             (fun (which, (r : Scenario.adversarial_result)) ->
               [ sname; string_of_int seed; which;
                 string_of_int r.Scenario.ar_probes;
                 Printf.sprintf "%.2f" r.Scenario.ar_damage;
                 Printf.sprintf "%.2f" r.Scenario.ar_peak_util;
                 (match r.Scenario.ar_effective_at with
                 | Some _ -> Printf.sprintf "%.1f" r.Scenario.ar_time_to_effective
                 | None -> "never");
                 Printf.sprintf "%.0f" r.Scenario.ar_work_factor;
                 string_of_int r.Scenario.ar_alarms;
                 string_of_int r.Scenario.ar_drops;
                 string_of_int r.Scenario.ar_rotations ])
             by_adversary)
         runs);
  if log then
    List.iter
      (fun (_, sname, seed, by_adversary) ->
        List.iter
          (fun (which, (r : Scenario.adversarial_result)) ->
            if r.Scenario.ar_adversary = Scenario.Closed_loop then begin
              Printf.printf "%s seed %d %s: %s\n" sname seed which r.Scenario.ar_summary;
              List.iter (Printf.printf "  | %s\n") r.Scenario.ar_log
            end)
          by_adversary)
      runs;
  print_endline "\nbench/GATES baseline lines (unhardened closed-loop work factors):";
  List.iter
    (fun (key, _, _, by_adversary) ->
      Printf.printf "%s: %.1f\n" key (List.assoc "adaptive" by_adversary).Scenario.ar_work_factor)
    runs;
  Harness.conclude v ~all_hold:"all work-factor and damage floors hold"
