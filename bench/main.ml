(* Benchmark & reproduction harness.

   One entry point per table/figure of the paper plus the ablations listed
   in DESIGN.md. With no argument every experiment runs in sequence:

     dune exec bench/main.exe              # everything
     dune exec bench/main.exe -- fig3      # one experiment
     dune exec bench/main.exe -- micro     # Bechamel micro-benchmarks

   Experiments: fig1 fig2 fig3 abl-te abl-probe abl-sharing abl-fec
                abl-scaling chaos micro perf

   [perf] is the end-to-end hot-path regression harness: it replays a
   fixed fat-tree + rolling-LFA scenario, measures packets/s, events/s
   and GC words per packet, and rewrites BENCH_netsim.json (preserving
   the committed "before" entry for comparison). *)

module T = Ff_topology.Topology
module Scenario = Fastflex.Scenario
module Orchestrator = Fastflex.Orchestrator
module Series = Ff_util.Series
module Table = Ff_util.Table

let banner name description =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s — %s\n" name description;
  Printf.printf "==================================================================\n%!"

(* ------------------------------------------------------------------ *)
(* fig1: module table, sharing, packing (paper Figure 1 a-c)           *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  banner "fig1" "booster decomposition, module sharing, switch packing";
  let compiled = Fastflex.Compile.boosters () in
  print_endline "Merged module table (paper Figure 1, 'Module | Stages | SRAM | TCAM'):";
  Table.print
    ~header:[ "module"; "shared-by"; "stages"; "SRAM(KB)"; "TCAM"; "ALUs"; "hash" ]
    ~rows:
      (List.map
         (fun (name, boosters, res) ->
           name :: string_of_int (List.length boosters) :: Ff_dataplane.Resource.to_row res)
         (Fastflex.Compile.module_rows compiled));
  Printf.printf "\nPPMs before merging: %d   after: %d   stage savings: %.0f%%\n"
    (List.fold_left
       (fun acc (_, g) -> acc + Ff_dataflow.Graph.num_vertices g)
       0 compiled.Fastflex.Compile.graphs)
    (Ff_dataflow.Graph.num_vertices compiled.Fastflex.Compile.merged)
    (100. *. compiled.Fastflex.Compile.savings);
  (* packing the whole catalogue *)
  print_endline "\nPacking the merged catalogue onto Tofino-class switches:";
  let rows =
    List.map
      (fun pool ->
        let switches = List.init pool Fun.id in
        match Fastflex.Compile.pack_onto compiled ~switches () with
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
  banner "fig2" "multimode data plane timeline: default -> detect -> mitigate -> rolling";
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
  banner "fig3" "normalized throughput under a 3-round rolling LFA (the paper's evaluation)";
  let run name defense =
    Printf.printf "  running %-14s ...%!" name;
    let r = Scenario.run_lfa ~defense ~duration:120. () in
    Printf.printf " mean %.2f  min %.2f  rolls %d  reconfigs %d\n%!"
      r.Scenario.mean_during_attack r.Scenario.min_during_attack
      (List.length r.Scenario.rolls) (List.length r.Scenario.reconfigs);
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

(* ------------------------------------------------------------------ *)
(* abl-te: baseline TE period sweep                                    *)
(* ------------------------------------------------------------------ *)

let abl_te () =
  banner "abl-te" "how fast must centralized TE be to keep up with a rolling attack?";
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
  banner "abl-probe" "reaction-time knobs: rerouting probe interval and classification age";
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
  banner "abl-sharing" "module sharing vs. naive per-booster deployment";
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
  banner "abl-fec" "in-band state transfer under loss: FEC vs. retransmission alone";
  let entries = List.init 400 (fun i -> (Printf.sprintf "reg[%d]" i, float_of_int i)) in
  let run ~loss ~fec ~seed =
    let topo = T.linear ~n:4 () in
    let engine = Ff_netsim.Engine.create () in
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
  banner "abl-scaling" "switch repurposing: downtime model vs. traffic continuity";
  let run ~downtime ~fast_reroute =
    let lm = T.Fig2.build () in
    let topo = lm.T.Fig2.topo in
    let engine = Ff_netsim.Engine.create () in
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
  banner "abl-pulse" "pulsing (shrew-style) attacks against the multimode data plane";
  let run ~defend ~duty =
    let lm = T.Fig2.build ~bots:8 ~normals:4 () in
    let topo = lm.T.Fig2.topo in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    Ff_netsim.Net.install_shortest_paths net;
    let matrix = Ff_te.Traffic_matrix.empty () in
    List.iter
      (fun n -> Ff_te.Traffic_matrix.set matrix ~src:n ~dst:lm.T.Fig2.victim 2_300_000.)
      lm.T.Fig2.normal_sources;
    let plan = Ff_te.Solver.solve ~k:2 topo matrix in
    Ff_te.Solver.install net plan;
    let normal_flows =
      List.map
        (fun n ->
          Ff_netsim.Flow.Tcp.start net ~src:n ~dst:lm.T.Fig2.victim ~at:0.5 ~max_cwnd:4. ())
        lm.T.Fig2.normal_sources
    in
    if defend then
      ignore (Orchestrator.deploy net ~landmarks:lm ~default_plan:plan ());
    let _atk =
      Ff_attacks.Pulsing.launch net ~bots:lm.T.Fig2.bot_sources ~victim:lm.T.Fig2.victim
        ~burst_pps:250. ~period:1.0 ~duty ~start:10. ()
    in
    let goodput =
      Ff_netsim.Monitor.aggregate_goodput net ~flows:normal_flows ~period:0.5 ~name:"g" ()
    in
    Ff_netsim.Engine.run engine ~until:60.;
    let vals t0 t1 =
      List.filter_map
        (fun (t, v) -> if t >= t0 && t <= t1 then Some v else None)
        (Series.points goodput)
    in
    let baseline = Ff_util.Stats.mean (vals 4. 9.) in
    Ff_util.Stats.mean (vals 12. 60.) /. Float.max 1. baseline
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
  banner "abl-sync" "distributed floods: local detection vs synchronized network-wide views";
  let run ~rate_pps_per_bot =
    let lm = T.Fig2.build ~bots:8 ~normals:4 () in
    let topo = lm.T.Fig2.topo in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    Ff_netsim.Net.install_shortest_paths net;
    let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
    let threshold = 6_000_000. in
    (* local-only detector: the same per-destination logic but with a view
       limited to one ingress (no synchronization) *)
    let local_alarm = ref false in
    let _local =
      Ff_boosters.Network_wide_hh.install net ~ingresses:[ e1 ] ~threshold_bps:threshold
        ~on_alarm:(fun _ -> local_alarm := true)
        ~on_clear:(fun _ -> ())
        ()
    in
    (* network-wide detector across both ingresses *)
    let nw_alarm = ref false in
    let nw =
      Ff_boosters.Network_wide_hh.install net ~ingresses:[ e1; e2 ] ~threshold_bps:threshold
        ~on_alarm:(fun _ -> nw_alarm := true)
        ~on_clear:(fun _ -> ())
        ()
    in
    List.iter
      (fun bot ->
        ignore
          (Ff_netsim.Flow.Cbr.start net ~src:bot ~dst:lm.T.Fig2.victim
             ~rate_pps:rate_pps_per_bot ~at:1. ()))
      lm.T.Fig2.bot_sources;
    Ff_netsim.Engine.run engine ~until:8.;
    (!local_alarm, !nw_alarm, Ff_boosters.Network_wide_hh.sync_probes nw)
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


(* ------------------------------------------------------------------ *)
(* abl-topo: the architecture beyond the case-study topology           *)
(* ------------------------------------------------------------------ *)

let abl_topo () =
  banner "abl-topo" "pervasive deployment on a fat-tree(4): same defense, bigger network";
  (* victim in pod 0 edge 0; decoys on pod 0 edge 1; the two critical
     cuts are the core->agg0_0 and core->agg0_1 downlinks into the pod *)
  let run ~defend =
    let topo = T.fat_tree ~k:4 () in
    let engine = Ff_netsim.Engine.create () in
    let net = Ff_netsim.Net.create engine topo in
    let id name = (T.node_by_name topo name).T.id in
    Ff_netsim.Net.install_shortest_paths net;
    let victim = id "h0_0_0" in
    let decoy1 = id "h0_1_0" and decoy2 = id "h0_1_1" in
    (* pin each decoy behind a different aggregation path into pod 0
       (agg0_0 reachable via core0/core1, agg0_1 via core2/core3), giving
       the attacker its two rollable targets *)
    List.iter
      (fun pod ->
        List.iter
          (fun e ->
            let edge = id (Printf.sprintf "edge%d_%d" pod e) in
            Ff_netsim.Net.set_route net ~sw:edge ~dst:decoy1
              ~next_hop:(id (Printf.sprintf "agg%d_0" pod));
            Ff_netsim.Net.set_route net ~sw:edge ~dst:decoy2
              ~next_hop:(id (Printf.sprintf "agg%d_1" pod));
            (* concentrate each decoy's traffic through one core: the
               attacker's target link is that core's downlink into pod 0 *)
            Ff_netsim.Net.set_route net
              ~sw:(id (Printf.sprintf "agg%d_0" pod))
              ~dst:decoy1 ~next_hop:(id "core0");
            Ff_netsim.Net.set_route net
              ~sw:(id (Printf.sprintf "agg%d_1" pod))
              ~dst:decoy2 ~next_hop:(id "core2"))
          [ 0; 1 ])
      [ 1; 2; 3 ];
    Ff_netsim.Net.set_route net ~sw:(id "core0") ~dst:decoy1 ~next_hop:(id "agg0_0");
    Ff_netsim.Net.set_route net ~sw:(id "core1") ~dst:decoy1 ~next_hop:(id "agg0_0");
    Ff_netsim.Net.set_route net ~sw:(id "core2") ~dst:decoy2 ~next_hop:(id "agg0_1");
    Ff_netsim.Net.set_route net ~sw:(id "core3") ~dst:decoy2 ~next_hop:(id "agg0_1");
    Ff_netsim.Net.set_route net ~sw:(id "agg0_0") ~dst:decoy1 ~next_hop:(id "edge0_1");
    Ff_netsim.Net.set_route net ~sw:(id "agg0_1") ~dst:decoy2 ~next_hop:(id "edge0_1");
    Ff_netsim.Net.set_route net ~sw:(id "agg0_0") ~dst:decoy1 ~next_hop:(id "edge0_1");
    Ff_netsim.Net.set_route net ~sw:(id "agg0_1") ~dst:decoy2 ~next_hop:(id "edge0_1");
    (* normal flows from pods 1-2, split over the two agg paths into pod 0 *)
    let normal_specs =
      (* one flow through each targeted core downlink, two on untouched
         cores: each attack round cuts a quarter of the normal traffic *)
      [ ("h1_0_0", "agg1_0", "core0", "agg0_0"); ("h1_1_0", "agg1_1", "core2", "agg0_1");
        ("h2_0_0", "agg2_0", "core1", "agg0_0"); ("h2_1_0", "agg2_1", "core3", "agg0_1") ]
    in
    let normal_flows =
      List.map
        (fun (src_name, agg_src, core, agg_dst) ->
          let src = id src_name in
          let src_edge = Ff_netsim.Net.access_switch net ~host:src in
          Ff_netsim.Net.install_pair_path net ~src ~dst:victim
            [ src; src_edge; id agg_src; id core; id agg_dst; id "edge0_0"; victim ];
          Ff_netsim.Flow.Tcp.start net ~src ~dst:victim ~at:0.5 ~max_cwnd:3. ())
        normal_specs
    in
    if defend then begin
      (* tighter suspicious-flow budget than the fig2 scenario: the
         fat-tree pod has no spare detour capacity, so mitigation leans on
         policing (24 suspicious flows x 150 kb/s = 3.6 Mb/s residual) *)
      let config =
        { Fastflex.Orchestrator.default_config with drop_rate_limit = 150_000. }
      in
      ignore
        (Fastflex.Orchestrator.deploy_wide net ~protect:[ victim; decoy1; decoy2 ] ~config ())
    end;
    (* rolling Crossfire from 8 bots spread over pods 1-3 *)
    let bots =
      List.map id
        [ "h1_0_1"; "h1_1_1"; "h2_0_1"; "h2_1_1"; "h3_0_0"; "h3_0_1"; "h3_1_0"; "h3_1_1" ]
    in
    let _atk =
      Ff_attacks.Lfa.launch net ~bots ~decoy_groups:[ [ decoy1 ]; [ decoy2 ] ] ~start:10.
        ~roll_schedule:[ 35. ] ()
    in
    let goodput =
      Ff_netsim.Monitor.aggregate_goodput net ~flows:normal_flows ~period:0.5 ~name:"g" ()
    in
    Ff_netsim.Engine.run engine ~until:60.;
    let vals t0 t1 =
      List.filter_map
        (fun (t, v) -> if t >= t0 && t <= t1 then Some v else None)
        (Series.points goodput)
    in
    let baseline = Float.max 1. (Ff_util.Stats.mean (vals 4. 9.)) in
    ( Ff_util.Stats.mean (vals 11. 60.) /. baseline,
      List.fold_left Float.min infinity (List.map (fun v -> v /. baseline) (vals 11. 60.)) )
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
  banner "abl-vol" "volumetric DDoS with spoofing: heavy-hitter detection through the modes";
  let rows =
    List.concat_map
      (fun spoof ->
        List.map
          (fun defended ->
            let r = Scenario.run_volumetric ~defended ~spoof () in
            [ (if spoof then "yes" else "no");
              (if defended then "yes" else "no");
              Printf.sprintf "%.2f" r.Scenario.vr_normalized_mean;
              string_of_int r.Scenario.vr_spoofed_filtered;
              string_of_int r.Scenario.vr_offender_drops ])
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

let synflood_exp () =
  banner "synflood"
    "SYN flood vs the split-proxy booster: SYN cookies at the edge, cuckoo tracker";
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let row ~label (r : Scenario.synflood_result) =
    [ label;
      Printf.sprintf "%.2f" r.Scenario.sf_normalized_mean;
      Printf.sprintf "%.2f" r.Scenario.sf_peak_backlog_occupancy;
      string_of_int r.Scenario.sf_backlog_drops;
      string_of_int r.Scenario.sf_completed;
      string_of_int r.Scenario.sf_failed;
      string_of_int r.Scenario.sf_cookies_sent;
      string_of_int r.Scenario.sf_validated;
      Printf.sprintf "%.3f" r.Scenario.sf_tracker_occupancy ]
  in
  let undefended = Scenario.run_synflood ~defended:false () in
  let armed = Scenario.run_synflood ~defended:true () in
  let hardened = Scenario.run_synflood ~defended:true ~hardened:true () in
  Table.print
    ~header:
      [ "defense"; "goodput"; "peak backlog"; "backlog drops"; "completed";
        "failed"; "cookies"; "validated"; "cuckoo load" ]
    ~rows:
      [ row ~label:"none" undefended;
        row ~label:"armed" armed;
        row ~label:"armed+hardening" hardened ];
  print_endline "\n(3200 SYNs/s of spoofed half-opens against a 64-slot backlog: undefended,";
  print_endline " every slot is a flood entry and clients time out; armed, the edge switch";
  print_endline " answers SYNs with stateless cookies, validated flows enter the cuckoo";
  print_endline " tracker, and the server accepts edge-validated handshakes backlog-free)";
  (* hard floors (ISSUE 10): the undefended flood must actually kill the
     server, and the booster must actually bring it back *)
  if undefended.Scenario.sf_peak_backlog_occupancy < 1.0 then
    fail "undefended peak backlog occupancy %.2f, expected 1.0 (flood never filled it)"
      undefended.Scenario.sf_peak_backlog_occupancy;
  if undefended.Scenario.sf_normalized_mean >= 0.20 then
    fail "undefended goodput %.2f, floor requires < 0.20"
      undefended.Scenario.sf_normalized_mean;
  List.iter
    (fun (label, (r : Scenario.synflood_result)) ->
      if r.Scenario.sf_normalized_mean < 0.90 then
        fail "%s goodput %.2f, floor requires >= 0.90" label r.Scenario.sf_normalized_mean;
      if r.Scenario.sf_tracker_occupancy >= Ff_dataplane.Cuckoo.occupancy_threshold then
        fail "%s cuckoo occupancy %.3f breached the %.2f threshold" label
          r.Scenario.sf_tracker_occupancy Ff_dataplane.Cuckoo.occupancy_threshold;
      if not r.Scenario.sf_alarmed then
        fail "%s guard never alarmed under a 16x-threshold flood" label;
      if r.Scenario.sf_tracker_failed_inserts > 0 then
        fail "%s tracker rejected %d validated flows" label
          r.Scenario.sf_tracker_failed_inserts)
    [ ("armed", armed); ("armed+hardening", hardened) ];
  match !failures with
  | [] -> print_endline "[synflood] all goodput and occupancy floors hold"
  | fs ->
    List.iter (fun f -> Printf.eprintf "[synflood] FAIL %s\n" f) fs;
    exit 1

(* ------------------------------------------------------------------ *)
(* chaos: self-healing control channels under injected faults          *)
(* ------------------------------------------------------------------ *)

let chaos_exp () =
  banner "chaos"
    "control channels under the conditions they exist for: probe loss, flaps, crashes";
  let module Chaos = Ff_chaos.Chaos in
  let modes_for = function
    | Ff_dataplane.Packet.Lfa -> [ "reroute"; "obfuscate" ]
    | Ff_dataplane.Packet.Volumetric -> [ "drop" ]
    | Ff_dataplane.Packet.Pulsing -> [ "reroute" ]
    | Ff_dataplane.Packet.Recon -> [ "obfuscate" ]
    | Ff_dataplane.Packet.Synflood -> [ "syn_guard" ]
  in
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
    let p = Ff_modes.Protocol.create net ~modes_for ~anti_entropy ~seed () in
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
(* perf: the hot-path regression benchmark (BENCH_netsim.json)         *)
(* ------------------------------------------------------------------ *)

(* A fixed, deterministic scenario that saturates the per-packet path:
   fat-tree(4), pervasive FastFlex deployment (so every packet crosses the
   booster stage pipeline), heavy CBR load plus TCP normal flows, and a
   rolling LFA. The measured numbers go to BENCH_netsim.json; the "before"
   entry of an existing file is preserved so the trajectory keeps the
   pre-optimization baseline from the same machine. *)

let perf_scenario () =
  let topo = T.fat_tree ~k:4 () in
  let engine = Ff_netsim.Engine.create () in
  let net = Ff_netsim.Net.create engine topo in
  let id name = (T.node_by_name topo name).T.id in
  Ff_netsim.Net.install_shortest_paths net;
  let victim = id "h0_0_0" in
  let decoy1 = id "h0_1_0" and decoy2 = id "h0_1_1" in
  ignore (Orchestrator.deploy_wide net ~protect:[ victim; decoy1; decoy2 ] ());
  (* open-loop load from every other pod: the constant-rate senders that
     exercise the batched emission path *)
  List.iteri
    (fun i src_name ->
      ignore
        (Ff_netsim.Flow.Cbr.start net ~src:(id src_name) ~dst:victim ~rate_pps:1200.
           ~packet_size:(400 + (100 * (i mod 3))) ~at:0.1 ()))
    [ "h1_0_0"; "h1_1_0"; "h2_0_0"; "h2_1_0"; "h3_0_0"; "h3_1_0" ];
  (* closed-loop normal flows (ack traffic doubles the hop count) *)
  let _tcp =
    List.map
      (fun src_name -> Ff_netsim.Flow.Tcp.start net ~src:(id src_name) ~dst:victim ~at:0.5 ())
      [ "h1_0_1"; "h2_0_1"; "h3_0_1" ]
  in
  let bots =
    List.map id [ "h1_1_1"; "h2_1_1"; "h3_1_1"; "h1_0_1"; "h2_0_1"; "h3_0_1" ]
  in
  let _atk =
    Ff_attacks.Lfa.launch net ~bots ~decoy_groups:[ [ decoy1 ]; [ decoy2 ] ] ~start:5.
      ~roll_schedule:[ 12.; 19.; 26. ] ()
  in
  Ff_netsim.Engine.run engine ~until:30.;
  net

type perf_sample = {
  packets : int;
  events : int;
  wall_s : float;
  packets_per_sec : float;
  events_per_sec : float;
  alloc_words_per_packet : float;
  drops : int;
}

let measure_perf () =
  Gc.compact ();
  let bytes0 = Gc.allocated_bytes () in
  let steps0 = Ff_netsim.Engine.total_steps () in
  let created0 = Ff_dataplane.Packet.created () in
  let t0 = Unix.gettimeofday () in
  let net = perf_scenario () in
  let wall_s = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  Printf.printf "[perf] packets created: %d\n%!" (Ff_dataplane.Packet.created () - created0);

  let packets = Ff_netsim.Net.total_tx_packets net in
  let events = Ff_netsim.Engine.total_steps () - steps0 in
  let alloc_words = (Gc.allocated_bytes () -. bytes0) /. float_of_int (Sys.word_size / 8) in
  let drops =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Ff_netsim.Net.drops_by_reason net)
  in
  {
    packets;
    events;
    wall_s;
    packets_per_sec = float_of_int packets /. wall_s;
    events_per_sec = float_of_int events /. wall_s;
    alloc_words_per_packet = alloc_words /. float_of_int (max 1 packets);
    drops;
  }

let perf_json_file = "BENCH_netsim.json"

let sample_to_json s =
  Printf.sprintf
    "{ \"packets\": %d, \"events\": %d, \"wall_s\": %.3f, \"packets_per_sec\": %.0f, \
     \"events_per_sec\": %.0f, \"alloc_words_per_packet\": %.1f, \"drops\": %d }"
    s.packets s.events s.wall_s s.packets_per_sec s.events_per_sec s.alloc_words_per_packet
    s.drops

(* Extract the balanced-brace object following "key": from a JSON text.
   Enough for the file this benchmark itself writes; no JSON dependency. *)
let extract_object text key =
  let pat = Printf.sprintf "\"%s\":" key in
  match
    (* find the pattern *)
    let plen = String.length pat and tlen = String.length text in
    let rec find i =
      if i + plen > tlen then None
      else if String.sub text i plen = pat then Some (i + plen)
      else find (i + 1)
    in
    find 0
  with
  | None -> None
  | Some start -> (
    let tlen = String.length text in
    let rec skip i = if i < tlen && text.[i] <> '{' then skip (i + 1) else i in
    let open_ = skip start in
    if open_ >= tlen then None
    else
      let rec scan i depth =
        if i >= tlen then None
        else
          match text.[i] with
          | '{' -> scan (i + 1) (depth + 1)
          | '}' -> if depth = 1 then Some (String.sub text open_ (i + 1 - open_)) else scan (i + 1) (depth - 1)
          | _ -> scan (i + 1) depth
      in
      scan open_ 0)

let read_file path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end
  else None

(* The allocation guardrail: bench/ALLOC_BUDGET holds the maximum
   alloc_words_per_packet the perf run may report ('#'-prefixed lines are
   comments). Unlike throughput, the allocation figure is deterministic
   across machines, so CI can assert it. *)
let alloc_budget_file = "bench/ALLOC_BUDGET"

let read_alloc_budget () =
  match read_file alloc_budget_file with
  | None -> None
  | Some text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None else float_of_string_opt line)

let check_alloc_budget s =
  match read_alloc_budget () with
  | None ->
    Printf.printf
      "[perf] no %s file found (or no numeric line in it); skipping allocation check\n"
      alloc_budget_file
  | Some budget ->
    if s.alloc_words_per_packet > budget then begin
      Printf.printf
        "[perf] FAIL: alloc_words_per_packet %.1f exceeds budget %.1f (%s)\n\
         [perf] a change has reintroduced per-packet allocation on the hot path\n"
        s.alloc_words_per_packet budget alloc_budget_file;
      exit 1
    end
    else
      Printf.printf "[perf] allocation check ok: %.1f <= budget %.1f words/packet\n"
        s.alloc_words_per_packet budget

(* ------------------------------------------------------------------ *)
(* perf --shards N: the sharded parallel engine on fat-tree(8)         *)
(* ------------------------------------------------------------------ *)

(* Set by the --shards command-line option; perf then also measures the
   sharded engine and records a "parallel" section in BENCH_netsim.json. *)
let shards_opt : int option ref = ref None

type parallel_sample = {
  p_shards : int;
  p_cores : int;
  p_mode : string;
  p_packets : int;
  p_events : int;
  p_windows : int;
  p_exchanged : int;
  p_wall_s : float;
  p_pps : float;
  p_baseline_pps : float;
  p_speedup : float;
  p_alloc_words_per_packet : float;
  p_identical : bool;
  p_shard_events : int array;
  p_imbalance : float;
}

(* The sharded scenario is bigger than the sequential regression one
   (fat-tree(8): 80 switches, 128 hosts, one cross-pod CBR flow per host)
   because the parallel engine's purpose is scale; the same run executed
   with 1 shard on the same windowed code path is the speedup baseline,
   and its counters are the determinism oracle: sharding must change
   {e nothing} but wall time. *)
let measure_parallel ~shards =
  let w = Ff_parallel.Workload.fat_tree ~k:8 ~rate_pps:500. ~duration:2.0 () in
  let run ~shards ~mode =
    Gc.compact ();
    let c = Ff_parallel.Workload.fresh_counters w in
    let t0 = Unix.gettimeofday () in
    let r =
      Ff_parallel.Psim.run ~mode ~shards ~topo:(Ff_parallel.Workload.topo w)
        ~setup:(Ff_parallel.Workload.setup w c)
        ~until:(Ff_parallel.Workload.until w) ()
    in
    (r, c, Float.max 1e-9 (Unix.gettimeofday () -. t0))
  in
  let r1, c1, wall1 = run ~shards:1 ~mode:Ff_parallel.Psim.Sequential in
  let rn, cn, walln = run ~shards ~mode:Ff_parallel.Psim.Auto in
  let module P = Ff_parallel.Psim in
  let module W = Ff_parallel.Workload in
  let tx1 = P.total_tx r1 and txn = P.total_tx rn in
  let identical =
    tx1 = txn
    && r1.P.events = rn.P.events
    && P.drops_by_reason r1 = P.drops_by_reason rn
    && c1.W.delivered = cn.W.delivered
    && c1.W.time_sum = cn.W.time_sum
  in
  let word = float_of_int (Sys.word_size / 8) in
  {
    p_shards = shards;
    p_cores = Domain.recommended_domain_count ();
    p_mode = (match rn.P.mode_used with P.Domains -> "domains" | _ -> "sequential");
    p_packets = txn;
    p_events = rn.P.events;
    p_windows = rn.P.windows;
    p_exchanged = rn.P.exchanged;
    p_wall_s = walln;
    p_pps = float_of_int txn /. walln;
    p_baseline_pps = float_of_int tx1 /. wall1;
    p_speedup = wall1 /. walln;
    p_alloc_words_per_packet = rn.P.alloc_bytes /. word /. float_of_int (max 1 txn);
    p_identical = identical;
    p_shard_events = P.shard_events rn;
    p_imbalance = P.imbalance rn;
  }

(* the shard-speedup assertion is armed only when the hardware can show a
   speedup at all: more than one core, and at least as many cores as
   shards (and enough shards for the 2.5x target to be meaningful) *)
let speedup_armed p = p.p_cores > 1 && p.p_cores >= p.p_shards && p.p_shards >= 4

let parallel_to_json p =
  Printf.sprintf
    "{ \"shards\": %d, \"cores\": %d, \"mode\": %S, \"packets\": %d, \"events\": %d, \
     \"windows\": %d, \"exchanged\": %d, \"wall_s\": %.3f, \"packets_per_sec\": %.0f, \
     \"baseline_pps\": %.0f, \"speedup_vs_1\": %.2f, \"speedup_armed\": %b, \
     \"alloc_words_per_packet\": %.1f, \"counts_identical\": %b, \"shard_events\": [%s], \
     \"shard_imbalance\": %.3f }"
    p.p_shards p.p_cores p.p_mode p.p_packets p.p_events p.p_windows p.p_exchanged
    p.p_wall_s p.p_pps p.p_baseline_pps p.p_speedup (speedup_armed p)
    p.p_alloc_words_per_packet p.p_identical
    (String.concat ", " (Array.to_list (Array.map string_of_int p.p_shard_events)))
    p.p_imbalance

(* The sharded path has its own allocation budget: a 'shard: <N>' line in
   bench/ALLOC_BUDGET (mailbox drains and window bookkeeping allocate a
   little more per packet than the pure sequential loop). *)
let read_sharded_alloc_budget () =
  match read_file alloc_budget_file with
  | None -> None
  | Some text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           let line = String.trim line in
           if String.length line > 6 && String.sub line 0 6 = "shard:" then
             float_of_string_opt
               (String.trim (String.sub line 6 (String.length line - 6)))
           else None)

(* Per-shard engine events, max / mean. The weighted partition measures
   1.29 on this scenario at 2 shards; the count-balanced one it replaced
   measured 1.82. *)
let max_shard_imbalance = 1.4

let shard_balance_cell events imbalance =
  Printf.sprintf "%.3f (events %s)" imbalance
    (String.concat "/" (Array.to_list (Array.map string_of_int events)))

let check_parallel p =
  if not p.p_identical then begin
    Printf.printf
      "[perf] FAIL: sharded run (%d shards, %s mode) diverged from the 1-shard run\n\
       [perf] the parallel engine is the determinism oracle: a divergence means a \
       data race or a broken window/tie rule\n"
      p.p_shards p.p_mode;
    exit 1
  end;
  Printf.printf "[perf] determinism check ok: %d shards bit-identical to 1 shard\n"
    p.p_shards;
  (* a count, not a timing: the partition either spreads the events or it
     does not, on any machine *)
  if p.p_imbalance > max_shard_imbalance then begin
    Printf.printf
      "[perf] FAIL: shard imbalance %s exceeds %.2f\n\
       [perf] the region partition no longer spreads the work: the busiest shard bounds \
       the speedup at %.2fx\n"
      (shard_balance_cell p.p_shard_events p.p_imbalance)
      max_shard_imbalance
      (float_of_int p.p_shards /. p.p_imbalance);
    exit 1
  end;
  Printf.printf "[perf] shard balance check ok: imbalance %.3f <= %.2f\n" p.p_imbalance
    max_shard_imbalance;
  (match read_sharded_alloc_budget () with
  | None ->
    Printf.printf "[perf] no 'shard:' line in %s; skipping sharded allocation check\n"
      alloc_budget_file
  | Some budget ->
    if p.p_alloc_words_per_packet > budget then begin
      Printf.printf
        "[perf] FAIL: sharded alloc_words_per_packet %.1f exceeds budget %.1f (%s)\n"
        p.p_alloc_words_per_packet budget alloc_budget_file;
      exit 1
    end
    else
      Printf.printf "[perf] sharded allocation check ok: %.1f <= budget %.1f words/packet\n"
        p.p_alloc_words_per_packet budget);
  (* the speedup target only means something when the cores exist; on a
     single-core (or generally smaller) machine the number is recorded but
     the assertion stays disarmed — "speedup_armed" in the JSON says which *)
  if speedup_armed p && p.p_speedup < 2.5 then
    Printf.printf
      "[perf] WARNING: %.2fx speedup at %d shards on %d cores (target 2.5x)\n"
      p.p_speedup p.p_shards p.p_cores
  else if not (speedup_armed p) then
    Printf.printf
      "[perf] speedup assertion disarmed: %d shards on %d cores (needs >1 core and \
       cores >= shards >= 4)\n"
      p.p_shards p.p_cores

(* ------------------------------------------------------------------ *)
(* perf --fluid: the hybrid fluid/packet tier at ISP scale             *)
(* ------------------------------------------------------------------ *)

(* Set by --fluid; perf then also sweeps the hybrid engine over growing
   flow populations and records a "fluid" section in BENCH_netsim.json. *)
let fluid_opt = ref false

type fluid_sample = {
  f_flows : int;
  f_classes : int;
  f_wall_s : float;
  f_equivalents : float;
  f_equiv_per_sec : float;
  f_demoted_frac_peak : float;
  f_demotions : int;
  f_promotions : int;
  f_demote_denied : int;
  f_solves : int;
  f_skipped : int;
  f_full_solves : int;
  f_touched_frac : float;
  f_loss_cuts : int;
  f_alloc_words_per_equiv : float;
}

(* One hybrid run of the rolling-LFA ISP scenario (Scenario.run_lfa_fluid):
   100k+ benign flows ride the fluid tier, the flood volume is fluid
   aggregates, and the defense's mode protocol demotes the flows near the
   action to packet level. Work is measured in packet-equivalents: actual
   per-hop packet transmissions plus fluid hop-bytes / packet_size. *)
(* Above 100k flows the per-flow rate scales down so the aggregate benign
   offer stays ~4 Gb/s: a million users means thinner flows, not a
   thousandfold-oversubscribed ISP, and it keeps the benign population
   bound-limited so the attack's bottleneck components stay local. The
   demote budget caps packet-tier churn at the same scale, and the goodput
   probe (O(members) per sample) backs off to keep measurement out of the
   measured number. *)
let measure_fluid ~flows ~duration =
  let flow_rate_bps = if flows <= 100_000 then 25_000. else 4e9 /. float_of_int flows in
  let demote_budget = if flows > 100_000 then Some 100_000 else None in
  let goodput_period = if flows > 100_000 then 4.0 else 0.5 in
  Gc.compact ();
  let bytes0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let r =
    Fastflex.Scenario.run_lfa_fluid ~flows ~duration ~flow_rate_bps
      ?demote_budget ~goodput_period ()
  in
  let wall_s = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let alloc_words = (Gc.allocated_bytes () -. bytes0) /. float_of_int (Sys.word_size / 8) in
  let module S = Fastflex.Scenario in
  let st = r.S.fr_solver in
  {
    f_flows = flows;
    f_classes = r.S.fr_classes;
    f_wall_s = wall_s;
    f_equivalents = r.S.fr_packet_equivalents;
    f_equiv_per_sec = r.S.fr_packet_equivalents /. wall_s;
    f_demoted_frac_peak = r.S.fr_demoted_frac_peak;
    f_demotions = r.S.fr_demotions;
    f_promotions = r.S.fr_promotions;
    f_demote_denied = r.S.fr_demote_denied;
    f_solves = st.Ff_fluid.Fluid.solves;
    f_skipped = st.Ff_fluid.Fluid.skipped;
    f_full_solves = st.Ff_fluid.Fluid.full_solves;
    f_touched_frac = r.S.fr_touched_frac;
    f_loss_cuts = st.Ff_fluid.Fluid.loss_cuts;
    f_alloc_words_per_equiv = alloc_words /. Float.max 1. r.S.fr_packet_equivalents;
  }

(* The all-packet baseline: the same scenario forced through the packet
   engine (Hybrid.All_packet makes it bit-identical to the pre-hybrid
   stack), over a short pre-attack slice — long enough to amortize setup,
   short enough to stay runnable at 100k flows. *)
let measure_fluid_baseline ~flows =
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let r =
    Fastflex.Scenario.run_lfa_fluid ~flows ~duration:2.5
      ~force:Ff_fluid.Hybrid.All_packet ~packet_recon:false ()
  in
  let wall_s = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let module S = Fastflex.Scenario in
  (wall_s, r.S.fr_packet_equivalents /. wall_s)

let fluid_sample_to_json s =
  Printf.sprintf
    "{ \"flows\": %d, \"classes\": %d, \"wall_s\": %.3f, \"packet_equivalents\": %.0f, \
     \"equiv_per_sec\": %.0f, \"demoted_frac_peak\": %.4f, \"demotions\": %d, \
     \"promotions\": %d, \"demote_denied\": %d,\n\
    \        \"solves\": %d, \"skipped\": %d, \"full_solves\": %d, \"touched_frac\": %.4f, \
     \"loss_cuts\": %d, \"alloc_words_per_equiv\": %.2f }"
    s.f_flows s.f_classes s.f_wall_s s.f_equivalents s.f_equiv_per_sec
    s.f_demoted_frac_peak s.f_demotions s.f_promotions s.f_demote_denied s.f_solves
    s.f_skipped s.f_full_solves s.f_touched_frac s.f_loss_cuts
    s.f_alloc_words_per_equiv

let fluid_to_json ~sweep ~baseline_flows ~baseline_eps ~speedup ~solver_alloc =
  Printf.sprintf
    "{ \"scenario\": \"isp(12 cores x 2 x 4), rolling fluid LFA, wide defense, 40 sim \
     seconds\",\n\
    \    \"sweep\": [ %s ],\n\
    \    \"baseline_flows\": %d, \"baseline_equiv_per_sec\": %.0f, \
     \"speedup_vs_packet\": %.1f,\n\
    \    \"solver_alloc_words_per_recompute\": %.1f }"
    (String.concat ",\n      " (List.map fluid_sample_to_json sweep))
    baseline_flows baseline_eps speedup solver_alloc

(* The hybrid tier's allocation guardrail: a 'fluid: <N>' line in
   bench/ALLOC_BUDGET bounds allocated words per packet-equivalent at the
   largest sweep point. Fluid equivalents cost no per-unit allocation, so
   the figure is tiny — growth means per-flow work crept into a per-sample
   or per-solve path. *)
let read_budget_line prefix =
  let plen = String.length prefix in
  match read_file alloc_budget_file with
  | None -> None
  | Some text ->
    String.split_on_char '\n' text
    |> List.find_map (fun line ->
           let line = String.trim line in
           if String.length line > plen && String.sub line 0 plen = prefix then
             float_of_string_opt
               (String.trim (String.sub line plen (String.length line - plen)))
           else None)

let read_fluid_alloc_budget () = read_budget_line "fluid:"

(* Steady-state solver allocation, isolated from the scenario: build a
   mid-size population once, then hammer single-link-dirty incremental
   re-solves and count GC words per recompute. The 'fluid-solver:' line in
   bench/ALLOC_BUDGET bounds it — the solver's scratch is all dense
   pre-sized arrays, so growth here means a per-solve allocation (list,
   closure, tuple key) crept back into the fill path. *)
let measure_solver_alloc () =
  let module Engine = Ff_netsim.Engine in
  let module Net = Ff_netsim.Net in
  let module Fluid = Ff_fluid.Fluid in
  let topo = T.isp ~cores:4 ~access_per_core:2 ~hosts_per_access:4 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  Scenario.install_all_routes net;
  let hosts = Array.of_list (List.map (fun (n : T.node) -> n.T.id) (T.hosts topo)) in
  let nh = Array.length hosts in
  let fl = Fluid.create net () in
  for i = 0 to 499 do
    let src = hosts.(i mod nh) in
    let dst = hosts.((i * 7 + 1) mod nh) in
    if src <> dst then
      ignore
        (Fluid.add fl ~src ~dst
           (if i mod 3 = 0 then Fluid.Adaptive { rtt = 0.02; max_rate = 1e6 }
            else Fluid.Constant { rate = 25_000. }))
  done;
  Fluid.recompute fl;
  let li = Net.link_index net ~from_:hosts.(0) ~to_:(List.hd (Net.neighbors_of net hosts.(0))) in
  let iters = 2_000 in
  Gc.compact ();
  let bytes0 = Gc.allocated_bytes () in
  for _ = 1 to iters do
    Fluid.mark_link_dirty fl li;
    Fluid.recompute fl
  done;
  let words = (Gc.allocated_bytes () -. bytes0) /. float_of_int (Sys.word_size / 8) in
  words /. float_of_int iters

(* Hard floors for the 10^6-flow point (ISSUE 8): the incremental solver
   must hold >= 5M packet-equivalents/s (the headline target is 8M; the
   floor leaves slack for slow CI machines) and must stay local. The
   attack window's mass demote/promote batches legitimately fall back to
   full solves (~0.4 cumulative touched fraction); losing incremental
   locality shows up as >= 1.0, so 0.5 separates the two regimes. *)
let fluid_equiv_floor = 5e6
let fluid_touched_frac_max = 0.5

let check_fluid ~top ~speedup ~solver_alloc =
  (match read_fluid_alloc_budget () with
  | None ->
    Printf.printf "[perf] no 'fluid:' line in %s; skipping fluid allocation check\n"
      alloc_budget_file
  | Some budget ->
    if top.f_alloc_words_per_equiv > budget then begin
      Printf.printf
        "[perf] FAIL: fluid alloc_words_per_equiv %.2f exceeds budget %.2f (%s)\n"
        top.f_alloc_words_per_equiv budget alloc_budget_file;
      exit 1
    end
    else
      Printf.printf "[perf] fluid allocation check ok: %.2f <= budget %.2f words/equiv\n"
        top.f_alloc_words_per_equiv budget);
  (match read_budget_line "fluid-solver:" with
  | None ->
    Printf.printf
      "[perf] no 'fluid-solver:' line in %s; skipping solver allocation check\n"
      alloc_budget_file
  | Some budget ->
    if solver_alloc > budget then begin
      Printf.printf
        "[perf] FAIL: solver alloc %.1f words/recompute exceeds budget %.1f (%s)\n"
        solver_alloc budget alloc_budget_file;
      exit 1
    end
    else
      Printf.printf
        "[perf] solver allocation check ok: %.1f <= budget %.1f words/recompute\n"
        solver_alloc budget);
  if top.f_flows >= 1_000_000 && top.f_equiv_per_sec < fluid_equiv_floor then begin
    Printf.printf "[perf] FAIL: %.2e equiv/s at %d flows is under the %.0e floor\n"
      top.f_equiv_per_sec top.f_flows fluid_equiv_floor;
    exit 1
  end
  else
    Printf.printf "[perf] fluid throughput check ok: %.2e equiv/s at %d flows\n"
      top.f_equiv_per_sec top.f_flows;
  if top.f_touched_frac > fluid_touched_frac_max then begin
    Printf.printf
      "[perf] FAIL: solver touched_frac %.3f exceeds %.2f — incremental locality lost\n"
      top.f_touched_frac fluid_touched_frac_max;
    exit 1
  end
  else
    Printf.printf "[perf] solver locality check ok: touched_frac %.3f <= %.2f\n"
      top.f_touched_frac fluid_touched_frac_max;
  if speedup < 20. then
    Printf.printf
      "[perf] WARNING: hybrid speedup %.1fx at %d flows (target 20x vs all-packet)\n"
      speedup top.f_flows
  else
    Printf.printf "[perf] hybrid speedup check ok: %.1fx >= 20x at %d flows\n" speedup
      top.f_flows

(* The all-packet baseline is pinned at 100k flows: the pure packet engine
   cannot finish the 10^6-flow scenario in tractable wall time, and its
   equiv/s is flow-count-insensitive (per-packet work), so the 100k figure
   is the honest denominator for the top-scale speedup (baseline_flows is
   recorded in the JSON). *)
let fluid_baseline_flows = 100_000

let measure_fluid_sweep () =
  let sweep =
    List.map
      (fun flows ->
        Printf.printf "[perf] hybrid fluid run: %d flows\n%!" flows;
        measure_fluid ~flows ~duration:40.)
      [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  let top = List.nth sweep (List.length sweep - 1) in
  Printf.printf "[perf] all-packet baseline: %d flows, 2.5 sim seconds\n%!"
    fluid_baseline_flows;
  let _, baseline_eps = measure_fluid_baseline ~flows:fluid_baseline_flows in
  Printf.printf "[perf] solver steady-state allocation micro-benchmark\n%!";
  let solver_alloc = measure_solver_alloc () in
  (sweep, top, baseline_eps, top.f_equiv_per_sec /. Float.max 1. baseline_eps,
   solver_alloc)

let perf () =
  banner "perf" "per-packet hot path: fat-tree(4) + rolling LFA, 30 simulated seconds";
  let s = measure_perf () in
  let par =
    match !shards_opt with
    | Some n when n >= 1 ->
      Printf.printf "\n[perf] sharded engine: fat-tree(8), %d shards\n%!" n;
      Some (measure_parallel ~shards:n)
    | _ -> None
  in
  let current = sample_to_json s in
  let old_text = read_file perf_json_file in
  let before =
    match old_text with
    | Some text -> ( match extract_object text "before" with Some b -> b | None -> current)
    | None -> current
  in
  let parallel_json =
    match par with
    | Some p -> parallel_to_json p
    | None -> (
      (* keep the last sharded measurement when this run didn't take one *)
      match old_text with
      | Some text -> (
        match extract_object text "parallel" with Some o -> o | None -> "null")
      | None -> "null")
  in
  let fluid =
    if !fluid_opt then begin
      Printf.printf "\n[perf] hybrid fluid/packet tier: isp topology, rolling fluid LFA\n%!";
      Some (measure_fluid_sweep ())
    end
    else None
  in
  let fluid_json =
    match fluid with
    | Some (sweep, _, baseline_eps, speedup, solver_alloc) ->
      fluid_to_json ~sweep ~baseline_flows:fluid_baseline_flows ~baseline_eps ~speedup
        ~solver_alloc
    | None -> (
      (* keep the last fluid sweep when this run didn't take one *)
      match old_text with
      | Some text -> (
        match extract_object text "fluid" with Some o -> o | None -> "null")
      | None -> "null")
  in
  let oc = open_out perf_json_file in
  Printf.fprintf oc
    "{\n\
    \  \"schema\": \"fastflex-netsim-perf/2\",\n\
    \  \"scenario\": \"fat-tree(4), deploy_wide defense, 6 CBR + 3 TCP flows, rolling LFA, \
     30 sim seconds\",\n\
    \  \"note\": \"before = first run recorded on this machine (preserved across reruns); \
     after = latest run; parallel = sharded engine on fat-tree(8), 128 cross-pod CBR \
     flows (perf --shards N)\",\n\
    \  \"before\": %s,\n\
    \  \"after\": %s,\n\
    \  \"parallel\": %s,\n\
    \  \"fluid\": %s\n\
     }\n"
    before current parallel_json fluid_json;
  close_out oc;
  Table.print
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "hop transmissions"; string_of_int s.packets ];
        [ "sim events"; string_of_int s.events ];
        [ "wall (s)"; Printf.sprintf "%.3f" s.wall_s ];
        [ "packets/s"; Printf.sprintf "%.0f" s.packets_per_sec ];
        [ "events/s"; Printf.sprintf "%.0f" s.events_per_sec ];
        [ "alloc words/packet"; Printf.sprintf "%.1f" s.alloc_words_per_packet ];
        [ "drops"; string_of_int s.drops ] ];
  (match par with
  | None -> ()
  | Some p ->
    Table.print
      ~header:[ "parallel metric"; "value" ]
      ~rows:
        [ [ "shards / cores"; Printf.sprintf "%d / %d" p.p_shards p.p_cores ];
          [ "mode"; p.p_mode ];
          [ "hop transmissions"; string_of_int p.p_packets ];
          [ "sim events"; string_of_int p.p_events ];
          [ "windows"; string_of_int p.p_windows ];
          [ "cross-shard msgs"; string_of_int p.p_exchanged ];
          [ "shard imbalance"; shard_balance_cell p.p_shard_events p.p_imbalance ];
          [ "wall (s)"; Printf.sprintf "%.3f" p.p_wall_s ];
          [ "packets/s"; Printf.sprintf "%.0f" p.p_pps ];
          [ "baseline packets/s"; Printf.sprintf "%.0f" p.p_baseline_pps ];
          [ "speedup vs 1 shard"; Printf.sprintf "%.2fx" p.p_speedup ];
          [ "speedup armed"; string_of_bool (speedup_armed p) ];
          [ "alloc words/packet"; Printf.sprintf "%.1f" p.p_alloc_words_per_packet ];
          [ "counts identical"; string_of_bool p.p_identical ] ]);
  (match fluid with
  | None -> ()
  | Some (sweep, _, baseline_eps, speedup, solver_alloc) ->
    Table.print
      ~header:
        [ "fluid flows"; "classes"; "wall (s)"; "equiv/s"; "demoted peak";
          "touched"; "full/solves"; "alloc w/equiv" ]
      ~rows:
        (List.map
           (fun f ->
             [ string_of_int f.f_flows; string_of_int f.f_classes;
               Printf.sprintf "%.2f" f.f_wall_s;
               Printf.sprintf "%.2e" f.f_equiv_per_sec;
               Printf.sprintf "%.2f%%" (100. *. f.f_demoted_frac_peak);
               Printf.sprintf "%.3f" f.f_touched_frac;
               Printf.sprintf "%d/%d" f.f_full_solves f.f_solves;
               Printf.sprintf "%.2f" f.f_alloc_words_per_equiv ])
           sweep);
    Printf.printf
      "[perf] all-packet baseline %.2e equiv/s (at %d flows) -> hybrid speedup %.1fx \
       at the top scale\n"
      baseline_eps fluid_baseline_flows speedup;
    Printf.printf "[perf] solver steady-state allocation: %.1f words/recompute\n"
      solver_alloc);
  Printf.printf "\n[perf] wrote %s\n" perf_json_file;
  check_alloc_budget s;
  Option.iter check_parallel par;
  match fluid with
  | Some (_, top, _, speedup, solver_alloc) -> check_fluid ~top ~speedup ~solver_alloc
  | None -> ()

(* ------------------------------------------------------------------ *)
(* micro: Bechamel micro-benchmarks of the primitives                  *)
(* ------------------------------------------------------------------ *)

let micro () =
  banner "micro" "per-operation cost of the data plane primitives (Bechamel OLS)";
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

(* bench/ADVERSARIAL_BASELINE holds the pre-hardening (unhardened,
   closed-loop) work factor per strategy and seed:
     <strategy> <seed> <work_factor>
   The hardened run must post a work factor at least
   [wf_floor_factor] x that baseline — the "evasion resistance raised
   the attacker's cost" assertion. Re-record after an intentional
   defense change with ADVERSARIAL_RECORD=1. *)
(* invoked both from the repo root (dune exec bench/main.exe) and from
   bench/ itself (the @adversarial alias action runs there) *)
let adversarial_baseline_file =
  if Sys.file_exists "ADVERSARIAL_BASELINE" then "ADVERSARIAL_BASELINE"
  else "bench/ADVERSARIAL_BASELINE"
let adversarial_wf_floor = 3.0
let adversarial_damage_gain = 2.0 (* adaptive must beat open-loop by this *)
let adversarial_damage_residual = 1.25 (* hardened adaptive vs open-loop *)

let read_adversarial_baseline () =
  if not (Sys.file_exists adversarial_baseline_file) then []
  else
    let ic = open_in adversarial_baseline_file in
    let rec go acc =
      match input_line ic with
      | exception End_of_file -> acc
      | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then go acc
        else begin
          match String.split_on_char ' ' line with
          | [ strat; seed; wf ] ->
            go (((strat, int_of_string seed), float_of_string wf) :: acc)
          | _ -> go acc
        end
    in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go [])

let adversarial_seeds () =
  match Sys.getenv_opt "ADVERSARIAL_SEEDS" with
  | Some s -> List.filter_map int_of_string_opt (String.split_on_char ',' s)
  | None -> [ 1; 2 ]

let adversarial () =
  banner "adversarial"
    "closed-loop adaptive attackers vs evasion-hardened defenses (attacker work factor)";
  let module A = Ff_attacks.Adaptive in
  let record = Sys.getenv_opt "ADVERSARIAL_RECORD" <> None in
  let baseline = read_adversarial_baseline () in
  let seeds = adversarial_seeds () in
  let failures = ref [] in
  let recorded = ref [] in
  let check name ok detail =
    if not ok then failures := Printf.sprintf "%s: %s" name detail :: !failures
  in
  let rows =
    List.concat_map
      (fun strategy ->
        let sname = A.strategy_name strategy in
        List.concat_map
          (fun seed ->
            Printf.printf "  %-15s seed %d ...%!" sname seed;
            let t0 = Unix.gettimeofday () in
            let open_loop =
              Scenario.run_adversarial ~strategy ~adversary:Scenario.Open_loop ~seed ()
            in
            let adaptive =
              Scenario.run_adversarial ~strategy ~adversary:Scenario.Closed_loop ~seed ()
            in
            let hardened =
              Scenario.run_adversarial ~strategy ~adversary:Scenario.Closed_loop
                ~hardened:true ~seed ()
            in
            Printf.printf " %.1fs\n%!" (Unix.gettimeofday () -. t0);
            let tag = Printf.sprintf "%s/seed=%d" sname seed in
            (* the adaptive loop must beat the defense the blast cannot *)
            check tag
              (adaptive.Scenario.ar_damage
              >= adversarial_damage_gain *. open_loop.Scenario.ar_damage)
              (Printf.sprintf "adaptive damage %.2f < %.1fx open-loop %.2f"
                 adaptive.Scenario.ar_damage adversarial_damage_gain
                 open_loop.Scenario.ar_damage);
            (* hardening must blunt it back to (near) open-loop damage *)
            check tag
              (hardened.Scenario.ar_damage
              <= adversarial_damage_residual *. Float.max 0.5 open_loop.Scenario.ar_damage)
              (Printf.sprintf "hardened damage %.2f > %.2fx open-loop %.2f"
                 hardened.Scenario.ar_damage adversarial_damage_residual
                 open_loop.Scenario.ar_damage);
            (* ... and raise the attacker's cost against the committed
               pre-hardening baseline *)
            (match List.assoc_opt (sname, seed) baseline with
            | Some base_wf when not record ->
              check tag
                (hardened.Scenario.ar_work_factor >= adversarial_wf_floor *. base_wf)
                (Printf.sprintf "hardened work factor %.0f < %.1fx baseline %.0f"
                   hardened.Scenario.ar_work_factor adversarial_wf_floor base_wf)
            | _ ->
              if not record then
                failures :=
                  Printf.sprintf "%s: no baseline in %s (run with ADVERSARIAL_RECORD=1)"
                    tag adversarial_baseline_file
                  :: !failures);
            recorded :=
              (sname, seed, adaptive.Scenario.ar_work_factor) :: !recorded;
            let row (r : Scenario.adversarial_result) which =
              [ sname; string_of_int seed; which;
                string_of_int r.Scenario.ar_probes;
                Printf.sprintf "%.2f" r.Scenario.ar_damage;
                Printf.sprintf "%.2f" r.Scenario.ar_peak_util;
                (match r.Scenario.ar_effective_at with
                | Some _ -> Printf.sprintf "%.1f" r.Scenario.ar_time_to_effective
                | None -> "never");
                Printf.sprintf "%.0f" r.Scenario.ar_work_factor;
                string_of_int r.Scenario.ar_alarms;
                string_of_int r.Scenario.ar_drops ]
            in
            [ row open_loop "open-loop";
              row adaptive "adaptive";
              row hardened "adaptive+hard" ])
          seeds)
      [ A.Threshold_hug; A.Collision_probe; A.Epoch_time ]
  in
  Table.print
    ~header:
      [ "strategy"; "seed"; "adversary"; "probes"; "damage"; "peak"; "tte"; "wf";
        "alarms"; "drops" ]
    ~rows;
  if record then begin
    let oc = open_out adversarial_baseline_file in
    output_string oc
      "# pre-hardening (unhardened, closed-loop) work factors: <strategy> <seed> <wf>\n\
       # regenerate with: ADVERSARIAL_RECORD=1 dune exec bench/main.exe -- adversarial\n";
    List.iter
      (fun (s, seed, wf) -> Printf.fprintf oc "%s %d %.1f\n" s seed wf)
      (List.rev !recorded);
    close_out oc;
    Printf.printf "[adversarial] baselines -> %s\n" adversarial_baseline_file
  end;
  match !failures with
  | [] -> print_endline "[adversarial] all work-factor and damage floors hold"
  | fs ->
    List.iter (fun f -> Printf.eprintf "[adversarial] FAIL %s\n" f) fs;
    exit 1

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("abl-te", abl_te);
    ("abl-probe", abl_probe);
    ("abl-sharing", abl_sharing);
    ("abl-fec", abl_fec);
    ("abl-scaling", abl_scaling);
    ("abl-pulse", abl_pulse);
    ("abl-sync", abl_sync);
    ("abl-topo", abl_topo);
    ("abl-vol", abl_vol);
    ("synflood", synflood_exp);
    ("chaos", chaos_exp);
    ("adversarial", adversarial);
    ("perf", perf);
    ("micro", micro);
  ]

let run_experiment name f =
  let trace_events () =
    match Ff_obs.Trace.ambient () with Some tr -> Ff_obs.Trace.count tr | None -> 0
  in
  let span =
    Ff_obs.Profile.start ~events:(Ff_netsim.Engine.total_steps ())
      ~trace_events:(trace_events ()) name
  in
  f ();
  let report =
    Ff_obs.Profile.finish span ~events:(Ff_netsim.Engine.total_steps ())
      ~trace_events:(trace_events ()) ()
  in
  Format.printf "%a@." Ff_obs.Profile.pp_report report

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* --trace FILE          write the telemetry event log (JSONL, or CSV if
                           FILE ends in .csv) after the experiments run
     --trace-filter KINDS  with --trace: keep only these comma-separated
                           event kinds (original seq numbers retained) and
                           append one drop-proof per-kind summary line —
                           the format of the committed golden traces
     --metrics FILE        write the metrics registry as CSV
     --shards N            with perf: also measure the sharded parallel
                           engine with N shards and check it is
                           bit-identical to the 1-shard run
     --fluid               with perf: also sweep the hybrid fluid/packet
                           tier (1k/10k/100k flows on the ISP topology)
                           and record a "fluid" section *)
  let rec split_opts trace filter metrics acc = function
    | "--trace" :: file :: rest -> split_opts (Some file) filter metrics acc rest
    | "--trace-filter" :: kinds :: rest ->
      split_opts trace (Some (String.split_on_char ',' kinds)) metrics acc rest
    | "--metrics" :: file :: rest -> split_opts trace filter (Some file) acc rest
    | "--shards" :: n :: rest ->
      (match int_of_string_opt n with
      | Some n when n >= 1 -> shards_opt := Some n
      | _ ->
        Printf.eprintf "--shards expects a positive integer, got %S\n" n;
        exit 1);
      split_opts trace filter metrics acc rest
    | "--fluid" :: rest ->
      fluid_opt := true;
      split_opts trace filter metrics acc rest
    | a :: rest -> split_opts trace filter metrics (a :: acc) rest
    | [] -> (trace, filter, metrics, List.rev acc)
  in
  let trace_file, trace_filter, metrics_file, names = split_opts None None None [] args in
  let trace =
    match trace_file with
    | None -> None
    | Some _ ->
      let tr = Ff_obs.Trace.create () in
      Ff_obs.Trace.set_ambient (Some tr);
      Some tr
  in
  let metrics =
    let m = Ff_obs.Metrics.create () in
    Ff_obs.Metrics.set_ambient (Some m);
    m
  in
  (match names with
  | [] | [ "all" ] -> List.iter (fun (name, f) -> run_experiment name f) experiments
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> run_experiment name f
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
      names);
  (match (trace_file, trace) with
  | Some file, Some tr ->
    (match trace_filter with
    | None ->
      if Filename.check_suffix file ".csv" then Ff_obs.Trace.write_csv tr file
      else Ff_obs.Trace.write_jsonl tr file
    | Some keep ->
      (* the golden-trace format: filtered JSONL keeping original seq
         numbers, closed by a summary object whose per-kind totals come
         from the drop-proof counters (they cover the whole run even if
         the buffer overflowed) *)
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          Ff_obs.Trace.iter tr (fun e ->
              if List.mem (Ff_obs.Event.kind e.Ff_obs.Trace.event) keep then begin
                output_string oc (Ff_obs.Trace.entry_to_json e);
                output_char oc '\n'
              end);
          let all_kinds =
            [ "mode_transition"; "reroute"; "state_transfer"; "fec_recovery"; "drop";
              "probe"; "fault"; "repair" ]
          in
          let counts =
            List.map
              (fun k -> Printf.sprintf "%S: %d" k (Ff_obs.Trace.count_kind tr k))
              all_kinds
          in
          Printf.fprintf oc "{\"summary\": {%s}, \"total\": %d}\n"
            (String.concat ", " counts) (Ff_obs.Trace.count tr)));
    Printf.printf "[trace] %d events (%d buffered, %d dropped) -> %s\n" (Ff_obs.Trace.count tr)
      (Ff_obs.Trace.length tr) (Ff_obs.Trace.dropped tr) file
  | _ -> ());
  match metrics_file with
  | Some file ->
    Ff_obs.Metrics.write_csv metrics ~now:infinity file;
    Printf.printf "[metrics] -> %s\n" file
  | None -> ()
