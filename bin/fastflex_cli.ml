(* Command-line front-end: run FastFlex scenarios and inspect the
   compilation pipeline from the shell.

     fastflex_cli lfa --defense fastflex --duration 120 --csv
     fastflex_cli compile
     fastflex_cli stability --dwell 1.0
*)

open Cmdliner

let run_lfa defense duration te_period roll_times csv bots normals trace_file chaos_spec =
  let lm = Ff_topology.Topology.Fig2.build ~bots ~normals () in
  let chaos =
    Result.bind
      (Option.fold ~none:(Ok []) ~some:Ff_chaos.Chaos.parse chaos_spec)
      (fun ds -> Result.map (fun () -> ds) (Ff_chaos.Chaos.check lm.topo ds))
  in
  match chaos with
  | Error e -> `Error (false, "bad --chaos spec: " ^ e)
  | Ok chaos_directives ->
    let defense =
      match defense with
      | `None -> Fastflex.Scenario.No_defense
      | `Sdn -> Fastflex.Scenario.Baseline_sdn { period = te_period; delay = 0.5 }
      | `Fastflex -> Fastflex.Scenario.Fastflex Fastflex.Orchestrator.default_config
    in
    let attack =
      Some { Fastflex.Scenario.default_attack with roll_schedule = roll_times }
    in
    let harness = ref None in
    let hook (r : Fastflex.Scenario.report) =
      if chaos_directives <> [] then begin
        let h =
          Ff_chaos.Chaos.create
            ?seed:(Ff_chaos.Chaos.spec_seed chaos_directives)
            r.Fastflex.Scenario.net
        in
        Ff_chaos.Chaos.apply h chaos_directives;
        harness := Some h
      end
    in
    let spec = Fastflex.Scenario.lfa_spec ~defense ~attack ~duration lm in
    let trace =
      Option.map
        (fun _ ->
          let tr = Ff_obs.Trace.create () in
          Ff_obs.Trace.set_ambient (Some tr);
          tr)
        trace_file
    in
    let span = Ff_obs.Profile.start ~events:(Ff_netsim.Engine.total_steps ()) "lfa" in
    let r = Fastflex.Scenario.run_lfa_spec { spec with hook } in
    let report =
      Ff_obs.Profile.finish span ~events:(Ff_netsim.Engine.total_steps ())
        ~trace_events:(match trace with Some tr -> Ff_obs.Trace.count tr | None -> 0)
        ()
    in
    Fastflex.Scenario.pp_summary Format.std_formatter r;
    if csv then Ff_util.Series.pp_csv Format.std_formatter [ r.Fastflex.Scenario.normalized ]
    else
      Ff_util.Series.pp_ascii ~height:12 Format.std_formatter
        [ r.Fastflex.Scenario.normalized ];
    Format.printf "%a@." Ff_obs.Profile.pp_report report;
    (match (trace_file, trace) with
    | Some file, Some tr ->
      if Filename.check_suffix file ".csv" then Ff_obs.Trace.write_csv tr file
      else Ff_obs.Trace.write_jsonl tr file;
      Printf.printf "trace: %d events -> %s\n" (Ff_obs.Trace.count tr) file
    | _ -> ());
    (match !harness with
    | None -> ()
    | Some h ->
      Printf.printf "chaos: %d fault actions injected\n" (Ff_chaos.Chaos.injected h);
      List.iter
        (fun (time, action) ->
          Printf.printf "  %8.3f  %s\n" time (Ff_chaos.Chaos.action_to_string action))
        (Ff_chaos.Chaos.log h));
    `Ok ()

let compile_cmd () =
  let compiled = Fastflex.Compile.boosters () in
  print_endline "Module table (paper Figure 1):";
  Ff_util.Table.print
    ~header:[ "module"; "boosters"; "stages"; "SRAM(KB)"; "TCAM"; "ALUs"; "hash" ]
    ~rows:
      (List.map
         (fun (name, boosters, res) ->
           name :: String.concat "+" boosters :: Ff_dataplane.Resource.to_row res)
         (Fastflex.Compile.module_rows compiled));
  Printf.printf "\nsharing saved %.0f%% of pipeline stages (%d PPM absorptions)\n"
    (100. *. compiled.Fastflex.Compile.savings)
    (List.length compiled.Fastflex.Compile.sharing);
  `Ok ()

let verify_cmd () =
  let results = Fastflex.Compile.verify () in
  let clean = ref true in
  List.iter
    (fun (name, issues) ->
      match issues with
      | [] -> Printf.printf "%-18s ok\n" name
      | issues ->
        clean := false;
        Printf.printf "%-18s %d issue(s):\n" name (List.length issues);
        List.iter (fun i -> Format.printf "  %a@." Ff_dataflow.Check.pp_issue i) issues)
    results;
  if !clean then `Ok () else `Error (false, "verification found issues")

let dot_cmd () =
  let compiled = Fastflex.Compile.boosters () in
  print_string (Ff_dataflow.Graph.to_dot ~name:"fastflex" compiled.Fastflex.Compile.merged);
  `Ok ()

let stability_cmd dwell =
  let automaton =
    Ff_modes.Stability.of_protocol ~modes_for:Fastflex.Orchestrator.modes_for ~dwell
  in
  let report = Ff_modes.Stability.analyze automaton in
  Printf.printf "mode automaton: %d reachable states\n"
    (List.length report.Ff_modes.Stability.reachable);
  (match report.Ff_modes.Stability.issues with
  | [] -> print_endline "stable: every state returns to default, no zero-dwell cycles"
  | issues ->
    List.iter
      (fun i -> Format.printf "issue: %a@." Ff_modes.Stability.pp_issue i)
      issues);
  `Ok ()

let run_parallel shards k duration rate_pps seq =
  let w = Ff_parallel.Workload.fat_tree ~k ~rate_pps ~duration () in
  let counters = Ff_parallel.Workload.fresh_counters w in
  let mode = if seq then Ff_parallel.Psim.Sequential else Ff_parallel.Psim.Auto in
  let t0 = Unix.gettimeofday () in
  let r =
    Ff_parallel.Psim.run ~mode ~shards
      ~topo:(Ff_parallel.Workload.topo w)
      ~setup:(Ff_parallel.Workload.setup w counters)
      ~until:(Ff_parallel.Workload.until w) ()
  in
  let wall = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  let tx = Ff_parallel.Psim.total_tx r in
  Ff_util.Table.print
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "topology"; Printf.sprintf "fat-tree(%d)" k ];
        [ "flows"; string_of_int (Ff_parallel.Workload.n_flows w) ];
        [ "shards"; string_of_int shards ];
        [ "mode";
          (match r.Ff_parallel.Psim.mode_used with
          | Ff_parallel.Psim.Domains -> "domains"
          | _ -> "sequential (cooperative)") ];
        [ "lookahead (s)"; Printf.sprintf "%g" r.Ff_parallel.Psim.lookahead ];
        [ "windows"; string_of_int r.Ff_parallel.Psim.windows ];
        [ "cross-shard msgs"; string_of_int r.Ff_parallel.Psim.exchanged ];
        [ "sim events"; string_of_int r.Ff_parallel.Psim.events ];
        [ "events per shard";
          String.concat "/"
            (Array.to_list (Array.map string_of_int (Ff_parallel.Psim.shard_events r))) ];
        [ "shard imbalance (max/mean)"; Printf.sprintf "%.3f" (Ff_parallel.Psim.imbalance r) ];
        [ "hop transmissions"; string_of_int tx ];
        [ "packets delivered";
          string_of_int (Ff_parallel.Workload.total_delivered counters) ];
        [ "wall (s)"; Printf.sprintf "%.3f" wall ];
        [ "packets/s"; Printf.sprintf "%.0f" (float_of_int tx /. wall) ] ];
  (match Ff_parallel.Psim.drops_by_reason r with
  | [] -> ()
  | drops ->
    print_endline "drops:";
    List.iter (fun (reason, n) -> Printf.printf "  %-12s %d\n" reason n) drops);
  `Ok ()

let parallel_cmd shards k duration rate_pps seq =
  (* fat-tree(k): (k/2)^2 cores plus k pods of k switches *)
  let switches = (k * k / 4) + (k * k) in
  if shards < 1 || shards > switches then
    `Error
      ( false,
        Printf.sprintf "--shards must be between 1 and %d (the switches of fat-tree(%d)), got %d"
          switches k shards )
  else run_parallel shards k duration rate_pps seq

let fluid_cmd flows duration force trace_file =
  let obs = Option.map (fun _ -> Ff_obs.Trace.create ()) trace_file in
  let t0 = Unix.gettimeofday () in
  let r = Fastflex.Scenario.run_lfa_fluid ~flows ~duration ~force ?obs () in
  let wall = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  (match (obs, trace_file) with
  | Some tr, Some file ->
    if Filename.check_suffix file ".csv" then Ff_obs.Trace.write_csv tr file
    else Ff_obs.Trace.write_jsonl tr file
  | _ -> ());
  let open Fastflex.Scenario in
  Ff_util.Table.print
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "benign flows"; string_of_int r.fr_flows ];
        [ "fluid classes"; string_of_int r.fr_classes ];
        [ "simulated (s)"; Printf.sprintf "%g" r.fr_duration ];
        [ "packet tx"; string_of_int r.fr_packet_tx ];
        [ "fluid hop bytes"; Printf.sprintf "%.3e" r.fr_fluid_hop_bytes ];
        [ "packet equivalents"; Printf.sprintf "%.3e" r.fr_packet_equivalents ];
        [ "equivalents/s"; Printf.sprintf "%.3e" (r.fr_packet_equivalents /. wall) ];
        [ "delivered bytes"; Printf.sprintf "%.3e" r.fr_delivered_bytes ];
        [ "demoted peak";
          Printf.sprintf "%d (%.1f%%)" r.fr_demoted_peak
            (100. *. r.fr_demoted_frac_peak) ];
        [ "demotions / promotions";
          Printf.sprintf "%d / %d" r.fr_demotions r.fr_promotions ];
        [ "mode changes"; string_of_int r.fr_mode_changes ];
        [ "attack rolls"; string_of_int r.fr_rolls ];
        [ "solver rate events"; string_of_int r.fr_rate_events ];
        [ "wall (s)"; Printf.sprintf "%.3f" wall ] ];
  (match r.fr_drops with
  | [] -> ()
  | drops ->
    print_endline "drops:";
    List.iter (fun (reason, n) -> Printf.printf "  %-12s %d\n" reason n) drops);
  `Ok ()

(* Converters that reject malformed numbers while parsing, so cmdliner exits
   124 with a message naming the option instead of simulating nothing or
   dying on an exception deep in the run. *)
let checked conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "expected %s, got %s" expected s))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_float =
  checked Arg.float ~expected:"a positive finite number" (fun x -> Float.is_finite x && x > 0.)

let positive_int = checked Arg.int ~expected:"a positive integer" (fun n -> n > 0)

let fat_tree_arity =
  checked Arg.int ~expected:"an even arity of at least 2" (fun k -> k >= 2 && k mod 2 = 0)

let defense_arg =
  let doc = "Defense to deploy: none, sdn, or fastflex." in
  let defenses = [ ("none", `None); ("sdn", `Sdn); ("fastflex", `Fastflex) ] in
  Arg.(value & opt (enum defenses) `Fastflex & info [ "defense"; "d" ] ~docv:"DEFENSE" ~doc)

let duration_arg =
  Arg.(value & opt positive_float 120. & info [ "duration" ] ~docv:"SECONDS"
         ~doc:"Simulated seconds.")

let te_period_arg =
  Arg.(value & opt positive_float 30. & info [ "te-period" ] ~docv:"SECONDS"
         ~doc:"Baseline SDN reconfiguration period.")

let rolls_arg =
  Arg.(value & opt (list float) [ 45.; 80. ] & info [ "rolls" ] ~docv:"T1,T2,..."
         ~doc:"Forced attack re-target times.")

let csv_arg = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an ASCII chart.")

let bots_arg = Arg.(value & opt int 8 & info [ "bots" ] ~doc:"Number of bot hosts.")
let normals_arg = Arg.(value & opt int 4 & info [ "normals" ] ~doc:"Number of normal hosts.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write the telemetry event log to $(docv) (JSONL, or CSV when \
               $(docv) ends in .csv).")

let chaos_arg =
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC"
         ~doc:"Inject faults during the run: semicolon-separated directives, e.g. \
               'seed=7; cut:s2-s3\\@1.0; heal:s2-s3\\@4.0; crash:s5\\@2.0+1.5; \
               flap:s1-s2\\@1.0..6.0/0.3/0.7; loss:s4\\@0.3,burst=4'. Nodes may be \
               topology names or indices.")

let dwell_arg =
  Arg.(value & opt float 1.0 & info [ "dwell" ] ~docv:"SECONDS" ~doc:"Minimum mode dwell.")

let lfa_cmd =
  let doc = "Run the rolling link-flooding case study (paper Figure 3)." in
  Cmd.v (Cmd.info "lfa" ~doc)
    Term.(
      ret
        (const run_lfa $ defense_arg $ duration_arg $ te_period_arg $ rolls_arg $ csv_arg
        $ bots_arg $ normals_arg $ trace_arg $ chaos_arg))

let compile_command =
  let doc = "Compile the booster catalogue and print the module/sharing report." in
  Cmd.v (Cmd.info "compile" ~doc) Term.(ret (const compile_cmd $ const ()))

let stability_command =
  let doc = "Statically analyze the mode automaton for stability." in
  Cmd.v (Cmd.info "stability" ~doc) Term.(ret (const stability_cmd $ dwell_arg))

let verify_command =
  let doc = "Statically check every booster pipeline (uninitialized metadata, \
             undeclared tables, dead code, resource under-provisioning)." in
  Cmd.v (Cmd.info "verify" ~doc) Term.(ret (const verify_cmd $ const ()))

let dot_command =
  let doc = "Emit the merged booster dataflow graph as Graphviz dot." in
  Cmd.v (Cmd.info "dot" ~doc) Term.(ret (const dot_cmd $ const ()))

let shards_arg =
  Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
         ~doc:"Number of topology shards (1 = plain windowed run).")

let k_arg =
  Arg.(value & opt fat_tree_arity 8 & info [ "k" ] ~docv:"K"
         ~doc:"Fat-tree arity (k pods, k*k*k/4 hosts).")

let pduration_arg =
  Arg.(value & opt positive_float 2.0 & info [ "duration" ] ~docv:"SECONDS"
         ~doc:"Simulated seconds of traffic (plus 50 ms drain).")

let rate_arg =
  Arg.(value & opt positive_float 500. & info [ "rate" ] ~docv:"PPS"
         ~doc:"Per-flow constant sending rate, packets per second.")

let seq_arg =
  Arg.(value & flag & info [ "sequential" ]
         ~doc:"Force the cooperative single-domain mode (same windowed \
               algorithm, no OS threads); results are bit-identical to \
               the domains mode by construction.")

let parallel_command =
  let doc = "Run the sharded parallel simulation engine on a fat-tree CBR \
             workload and report throughput." in
  Cmd.v (Cmd.info "parallel" ~doc)
    Term.(ret (const parallel_cmd $ shards_arg $ k_arg $ pduration_arg $ rate_arg
               $ seq_arg))

let flows_arg =
  Arg.(value & opt positive_int 100_000 & info [ "flows" ] ~docv:"N"
         ~doc:"Concurrent benign flows in the hybrid tier.")

let fduration_arg =
  Arg.(value & opt positive_float 40. & info [ "duration" ] ~docv:"SECONDS"
         ~doc:"Simulated seconds (the flood runs 10..18 with a roll at 14).")

let force_arg =
  let tiers =
    [ ("auto", Ff_fluid.Hybrid.Auto); ("packet", Ff_fluid.Hybrid.All_packet);
      ("fluid", Ff_fluid.Hybrid.All_fluid) ]
  in
  Arg.(value & opt (enum tiers) Ff_fluid.Hybrid.Auto & info [ "force" ] ~docv:"TIER"
         ~doc:"Engine tier: auto (hybrid: demote on mode activity), packet \
               (all-packet, bit-identical to the pure packet engine), or \
               fluid (never demote).")

let fluid_command =
  let doc = "Run the hybrid fluid/packet rolling-LFA scenario on the ISP \
             topology and report packet-equivalent throughput." in
  Cmd.v (Cmd.info "fluid" ~doc)
    Term.(ret (const fluid_cmd $ flows_arg $ fduration_arg $ force_arg $ trace_arg))

let adversarial_cmd strategies seed show_log =
  let module A = Ff_attacks.Adaptive in
  let open Fastflex.Scenario in
  List.iter
    (fun strategy ->
      let runs =
        [ ("open-loop", run_adversarial ~strategy ~adversary:Open_loop ~seed ());
          ("adaptive", run_adversarial ~strategy ~adversary:Closed_loop ~seed ());
          ( "adaptive+hardened",
            run_adversarial ~strategy ~adversary:Closed_loop ~hardened:true ~seed () ) ]
      in
      Printf.printf "== %s (seed %d) ==\n" (A.strategy_name strategy) seed;
      Ff_util.Table.print
        ~header:
          [ "adversary"; "probes"; "damage"; "peak"; "time-to-effective"; "work factor";
            "alarms"; "drops"; "rotations" ]
        ~rows:
          (List.map
             (fun (which, r) ->
               [ which;
                 string_of_int r.ar_probes;
                 Printf.sprintf "%.2f" r.ar_damage;
                 Printf.sprintf "%.2f" r.ar_peak_util;
                 (match r.ar_effective_at with
                 | Some _ -> Printf.sprintf "%.1f s" r.ar_time_to_effective
                 | None -> "never");
                 Printf.sprintf "%.0f" r.ar_work_factor;
                 string_of_int r.ar_alarms;
                 string_of_int r.ar_drops;
                 string_of_int r.ar_rotations ])
             runs);
      List.iter
        (fun (which, r) ->
          if r.ar_summary <> "open-loop" then
            Printf.printf "%s: %s\n" which r.ar_summary;
          if show_log && r.ar_log <> [] then
            List.iter (fun l -> Printf.printf "  | %s\n" l) r.ar_log)
        runs;
      print_newline ())
    strategies;
  `Ok ()

let synflood_cmd defended hardened duration rate backlog syn_timeout =
  let open Fastflex.Scenario in
  let r =
    run_synflood ~defended ~hardened ~duration ~attack_rate_pps:rate ~backlog
      ~syn_timeout ()
  in
  Ff_util.Table.print
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "defense";
          (if not defended then "none"
           else if hardened then "armed+hardening"
           else "armed") ];
        [ "normalized goodput"; Printf.sprintf "%.2f" r.sf_normalized_mean ];
        [ "baseline (B/s)"; Printf.sprintf "%.0f" r.sf_baseline_goodput ];
        [ "peak backlog occupancy"; Printf.sprintf "%.2f" r.sf_peak_backlog_occupancy ];
        [ "backlog drops"; string_of_int r.sf_backlog_drops ];
        [ "half-open timeouts"; string_of_int r.sf_timeouts ];
        [ "established"; string_of_int r.sf_established ];
        [ "client handshakes ok/failed";
          Printf.sprintf "%d / %d" r.sf_completed r.sf_failed ];
        [ "SYNs sent"; string_of_int r.sf_syns_sent ];
        [ "cookies sent"; string_of_int r.sf_cookies_sent ];
        [ "validated / rejected"; Printf.sprintf "%d / %d" r.sf_validated r.sf_rejected ];
        [ "unverified drops"; string_of_int r.sf_unverified_drops ];
        [ "cuckoo occupancy"; Printf.sprintf "%.3f" r.sf_tracker_occupancy ];
        [ "cuckoo failed inserts"; string_of_int r.sf_tracker_failed_inserts ];
        [ "mode changes"; string_of_int r.sf_mode_changes ];
        [ "alarmed at end"; string_of_bool r.sf_alarmed ] ];
  `Ok ()

let sf_defended_arg =
  Arg.(value & opt bool true & info [ "defended" ] ~docv:"BOOL"
         ~doc:"Deploy the split-proxy booster (false = watch the flood win).")

let sf_hardened_arg =
  Arg.(value & flag & info [ "hardened" ]
         ~doc:"Thread the hardening profile through the guard (jittered \
               SYN-rate threshold, cookie-secret rotation).")

let sf_duration_arg =
  Arg.(value & opt positive_float 60. & info [ "duration" ] ~docv:"SECONDS"
         ~doc:"Simulated seconds.")

let sf_rate_arg =
  Arg.(value & opt positive_float 400. & info [ "rate" ] ~docv:"PPS"
         ~doc:"SYNs per second per bot (8 bots).")

let sf_backlog_arg =
  Arg.(value & opt int 64 & info [ "backlog" ] ~docv:"N"
         ~doc:"Server accept-backlog slots.")

let sf_timeout_arg =
  Arg.(value & opt positive_float 3.0 & info [ "syn-timeout" ] ~docv:"SECONDS"
         ~doc:"Half-open entry lifetime at the server.")

let synflood_command =
  let doc = "Run the SYN-flood scenario: spoofed half-opens against the accept \
             backlog, defended by SYN cookies at the edge switch and a \
             cuckoo-filter flow tracker." in
  Cmd.v (Cmd.info "synflood" ~doc)
    Term.(ret (const synflood_cmd $ sf_defended_arg $ sf_hardened_arg $ sf_duration_arg
               $ sf_rate_arg $ sf_backlog_arg $ sf_timeout_arg))

let strategy_arg =
  let module A = Ff_attacks.Adaptive in
  let strategies =
    [ ("hug", [ A.Threshold_hug ]); ("probe", [ A.Collision_probe ]);
      ("timer", [ A.Epoch_time ]);
      ("all", [ A.Threshold_hug; A.Collision_probe; A.Epoch_time ]) ]
  in
  Arg.(value & opt (enum strategies) (List.assoc "all" strategies)
       & info [ "strategy"; "s" ] ~docv:"STRATEGY"
         ~doc:"Attacker strategy: hug (threshold hugger), probe (collision \
               prober), timer (epoch timer), or all.")

let adv_seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N"
         ~doc:"Run seed (attacker and defense draws both derive from it; the \
               same seed replays the identical run).")

let adv_log_arg =
  Arg.(value & flag & info [ "log" ]
         ~doc:"Print the attacker's timestamped decision log for each \
               closed-loop run.")

let adversarial_command =
  let doc = "Pit the closed-loop adaptive attackers (threshold hugger, \
             collision prober, epoch timer) against unhardened and hardened \
             defenses and report damage and attacker work factor." in
  Cmd.v (Cmd.info "adversarial" ~doc)
    Term.(ret (const adversarial_cmd $ strategy_arg $ adv_seed_arg $ adv_log_arg))

let () =
  let doc = "FastFlex: programmable data plane defenses architected into the network" in
  let info = Cmd.info "fastflex" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ lfa_cmd; compile_command; stability_command; verify_command; dot_command;
            parallel_command; fluid_command; adversarial_command; synflood_command ]))
