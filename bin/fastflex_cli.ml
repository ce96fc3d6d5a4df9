(* The one front-end: every experiment of the reproduction (the paper's
   figures, the ablations, the gated runs, perf and the micro-benchmarks)
   is a subcommand, beside the configurable scenario runs and the
   compiler's static checks.

     fastflex_cli fig3                       # one experiment
     fastflex_cli all                        # every experiment, in order
     fastflex_cli lfa --defense sdn --csv    # one configurable Fig. 3 run
     fastflex_cli perf --fluid --shards 2    # perf with every gate
*)

open Cmdliner
module Scenario = Fastflex.Scenario

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

let nonneg_float =
  checked Arg.float ~expected:"a finite number >= 0" (fun x -> Float.is_finite x && x >= 0.)

let positive_int = checked Arg.int ~expected:"a positive integer" (fun n -> n > 0)

let fat_tree_arity =
  checked Arg.int ~expected:"an even arity of at least 2" (fun k -> k >= 2 && k mod 2 = 0)

(* fat-tree(k): (k/2)^2 cores plus k pods of k switches *)
let check_shards ~k shards =
  let switches = (k * k / 4) + (k * k) in
  if shards >= 1 && shards <= switches then Ok ()
  else
    Error
      (Printf.sprintf "--shards must be between 1 and %d (the switches of fat-tree(%d)), got %d"
         switches k shards)

(* --trace, --trace-filter and --metrics, shared by every subcommand that
   simulates; [Harness.check_obs] refuses a request the run could not
   honour with exit 124 *)
let obs_term =
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the telemetry event log to $(docv) (JSONL, or CSV when $(docv) ends \
                 in .csv).")
  in
  let kinds =
    Arg.(value & opt (some (list string)) None & info [ "trace-filter" ] ~docv:"KINDS"
           ~doc:"With $(b,--trace): keep only these comma-separated event kinds (original \
                 sequence numbers kept) and close a JSONL file with a drop-proof per-kind \
                 summary line, the format of the committed golden traces.")
  in
  let metrics =
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write the counter/gauge registry to $(docv) as CSV.")
  in
  let check trace kinds metrics =
    match Harness.check_obs { Harness.trace; kinds; metrics } with
    | Ok obs -> `Ok obs
    | Error e -> `Error (false, e)
  in
  Term.(ret (const check $ trace $ kinds $ metrics))

(* ------------------------------------------------------------------ *)
(* Experiments: each a subcommand; `all` runs them in this order        *)
(* ------------------------------------------------------------------ *)

let synflood_term =
  let duration =
    Arg.(value & opt positive_float 60. & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Simulated seconds.")
  in
  let rate =
    Arg.(value & opt positive_float 400. & info [ "rate" ] ~docv:"PPS"
           ~doc:"SYNs per second per bot (8 bots).")
  in
  let backlog =
    Arg.(value & opt positive_int 64 & info [ "backlog" ] ~docv:"N"
           ~doc:"Server accept-backlog slots.")
  in
  let syn_timeout =
    Arg.(value & opt positive_float 3.0 & info [ "syn-timeout" ] ~docv:"SECONDS"
           ~doc:"Half-open entry lifetime at the server.")
  in
  Term.(const (fun duration rate backlog syn_timeout () ->
            Experiments.synflood ~duration ~rate ~backlog ~syn_timeout)
        $ duration $ rate $ backlog $ syn_timeout)

let adversarial_term =
  let strategies =
    let module A = Ff_attacks.Adaptive in
    let all = Harness.adversarial_strategies in
    Arg.(value
         & opt (enum [ ("hug", [ A.Threshold_hug ]); ("probe", [ A.Collision_probe ]);
                       ("timer", [ A.Epoch_time ]); ("all", all) ]) all
         & info [ "strategy"; "s" ] ~docv:"STRATEGY"
             ~doc:"Attacker strategy: hug (threshold hugger), probe (collision prober), timer \
                   (epoch timer), or all.")
  in
  let seeds =
    Arg.(value & opt (list int) Harness.adversarial_seeds & info [ "seed" ] ~docv:"N,..."
           ~doc:"Run seeds (attacker and defense draws both derive from each; the same seed \
                 replays the identical run). A seed without a recorded baseline in \
                 bench/GATES fails the work-factor gate.")
  in
  let log =
    Arg.(value & flag & info [ "log" ]
           ~doc:"Print each closed-loop run's summary and timestamped decision log.")
  in
  Term.(const (fun strategies seeds log () -> Experiments.adversarial ~strategies ~seeds ~log)
        $ strategies $ seeds $ log)

let perf_term =
  let shards =
    Arg.(value & opt (some positive_int) None & info [ "shards" ] ~docv:"N"
           ~doc:"Also measure the sharded engine on fat-tree(8) with $(docv) shards, check it \
                 is bit-identical to the 1-shard run, and check its balance and allocation \
                 gates.")
  in
  let fluid =
    Arg.(value & flag & info [ "fluid" ]
           ~doc:"Also sweep the hybrid fluid/packet tier (1k to 1M flows on the ISP \
                 topology) and check its allocation, throughput and locality gates.")
  in
  let run shards fluid =
    match Option.map (check_shards ~k:Perf.perf_k) shards with
    | Some (Error e) -> `Error (false, e)
    | _ -> `Ok (fun () -> Perf.perf ~shards ~fluid)
  in
  Term.(ret (const run $ shards $ fluid))

let experiments =
  [ ( "fig1",
      "booster decomposition, module sharing, switch packing",
      Term.const Experiments.fig1 );
    ( "fig2",
      "multimode data plane timeline: default -> detect -> mitigate -> rolling",
      Term.const Experiments.fig2 );
    ( "fig3",
      "normalized throughput under a 3-round rolling LFA (the paper's evaluation)",
      Term.const Experiments.fig3 );
    ( "abl-te",
      "how fast must centralized TE be to keep up with a rolling attack?",
      Term.const Experiments.abl_te );
    ( "abl-probe",
      "reaction-time knobs: rerouting probe interval and classification age",
      Term.const Experiments.abl_probe );
    ( "abl-sharing",
      "module sharing vs. naive per-booster deployment",
      Term.const Experiments.abl_sharing );
    ( "abl-fec",
      "in-band state transfer under loss: FEC vs. retransmission alone",
      Term.const Experiments.abl_fec );
    ( "abl-scaling",
      "switch repurposing: downtime model vs. traffic continuity",
      Term.const Experiments.abl_scaling );
    ( "abl-pulse",
      "pulsing (shrew-style) attacks against the multimode data plane",
      Term.const Experiments.abl_pulse );
    ( "abl-sync",
      "distributed floods: local detection vs synchronized network-wide views",
      Term.const Experiments.abl_sync );
    ( "abl-topo",
      "pervasive deployment on a fat-tree(4): same defense, bigger network",
      Term.const Experiments.abl_topo );
    ( "abl-vol",
      "volumetric DDoS with spoofing: heavy-hitter detection through the modes",
      Term.const Experiments.abl_vol );
    ( "synflood",
      "SYN flood vs the split-proxy booster: SYN cookies at the edge, cuckoo tracker",
      synflood_term );
    ( "chaos",
      "control channels under the conditions they exist for: probe loss, flaps, crashes",
      Term.const Experiments.chaos_exp );
    ( "adversarial",
      "closed-loop adaptive attackers vs evasion-hardened defenses (attacker work factor)",
      adversarial_term );
    ( "perf",
      "per-packet hot path: fat-tree(4) + rolling LFA, 30 simulated seconds",
      perf_term );
    ( "micro",
      "per-operation cost of the data plane primitives (Bechamel OLS)",
      Term.const Experiments.micro ) ]

let with_banner name description run () =
  Printf.printf "\n==================================================================\n";
  Printf.printf "%s — %s\n" name description;
  Printf.printf "==================================================================\n%!";
  run ()

let experiment_command (name, description, term) =
  let run obs run = Harness.observe obs [ (name, with_banner name description run) ] in
  Cmd.v (Cmd.info name ~doc:description) Term.(const run $ obs_term $ term)

(* `all` runs each experiment as its subcommand would with no option. *)
let all_command =
  let defaults (name, description, term) =
    match Cmd.eval_value ~argv:[| name |] (Cmd.v (Cmd.info name) term) with
    | Ok (`Ok run) -> (name, with_banner name description run)
    | _ -> invalid_arg ("no default run for " ^ name)
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment in order, each with its defaults.")
    Term.(const (fun obs -> Harness.observe obs (List.map defaults experiments)) $ obs_term)

(* ------------------------------------------------------------------ *)
(* Configurable scenario runs                                          *)
(* ------------------------------------------------------------------ *)

let lfa_command =
  let defense =
    Arg.(value
         & opt (enum [ ("none", `None); ("sdn", `Sdn); ("fastflex", `Fastflex) ]) `Fastflex
         & info [ "defense"; "d" ] ~docv:"DEFENSE"
             ~doc:"Defense to deploy: none, sdn, or fastflex.")
  in
  let duration =
    Arg.(value & opt positive_float 120. & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Simulated seconds.")
  in
  let te_period =
    Arg.(value & opt positive_float 30. & info [ "te-period" ] ~docv:"SECONDS"
           ~doc:"Baseline SDN reconfiguration period.")
  in
  let rolls =
    Arg.(value & opt (list nonneg_float) [ 45.; 80. ] & info [ "rolls" ] ~docv:"T1,T2,..."
           ~doc:"Forced attack re-target times.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of an ASCII chart.") in
  let bots = Arg.(value & opt positive_int 8 & info [ "bots" ] ~doc:"Number of bot hosts.") in
  let normals =
    Arg.(value & opt positive_int 4 & info [ "normals" ] ~doc:"Number of normal hosts.")
  in
  let chaos =
    Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC"
           ~doc:"Inject faults during the run: semicolon-separated directives, e.g. \
                 'seed=7; cut:s2-s3\\@1.0; heal:s2-s3\\@4.0; crash:s5\\@2.0+1.5; \
                 flap:s1-s2\\@1.0..6.0/0.3/0.7; loss:s4\\@0.3,burst=4'. Nodes may be \
                 topology names or indices.")
  in
  let run obs defense duration te_period rolls csv bots normals chaos =
    let lm = Ff_topology.Topology.Fig2.build ~bots ~normals () in
    let directives =
      Result.bind
        (Option.fold ~none:(Ok []) ~some:Ff_chaos.Chaos.parse chaos)
        (fun ds -> Result.map (fun () -> ds) (Ff_chaos.Chaos.check lm.topo ds))
    in
    match directives with
    | Error e -> `Error (false, "bad --chaos spec: " ^ e)
    | Ok chaos ->
      let defense =
        match defense with
        | `None -> Scenario.No_defense
        | `Sdn -> Scenario.Baseline_sdn { period = te_period; delay = 0.5 }
        | `Fastflex -> Scenario.Fastflex Fastflex.Orchestrator.default_config
      in
      Harness.observe obs
        [ ("lfa", fun () -> Experiments.lfa ~defense ~duration ~rolls ~csv ~chaos lm) ];
      `Ok ()
  in
  Cmd.v
    (Cmd.info "lfa" ~doc:"Run the rolling link-flooding case study (paper Figure 3).")
    Term.(ret (const run $ obs_term $ defense $ duration $ te_period $ rolls $ csv $ bots
               $ normals $ chaos))

let parallel_command =
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
           ~doc:"Number of topology shards (1 = plain windowed run).")
  in
  let k =
    Arg.(value & opt fat_tree_arity 8 & info [ "k" ] ~docv:"K"
           ~doc:"Fat-tree arity (k pods, k*k*k/4 hosts).")
  in
  let duration =
    Arg.(value & opt positive_float 2.0 & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Simulated seconds of traffic (plus 50 ms drain).")
  in
  let rate =
    Arg.(value & opt positive_float 500. & info [ "rate" ] ~docv:"PPS"
           ~doc:"Per-flow constant sending rate, packets per second.")
  in
  let sequential =
    Arg.(value & flag & info [ "sequential" ]
           ~doc:"Force the cooperative single-domain mode (same windowed algorithm, no OS \
                 threads); results are bit-identical to the domains mode by construction.")
  in
  let run obs shards k duration rate_pps sequential =
    match check_shards ~k shards with
    | Error e -> `Error (false, e)
    | Ok () ->
      let w = Ff_parallel.Workload.fat_tree ~k ~rate_pps ~duration () in
      let mode = if sequential then Ff_parallel.Psim.Sequential else Ff_parallel.Psim.Auto in
      Harness.observe obs
        [ ("parallel",
            fun () -> Perf.print_parallel w ~k ~shards (Perf.run_psim w ~shards ~mode)) ];
      `Ok ()
  in
  Cmd.v
    (Cmd.info "parallel"
       ~doc:"Run the sharded parallel simulation engine on a fat-tree CBR workload and report \
             throughput.")
    Term.(ret (const run $ obs_term $ shards $ k $ duration $ rate $ sequential))

let fluid_command =
  let flows =
    Arg.(value & opt positive_int 100_000 & info [ "flows" ] ~docv:"N"
           ~doc:"Concurrent benign flows in the hybrid tier.")
  in
  let duration =
    Arg.(value & opt positive_float 40. & info [ "duration" ] ~docv:"SECONDS"
           ~doc:"Simulated seconds (the flood runs 10..18 with a roll at 14).")
  in
  let force =
    let tiers =
      [ ("auto", Ff_fluid.Hybrid.Auto); ("packet", Ff_fluid.Hybrid.All_packet);
        ("fluid", Ff_fluid.Hybrid.All_fluid) ]
    in
    Arg.(value & opt (enum tiers) Ff_fluid.Hybrid.Auto & info [ "force" ] ~docv:"TIER"
           ~doc:"Engine tier: auto (hybrid: demote on mode activity), packet (all-packet, \
                 bit-identical to the pure packet engine), or fluid (never demote).")
  in
  let run obs flows duration force =
    Harness.observe obs
      [ ("fluid", fun () -> Perf.print_fluid [ Perf.measure_fluid ~force ~flows ~duration () ]) ]
  in
  Cmd.v
    (Cmd.info "fluid"
       ~doc:"Run the hybrid fluid/packet rolling-LFA scenario on the ISP topology and report \
             packet-equivalent throughput; one point of perf --fluid's sweep.")
    Term.(const run $ obs_term $ flows $ duration $ force)

(* ------------------------------------------------------------------ *)
(* Static checks                                                        *)
(* ------------------------------------------------------------------ *)

let verify_command =
  let run () =
    let results = Fastflex.Compile.verify () in
    List.iter
      (fun (name, issues) ->
        match issues with
        | [] -> Printf.printf "%-18s ok\n" name
        | issues ->
          Printf.printf "%-18s %d issue(s):\n" name (List.length issues);
          List.iter (fun i -> Format.printf "  %a@." Ff_dataflow.Check.pp_issue i) issues)
      results;
    if List.for_all (fun (_, issues) -> issues = []) results then `Ok ()
    else `Error (false, "verification found issues")
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Statically check every booster pipeline (uninitialized metadata, undeclared \
             tables, dead code, resource under-provisioning).")
    Term.(ret (const run $ const ()))

let dot_command =
  let run () =
    let compiled = Fastflex.Compile.boosters () in
    print_string (Ff_dataflow.Graph.to_dot ~name:"fastflex" compiled.Fastflex.Compile.merged)
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit the merged booster dataflow graph as Graphviz dot.")
    Term.(const run $ const ())

let () =
  let doc = "FastFlex: programmable data plane defenses architected into the network" in
  exit
    (Cmd.eval
       (Cmd.group
          (Cmd.info "fastflex" ~version:"1.0.0" ~doc)
          (List.map experiment_command experiments
          @ [ all_command; lfa_command; parallel_command; fluid_command; verify_command;
              dot_command ])))
