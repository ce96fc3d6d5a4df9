module Topology = Ff_topology.Topology
module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow
module Monitor = Ff_netsim.Monitor
module Series = Ff_util.Series
module Hybrid = Ff_fluid.Hybrid
module Fluid = Ff_fluid.Fluid

type defense =
  | No_defense
  | Baseline_sdn of { period : float; delay : float }
  | Fastflex of Orchestrator.config

type attack_plan = { start : float; roll_schedule : float list; flows_per_bot : int }

let default_attack = { start = 10.; roll_schedule = [ 45.; 80. ]; flows_per_bot = 3 }

(* ---- packet-tier runs ------------------------------------------------- *)

type testbed = { topo : Topology.t; routes : Net.t -> unit }

type flow =
  | Tcp of { src : int; dst : int; max_cwnd : float }
  | Cbr of { src : int; dst : int; rate_pps : float; packet_size : int }
  | Handshake of { src : int; dst : int }
  | Population of {
      count : int;
      seed : int;
      rate_bps : float;
      packet_size : int;
      force : Hybrid.force;
      demote_budget : int option;
    }

type server = { host : int; backlog : int; syn_timeout : float }

type attack =
  | Crossfire of { bots : int list; decoy_groups : int list list; plan : attack_plan }
  | Flood of { bots : int list; victim : int; rate_pps : float; start : float; spoof_as : int list }
  | Syn_flood of {
      bots : int list;
      victim : int;
      rate_pps : float;
      start : float;
      spoof_as : int list;
    }
  | Pulse of { bots : int list; victim : int; burst_pps : float; duty : float; start : float }
  | Adaptive of {
      strategy : Ff_attacks.Adaptive.strategy;
      bots : int list;
      targets : int list;
      sinks : int list;
      seed : int;
      start : float;
      stop : float;
    }
  | Fluid_crossfire of {
      bots : int list;
      decoy_groups : int list list;
      rate_bps_per_flow : float;
      packet_size : int;
      start : float;
      stop : float;
      roll_schedule : float list;
      recon : bool;
    }

type spec = {
  testbed : testbed;
  server : server option;
  flows : flow list;
  defense : defense;
  boosters : Orchestrator.defense list;
  attacks : attack list;
  duration : float;
  sample_period : float option;
  hook : report -> unit;
}

and report = {
  spec : spec;
  net : Net.t;
  tcp : Flow.Tcp.t list;
  clients : Flow.Handshake.t list;
  listener : Flow.Listener.t option;
  deployment : Orchestrator.deployment option;
  controller : Ff_te.Controller.t option;
  crossfires : Ff_attacks.Lfa.t list;
  syn_floods : Ff_attacks.Synflood.t list;
  adaptives : Ff_attacks.Adaptive.t list;
  hybrid : Hybrid.t option;
  population : (Hybrid.member * int) option;
  fluid_floods : Ff_attacks.Lfa.Fluid_volume.t list;
  goodput : Series.t;
}

(* Uniform-rate CBR members between random host pairs; one rate level
   keeps the path-class count at O(host pairs). Consecutive [add_flow]
   calls issue a contiguous range of members, so the first one and the
   count stand for the whole population. *)
let admit_population hybrid ~count ~seed ~rate_bps ~packet_size =
  let hosts = Array.of_list (Net.host_ids (Hybrid.net hybrid)) in
  let nh = Array.length hosts in
  let rng = Ff_util.Prng.create ~seed in
  let profile = Hybrid.Cbr { rate_pps = rate_bps /. float_of_int (8 * packet_size); packet_size } in
  let add () =
    let src = hosts.(Ff_util.Prng.int rng nh) in
    let dst = ref hosts.(Ff_util.Prng.int rng nh) in
    while !dst = src do dst := hosts.(Ff_util.Prng.int rng nh) done;
    Hybrid.add_flow hybrid ~src ~dst:!dst profile
  in
  let first = if count > 0 then Some (add ()) else None in
  for _ = 2 to count do
    ignore (add ())
  done;
  Option.map (fun first -> (first, count)) first

let population_bytes hybrid = function
  | Some (first, count) -> Hybrid.sum_delivered_bytes (Option.get hybrid) ~first ~count
  | None -> 0.

let run spec =
  let net = Net.create (Engine.create ()) spec.testbed.topo in
  spec.testbed.routes net;
  let listener =
    Option.map
      (fun { host; backlog; syn_timeout } ->
        Flow.Listener.install net ~host ~backlog ~syn_timeout ())
      spec.server
  in
  let tcp = ref [] and clients = ref [] and hybrid = ref None and population = ref None in
  List.iter
    (function
      | Tcp { src; dst; max_cwnd } ->
        tcp := Flow.Tcp.start net ~src ~dst ~at:0.5 ~max_cwnd () :: !tcp
      | Cbr { src; dst; rate_pps; packet_size } ->
        ignore (Flow.Cbr.start net ~src ~dst ~rate_pps ~packet_size ~at:0.1 ())
      | Handshake { src; dst } ->
        clients := Flow.Handshake.start net ~src ~dst ~at:0.5 ~conn_interval:0.4 () :: !clients
      | Population { count; seed; rate_bps; packet_size; force; demote_budget } ->
        if Option.is_some !hybrid then invalid_arg "Scenario.run: more than one Population";
        let h = Hybrid.create ~force ?demote_budget net () in
        hybrid := Some h;
        population := admit_population h ~count ~seed ~rate_bps ~packet_size)
    spec.flows;
  let tcp = List.rev !tcp and clients = List.rev !clients in
  let hybrid = !hybrid and population = !population in
  let controller, deployment =
    match spec.defense with
    | No_defense -> (None, None)
    | Baseline_sdn { period; delay } ->
      (* measurement half of the controller loop: telemetry at every
         switch counts each pair at its ingress; attack flows are measured
         like any other traffic — indistinguishability is the baseline's
         handicap *)
      let telemetry = Ff_te.Estimator.install net in
      let estimate () = Ff_te.Estimator.matrix telemetry in
      (Some (Ff_te.Controller.start net ~period ~delay ~estimate), None)
    | Fastflex config ->
      let d = Orchestrator.deploy net ~config spec.boosters in
      (* on the hybrid tier, flows whose paths cross a mode-changing
         switch drop to packet fidelity *)
      Option.iter
        (fun h ->
          Ff_modes.Protocol.on_transition d.protocol (fun ~sw ~attack:_ ~active ->
              if active then Hybrid.mark_hot h ~node:sw else Hybrid.clear_hot h ~node:sw))
        hybrid;
      Option.iter
        (fun l -> List.iter (fun g -> Ff_boosters.Syn_guard.attach_server_agent g l) d.syn_guards)
        listener;
      (None, Some d)
  in
  let crossfires = ref [] and syn_floods = ref [] and adaptives = ref [] and fluid_floods = ref [] in
  List.iter
    (function
      | Crossfire { bots; decoy_groups; plan = p } ->
        crossfires :=
          Ff_attacks.Lfa.launch net ~bots ~decoy_groups ~start:p.start
            ~flows_per_bot:p.flows_per_bot ~roll_schedule:p.roll_schedule ()
          :: !crossfires
      | Flood { bots; victim; rate_pps; start; spoof_as } ->
        ignore
          (Ff_attacks.Volumetric.launch net ~bots ~victim ~rate_pps_per_bot:rate_pps ~start
             ~spoof_as ())
      | Syn_flood { bots; victim; rate_pps; start; spoof_as } ->
        syn_floods :=
          Ff_attacks.Synflood.launch net ~bots ~victim ~syn_rate_pps:rate_pps ~start ~spoof_as ()
          :: !syn_floods
      | Pulse { bots; victim; burst_pps; duty; start } ->
        ignore (Ff_attacks.Pulsing.launch net ~bots ~victim ~burst_pps ~duty ~start ())
      | Adaptive { strategy; bots; targets; sinks; seed; start; stop } ->
        adaptives :=
          Ff_attacks.Adaptive.launch net ~strategy ~bots ~targets ~sinks ~seed ~start ~stop
          :: !adaptives
      | Fluid_crossfire
          { bots; decoy_groups; rate_bps_per_flow; packet_size; start; stop; roll_schedule; recon }
        ->
        if Option.is_none hybrid then invalid_arg "Scenario.run: Fluid_crossfire needs a Population";
        fluid_floods :=
          Ff_attacks.Lfa.Fluid_volume.launch (Option.get hybrid) ~bots ~decoy_groups ~rate_bps_per_flow
            ~packet_size ~start ~stop ~roll_schedule
          :: !fluid_floods;
        if recon then
          crossfires :=
            Ff_attacks.Lfa.launch net ~bots ~decoy_groups ~start ~stop ~flows_per_bot:1
              ~roll_on_path_change:false ~roll_schedule ()
            :: !crossfires)
    spec.attacks;
  let goodput =
    match spec.sample_period with
    | None -> Series.create ~name:"goodput"
    | Some period ->
      let completed () =
        List.fold_left (fun acc c -> acc +. Flow.Handshake.completed_bytes c) 0. clients
      in
      let probes =
        (if clients = [] then [] else [ Monitor.counter_probe completed ])
        @
        if Option.is_none population then []
        else [ Monitor.counter_probe (fun () -> population_bytes hybrid population) ]
      in
      Monitor.aggregate_goodput net ~flows:tcp ~probes ~period ~name:"goodput" ()
  in
  let report =
    { spec; net; tcp; clients; listener; deployment; controller;
      crossfires = List.rev !crossfires; syn_floods = List.rev !syn_floods;
      adaptives = List.rev !adaptives; hybrid; population; fluid_floods = List.rev !fluid_floods;
      goodput }
  in
  spec.hook report;
  Engine.run (Net.engine net) ~until:spec.duration;
  report

let attack_start spec =
  match spec.attacks with
  | [] -> spec.duration
  | attacks ->
    List.fold_left
      (fun t -> function
        | Crossfire { plan = { start; _ }; _ }
        | Flood { start; _ } | Syn_flood { start; _ } | Pulse { start; _ }
        | Fluid_crossfire { start; _ } | Adaptive { start; _ } -> Float.min t start)
      infinity attacks

let window series t0 t1 =
  List.filter_map (fun (t, v) -> if t >= t0 && t <= t1 then Some v else None) (Series.points series)

(* The normalizer: mean goodput over the steady state just before the
   attack (at least 1, so an idle run stays finite). *)
let baseline r =
  let attack_start = attack_start r.spec in
  let lo = Float.max 2. (attack_start -. 6.) and hi = Float.max 4. (attack_start -. 1.) in
  Float.max 1. (Ff_util.Stats.mean (window r.goodput lo hi))

let mean_goodput r ~from =
  Ff_util.Stats.mean (window r.goodput from r.spec.duration) /. baseline r

let mode_log r =
  match r.deployment with Some d -> Ff_modes.Protocol.log d.Orchestrator.protocol | None -> []

(* ---- Figure 2 specs ---------------------------------------------------- *)

(* The Figure 2 testbed: default shortest-path routes for every host, with
   the two victim-side decoys deliberately spread over the two critical
   links (decoy1 via m1, decoy2 via m2) — the path diversity a Crossfire
   attacker exploits to choose its target link — and on top the default
   mode: the optimal configuration from centralized TE for the normal
   demand. k = 2 keeps the default plan on the two shortest
   (critical-link) paths; the longer detour is capacity the defenses tap
   into under attack. *)
let fig2_testbed ({ topo; agg; victim_agg; decoys; critical; normal_sources; victim; _ } :
                   Topology.Fig2.landmarks) =
  let routes net =
    Net.install_shortest_paths net;
    (match (decoys, critical) with
    | [ d1; d2 ], [ c1; c2 ] ->
      let mid_of (l : Topology.link) = if l.Topology.a = agg then l.Topology.b else l.Topology.a in
      let m1 = mid_of c1 and m2 = mid_of c2 in
      Net.set_route net ~sw:agg ~dst:d1 ~next_hop:m1;
      Net.set_route net ~sw:m1 ~dst:d1 ~next_hop:victim_agg;
      Net.set_route net ~sw:agg ~dst:d2 ~next_hop:m2;
      Net.set_route net ~sw:m2 ~dst:d2 ~next_hop:victim_agg
    | _ -> ());
    let matrix = Ff_te.Traffic_matrix.empty () in
    List.iter
      (fun n -> Ff_te.Traffic_matrix.set matrix ~src:n ~dst:victim 2_300_000.)
      normal_sources;
    Ff_te.Solver.install net (Ff_te.Solver.solve ~k:2 topo matrix)
  in
  { topo; routes }

let fig2_lfa ({ agg; victim_agg; victim; decoys; critical; _ } : Topology.Fig2.landmarks) =
  let watched =
    List.map
      (fun (l : Topology.link) ->
        if l.Topology.a = agg then (l.Topology.a, l.Topology.b) else (l.Topology.b, l.Topology.a))
      critical
  in
  Orchestrator.Lfa
    { sites = [ (agg, watched) ]; protect = victim :: decoys; handoff = Some (agg, victim_agg) }

let fig2_spec ~defense ?(duration = 60.) (lm : Topology.Fig2.landmarks) ~boosters
    attacks =
  let flows =
    List.map (fun n -> Tcp { src = n; dst = lm.victim; max_cwnd = 4. }) lm.normal_sources
  in
  { testbed = fig2_testbed lm; server = None; flows; defense; boosters; attacks; duration;
    sample_period = Some 0.5; hook = ignore }

let fig2_crossfire (lm : Topology.Fig2.landmarks) plan =
  Crossfire { bots = lm.bot_sources; decoy_groups = List.map (fun d -> [ d ]) lm.decoys; plan }

let lfa_spec ~defense ?(attack = Some default_attack) ?(duration = 120.) lm =
  fig2_spec ~defense ~duration lm ~boosters:[ fig2_lfa lm ]
    (Option.to_list (Option.map (fig2_crossfire lm) attack))

let fig2_volumetric sw =
  Orchestrator.Volumetric
    { sw; threshold_bps = 4_000_000.; by_source = false; pipe = None; fanout_guard = false }

(* Each bot flow is individually a heavy hitter; the spoofed identities
   are the normal hosts' addresses, whose TTL fingerprints the hop-count
   filter learns from their legitimate traffic. *)
let volumetric_spec ~defended ?(spoof = true) ?duration (lm : Topology.Fig2.landmarks) =
  fig2_spec
    ~defense:(if defended then Fastflex Orchestrator.default_config else No_defense)
    ?duration lm
    ~boosters:[ fig2_volumetric lm.agg ]
    [ Flood
        { bots = lm.bot_sources; victim = lm.victim; rate_pps = 600.; start = 10.;
          spoof_as = (if spoof then lm.normal_sources else []) } ]

(* Three vectors at once, three stacks in one deployment. region_ttl 3
   keeps each attack's modes near its detector, so the defenses coexist
   in different regions of the network. *)
let multi_vector_spec (lm : Topology.Fig2.landmarks) =
  let node name = (Topology.node_by_name lm.topo name).Topology.id in
  let e2 = node "e2" and server = node "decoy2" in
  let behind_e2 h = List.exists (fun (sw, _) -> sw = e2) (Topology.neighbors lm.topo h) in
  let e2_bots, e1_bots = List.partition behind_e2 lm.bot_sources in
  let spec =
    fig2_spec
      ~defense:(Fastflex { Orchestrator.default_config with region_ttl = 3 })
      ~duration:50. lm
      ~boosters:
        [ fig2_lfa lm;
          fig2_volumetric e2;
          Orchestrator.Syn_guard
            { sw = node "ve2"; protect = server; tracker_capacity = 4096;
              syn_threshold_pps = 200. } ]
      [ fig2_crossfire lm { default_attack with start = 8.; roll_schedule = [ 25. ] };
        (* a bot behind e2 claims the identity of a normal host also
           behind e2, whose TTL fingerprint the filter has learned *)
        Flood
          { bots = [ List.hd e2_bots ]; victim = lm.victim; rate_pps = 600.; start = 15.;
            spoof_as = [ List.find behind_e2 lm.normal_sources ] };
        Syn_flood
          { bots = e1_bots; victim = server; rate_pps = 400.; start = 20.;
            spoof_as = lm.normal_sources } ]
  in
  (* the public server behind ve2 is the SYN flood's target *)
  { spec with server = Some { host = server; backlog = 64; syn_timeout = 3.0 } }

(* ---- frozen projections ----------------------------------------------- *)

type result = {
  normalized : Series.t;
  raw_goodput : Series.t;
  attack_goodput : Series.t;
  baseline_goodput : float;
  rolls : float list;
  reconfigs : float list;
  mode_log : (float * int * Ff_dataplane.Packet.attack_kind * bool) list;
  mean_during_attack : float;
  min_during_attack : float;
  recovery_times : (float * float) list;
  drops : (string * int) list;
  suspicious_marked : int;
  probes_sent : int;
}

let run_lfa_spec spec =
  let sample_period = Option.get spec.sample_period in
  (* only this view reports the Crossfire series, so it samples it here
     (ahead of the spec's hook) and other runs pay no sampling events *)
  let attack_goodput = ref (Series.create ~name:"attack-goodput") in
  let hook r =
    attack_goodput :=
      Monitor.sample (Net.engine r.net) ~period:sample_period ~name:"attack-goodput" (fun now ->
          List.fold_left (fun acc a -> acc +. Ff_attacks.Lfa.attack_rate a ~now) 0. r.crossfires);
    spec.hook r
  in
  let r = run { spec with hook } in
  let attack_start = attack_start spec and baseline_goodput = baseline r in
  let normalized = Series.create ~name:"normalized" in
  List.iter
    (fun (t, v) -> Series.add normalized ~time:t (v /. baseline_goodput))
    (Series.points r.goodput);
  let during_attack =
    List.filter_map
      (fun (t, v) -> if t >= attack_start +. sample_period then Some v else None)
      (Series.points normalized)
  in
  let rolls = List.concat_map Ff_attacks.Lfa.rolls r.crossfires in
  (* time from each attack event (attack start and each roll) back to 80% *)
  let events = if spec.attacks = [] then [] else attack_start :: rolls in
  let recovery_times =
    List.map
      (fun ev ->
        let rec find = function
          | [] -> (ev, infinity)
          | (t, v) :: rest ->
            if t > ev +. (2. *. sample_period) && v >= 0.8 then (ev, t -. ev) else find rest
        in
        find (Series.points normalized))
      events
  in
  let d = r.deployment in
  {
    normalized;
    raw_goodput = r.goodput;
    attack_goodput = !attack_goodput;
    baseline_goodput;
    rolls;
    reconfigs = Option.fold ~none:[] ~some:Ff_te.Controller.reconfig_times r.controller;
    mode_log = mode_log r;
    mean_during_attack = (match during_attack with [] -> 1. | vs -> Ff_util.Stats.mean vs);
    min_during_attack =
      (match during_attack with [] -> 1. | vs -> List.fold_left Float.min infinity vs);
    recovery_times;
    drops = Net.drops_by_reason r.net;
    suspicious_marked =
      Option.fold ~none:0 d ~some:(fun d ->
          List.fold_left (fun acc (_, x) -> acc + Ff_boosters.Lfa_detector.marks x) 0
            d.Orchestrator.detectors);
    probes_sent =
      (match d with
      | Some { Orchestrator.reroute = Some rr; _ } -> Ff_boosters.Reroute.probes_sent rr
      | _ -> 0);
  }

let run_lfa ~defense ?attack ?duration ?on_ready () =
  let lm = Topology.Fig2.build ~bots:8 ~normals:4 () in
  let spec = lfa_spec ~defense ?attack ?duration lm in
  let hook r = Option.iter (fun f -> f r.net lm r.tcp) on_ready in
  run_lfa_spec { spec with hook }

let pp_summary fmt r =
  Format.fprintf fmt
    "baseline=%.0f B/s mean=%.2f min=%.2f rolls=%d reconfigs=%d mode-changes=%d@."
    r.baseline_goodput r.mean_during_attack r.min_during_attack (List.length r.rolls)
    (List.length r.reconfigs) (List.length r.mode_log);
  List.iter
    (fun (ev, rt) ->
      if rt = infinity then Format.fprintf fmt "  event at %.1fs: never recovered to 80%%@." ev
      else Format.fprintf fmt "  event at %.1fs: recovered to 80%% in %.1fs@." ev rt)
    r.recovery_times

type synflood_result = {
  sf_normalized_mean : float;
  sf_baseline_goodput : float;
  sf_peak_backlog_occupancy : float;
  sf_backlog_drops : int;
  sf_timeouts : int;
  sf_established : int;
  sf_completed : int;
  sf_failed : int;
  sf_cookies_sent : int;
  sf_validated : int;
  sf_rejected : int;
  sf_unverified_drops : int;
  sf_tracker_occupancy : float;
  sf_tracker_failed_inserts : int;
  sf_syns_sent : int;
  sf_mode_changes : int;
  sf_alarmed : bool;
}

let run_synflood ~defended ?(hardened = false) ?(duration = 60.)
    ?(attack_rate_pps = 400.) ?(backlog = 64) ?(syn_timeout = 3.0) () =
  let lm = Topology.Fig2.build ~bots:8 ~normals:4 () in
  let hardening = if hardened then Some Orchestrator.default_hardening else None in
  let defense =
    if defended then Fastflex { Orchestrator.default_config with hardening } else No_defense
  in
  let spec =
    fig2_spec ~defense ~duration lm
      ~boosters:
        [ Orchestrator.Syn_guard
            { sw = lm.victim_agg; protect = lm.victim; tracker_capacity = 4096;
              syn_threshold_pps = 200. } ]
      [ Syn_flood
          { bots = lm.bot_sources; victim = lm.victim; rate_pps = attack_rate_pps; start = 10.;
            spoof_as = lm.normal_sources } ]
  in
  (* the victim's accept backlog under attack; legitimate clients loop
     short handshake-data-FIN connections, and their completion rate is
     the goodput *)
  let r =
    run
      { spec with
        server = Some { host = lm.victim; backlog; syn_timeout };
        flows = List.map (fun n -> Handshake { src = n; dst = lm.victim }) lm.normal_sources }
  in
  let listener = Option.get r.listener in
  let guard = match r.deployment with Some { syn_guards = [ g ]; _ } -> Some g | _ -> None in
  let stat f = Option.fold ~none:0 ~some:f guard in
  let tracker f = Option.map (fun g -> f (Ff_boosters.Syn_guard.tracker g)) guard in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 r.clients in
  {
    sf_normalized_mean = mean_goodput r ~from:(attack_start spec +. 2.);
    sf_baseline_goodput = baseline r;
    sf_peak_backlog_occupancy = Flow.Listener.peak_occupancy listener;
    sf_backlog_drops = Flow.Listener.backlog_drops listener;
    sf_timeouts = Flow.Listener.timeouts listener;
    sf_established = Flow.Listener.established listener;
    sf_completed = sum Flow.Handshake.completed;
    sf_failed = sum Flow.Handshake.failed;
    sf_cookies_sent = stat Ff_boosters.Syn_guard.cookies_sent;
    sf_validated = stat Ff_boosters.Syn_guard.validated;
    sf_rejected = stat Ff_boosters.Syn_guard.rejected;
    sf_unverified_drops = stat Ff_boosters.Syn_guard.unverified_drops;
    sf_tracker_occupancy = Option.value ~default:0. (tracker Ff_dataplane.Cuckoo.occupancy);
    sf_tracker_failed_inserts =
      Option.value ~default:0 (tracker Ff_dataplane.Cuckoo.failed_inserts);
    sf_syns_sent =
      List.fold_left (fun acc a -> acc + Ff_attacks.Synflood.syns_sent a) 0 r.syn_floods;
    sf_mode_changes = List.length (mode_log r);
    sf_alarmed = Option.fold ~none:false ~some:Ff_boosters.Syn_guard.alarmed guard;
  }

let install_all_routes net =
  let topo = Net.topology net in
  List.iter
    (fun dst ->
      Topology.route_tree topo ~dst (fun ~sw ~next_hop -> Net.set_route net ~sw ~dst ~next_hop))
    (Net.host_ids net)

(* ---- closed-loop adversarial arena ------------------------------------- *)

module Adaptive = Ff_attacks.Adaptive
module Workfactor = Ff_obs.Workfactor

type adversary = Closed_loop | Open_loop

type adversarial_result = {
  ar_strategy : Adaptive.strategy;
  ar_hardened : bool;
  ar_adversary : adversary;
  ar_probes : int;
  ar_damage : float;
  ar_peak_util : float;
  ar_effective_at : float option;
  ar_time_to_effective : float;
  ar_work_factor : float;
  ar_alarms : int;
  ar_drops : int;
  ar_rotations : int;
  ar_fingerprint : int;
  ar_summary : string;
  ar_log : string list;
}

(* The arena on fat-tree(4). [wf] integrates the damage over the four
   pod-0 aggregation-to-edge decoy links; the hook samples it. *)
let adversarial_spec ~strategy ~adversary ~hardened ~seed ~duration ~attack_start wf =
  let topo = Topology.fat_tree ~k:4 () in
  let id fmt = Printf.ksprintf (fun n -> (Topology.node_by_name topo n).Topology.id) fmt in
  let victim = id "h0_0_0" in
  let sink = id "h0_0_1" in
  (* the decoy set a Crossfire hugger floods: the pod-0 public hosts *)
  let decoys = [ id "h0_0_1"; id "h0_1_0"; id "h0_1_1" ] in
  let aggs = [ id "agg0_0"; id "agg0_1" ] in
  let watched a = [ (a, id "edge0_0"); (a, id "edge0_1") ] in
  (* Pin path-diverse routes toward the pod-0 hosts. The default BFS
     trees collapse every pod-0 destination onto a single core->agg
     uplink, which then bottlenecks *upstream* of the watched agg->edge
     links and caps their utilization well below the damage floor.
     Spreading the four destinations across the four cores gives each
     decoy path a dedicated uplink of the same capacity as the watched
     link, so the watched links themselves are the contended resource. *)
  let routes net =
    install_all_routes net;
    List.iter
      (fun (dst, core, agg, edge) ->
        (* from every edge of pods 1-3: agg{p}_0 reaches cores 0-1,
           agg{p}_1 cores 2-3 *)
        List.iter
          (fun p ->
            List.iter
              (fun e ->
                Net.install_path net ~dst
                  [ id "edge%d_%d" p e; id "agg%d_%d" p (core / 2); id "core%d" core;
                    id "agg0_%d" agg; id "edge0_%d" edge; dst ])
              [ 0; 1 ])
          [ 1; 2; 3 ])
      [ (victim, 3, 1, 0); (id "h0_0_1", 0, 0, 0); (id "h0_1_0", 1, 0, 1); (id "h0_1_1", 2, 1, 1) ]
  in
  (* host [i] of pod [p]: edge switch i / 2, port i mod 2 *)
  let host p i = id "h%d_%d_%d" p (i / 2) (i mod 2) in
  let bots = List.concat_map (fun p -> List.init 4 (host p)) [ 1; 2 ] in
  (* light benign background: pod-3 clients of the victim and decoys *)
  let flows =
    List.mapi
      (fun i dst -> Tcp { src = host 3 i; dst; max_cwnd = 2. })
      [ victim; id "h0_1_0"; victim; id "h0_1_1" ]
  in
  let hardening =
    let h = Orchestrator.default_hardening in
    if hardened then Some { Orchestrator.h_seed = h.h_seed lxor (seed * 0x1003F) } else None
  in
  (* each stack keeps the dropper posture it was tuned with *)
  let (drop_rate_limit, drop_prob), boosters =
    match strategy with
    | Adaptive.Threshold_hug ->
      (* the LFA stack at the pod-0 aggregation switches: detection with
         offered-load hysteresis, cross-switch suspicious-source sync,
         illusion-of-success dropping; nothing to reroute toward *)
      ( (150_000., 0.5),
        [ Orchestrator.Lfa
            { sites = List.map (fun a -> (a, watched a)) aggs; protect = []; handoff = None } ] )
    | Adaptive.Collision_probe | Adaptive.Epoch_time ->
      (* the collision prober faces a flow-keyed one-stage HashPipe (every
         slot fight is a clean eviction) plus the fanout guard that closes
         the key-spreading alternative. Hardening pays SRAM for resilience
         (FastFlex's elastic-resource model): with 8 slots even a low-rate
         cross-collider resets a heavy flow's count packet by packet, and
         8x the slots scale the attacker's collision search by 8x. The
         epoch timer faces a source-keyed pipe: a fixed bot population
         cannot spread past per-sender accounting, so only timing around
         the epoch boundaries hides the volume. *)
      let prober = strategy = Adaptive.Collision_probe in
      ( (100_000., 0.9),
        List.map
          (fun sw ->
            Orchestrator.Volumetric
              { sw; threshold_bps = 1_200_000.; by_source = not prober;
                pipe = (if prober then Some (1, if hardened then 64 else 8) else None);
                fanout_guard = prober })
          aggs )
  in
  let config =
    { Orchestrator.default_config with region_ttl = 2; hardening; drop_rate_limit; drop_prob }
  in
  let attacks =
    match (adversary, strategy) with
    (* same arena, no feedback loop: the blast every strategy is
       normalized against *)
    | Open_loop, Adaptive.Threshold_hug ->
      let per_flow = 30_000_000. /. float_of_int (List.length bots * List.length decoys) in
      let flood bot victim =
        Flood { bots = [ bot ]; victim; rate_pps = per_flow /. 8000.; start = attack_start;
                spoof_as = [] }
      in
      List.concat_map (fun bot -> List.map (flood bot) decoys) bots
    | Open_loop, (Adaptive.Collision_probe | Adaptive.Epoch_time) ->
      [ Flood { bots; victim = sink; rate_pps = 250.; start = attack_start; spoof_as = [] } ]
    | Closed_loop, _ ->
      [ Adaptive
          { strategy; bots; targets = decoys; sinks = [ sink ]; seed = 0xADA9 lxor (seed * 65599);
            start = attack_start; stop = duration } ]
  in
  (* the work-factor sampler: attacker probes and the hottest decoy link *)
  let hook r =
    let sample_dt = 0.1 in
    let last_probes = ref 0 in
    Engine.every (Net.engine r.net) ~start:sample_dt ~period:sample_dt (fun () ->
        let p = List.fold_left (fun acc a -> acc + Adaptive.probes_sent a) 0 r.adaptives in
        Workfactor.add_probes wf (p - !last_probes);
        last_probes := p;
        let util =
          List.fold_left
            (fun acc (a, e) -> Float.max acc (Net.utilization r.net ~from_:a ~to_:e))
            0. (List.concat_map watched aggs)
        in
        Workfactor.sample wf ~now:(Net.now r.net) ~dt:sample_dt ~util)
  in
  { testbed = { topo; routes }; server = None; flows; defense = Fastflex config; boosters; attacks;
    duration; sample_period = None; hook }

let run_adversarial ~strategy ~adversary ?(hardened = false) ?(seed = 1) ?(duration = 70.) () =
  let attack_start = 10. in
  let wf = Workfactor.create ~attack_start in
  let r = run (adversarial_spec ~strategy ~adversary ~hardened ~seed ~duration ~attack_start wf) in
  let d = Option.get r.deployment in
  let atk = match r.adaptives with [ a ] -> Some a | _ -> None in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  {
    ar_strategy = strategy;
    ar_hardened = hardened;
    ar_adversary = adversary;
    ar_probes = Workfactor.probes wf;
    ar_damage = Workfactor.damage wf;
    ar_peak_util = Workfactor.peak_util wf;
    ar_effective_at = Workfactor.effective_at wf;
    ar_time_to_effective = Workfactor.time_to_effective wf ~horizon:duration;
    ar_work_factor = Workfactor.work_factor wf ~horizon:duration;
    ar_alarms = Ff_modes.Protocol.raises d.Orchestrator.protocol;
    ar_drops = sum (fun (_, dr) -> Ff_boosters.Dropper.dropped dr) d.droppers;
    ar_rotations = sum Ff_boosters.Heavy_hitter.rotations d.heavy_hitters;
    ar_fingerprint = Option.fold ~none:0 ~some:Adaptive.fingerprint atk;
    ar_summary = Option.fold ~none:"open-loop" ~some:Adaptive.summary atk;
    ar_log =
      Option.fold ~none:[] atk ~some:(fun a ->
          List.map (fun (at, msg) -> Printf.sprintf "%6.2f %s" at msg) (Adaptive.log a));
  }

(* ---- hybrid fluid/packet ISP scenario ---------------------------------- *)

type fluid_result = {
  fr_flows : int;
  fr_classes : int;
  fr_duration : float;
  fr_packet_tx : int;
  fr_fluid_hop_bytes : float;
  fr_packet_equivalents : float;
  fr_delivered_bytes : float;
  fr_demoted_peak : int;
  fr_demoted_frac_peak : float;
  fr_demotions : int;
  fr_promotions : int;
  fr_mode_changes : int;
  fr_rolls : int;
  fr_rate_events : int;
  fr_solver : Fluid.solver_stats;
  fr_touched_frac : float;
  fr_demote_denied : int;
  fr_goodput : Series.t;
  fr_drops : (string * int) list;
}

let run_lfa_fluid ?(flows = 100_000) ?(duration = 40.) ?(force = Hybrid.Auto) ?(seed = 11)
    ?(flow_rate_bps = 25_000.) ?(cores = 12) ?(attack_start = 10.) ?(attack_stop = 18.)
    ?(roll_at = 14.) ?(attack_bps_per_flow = 60_000_000.) ?(packet_recon = true) ?demote_budget
    ?(goodput_period = 0.5) ?obs () =
  let access_per_core = 2 and hosts_per_access = 4 and packet_size = 1000 in
  let topo = Topology.isp ~cores ~access_per_core ~hosts_per_access () in
  let host_arr =
    Array.of_list (List.map (fun (n : Topology.node) -> n.Topology.id) (Topology.hosts topo))
  in
  let behind_access a =
    Array.to_list (Array.sub host_arr (a * hosts_per_access) hosts_per_access)
  in
  let victim = host_arr.(0) and decoys_a = List.tl (behind_access 0) in
  let decoys_b = behind_access 1 in
  (* bots: the first host of up to 8 of the PoPs 2 .. cores - 2, spread
     away from PoP 0 *)
  let bots =
    let pops = cores - 3 in
    let step = Float.max 1. (float_of_int pops /. 8.) in
    List.init (min 8 pops) (fun i ->
        let p = 2 + int_of_float (float_of_int i *. step) in
        host_arr.(p * access_per_core * hosts_per_access))
  in
  (* the flood volume rides the fluid tier; its packet-level side (recon
     traceroutes + low-rate TCP decoy flows) is optional *)
  let spec =
    { testbed = { topo; routes = install_all_routes }; server = None;
      flows =
        [ Population
            { count = flows; seed; rate_bps = flow_rate_bps; packet_size; force; demote_budget } ];
      defense =
        Fastflex
          { Orchestrator.default_config with
            region_ttl = 1; min_dwell = 0.5; clear_hold = 1.5; check_period = 0.1 };
      boosters =
        [ Orchestrator.Lfa
            { sites = Orchestrator.pervasive topo; protect = victim :: (decoys_a @ decoys_b);
              handoff = None } ];
      attacks =
        [ Fluid_crossfire
            { bots; decoy_groups = [ decoys_a; decoys_b ]; rate_bps_per_flow = attack_bps_per_flow;
              packet_size; start = attack_start; stop = attack_stop; roll_schedule = [ roll_at ];
              recon = packet_recon } ];
      duration; sample_period = Some goodput_period; hook = ignore }
  in
  (* the net takes [obs] as its trace where it is created *)
  let r = Ff_obs.Trace.with_ambient obs (fun () -> run spec) in
  let hybrid = Option.get r.hybrid in
  let fluid = Hybrid.fluid hybrid in
  let fr_packet_tx = Net.total_tx_packets r.net in
  let fr_fluid_hop_bytes = Fluid.hop_bytes fluid in
  {
    fr_flows = flows;
    fr_classes = Fluid.classes fluid;
    fr_duration = duration;
    fr_packet_tx;
    fr_fluid_hop_bytes;
    fr_packet_equivalents =
      (fr_fluid_hop_bytes /. float_of_int packet_size) +. float_of_int fr_packet_tx;
    fr_delivered_bytes = population_bytes r.hybrid r.population;
    fr_demoted_peak = Hybrid.demoted_peak hybrid;
    fr_demoted_frac_peak =
      (if flows = 0 then 0.
       else float_of_int (Hybrid.demoted_peak hybrid) /. float_of_int flows);
    fr_demotions = Hybrid.demotions hybrid;
    fr_promotions = Hybrid.promotions hybrid;
    fr_mode_changes = Ff_modes.Protocol.transitions (Option.get r.deployment).protocol;
    fr_rolls = List.length (List.concat_map Ff_attacks.Lfa.Fluid_volume.rolls r.fluid_floods);
    fr_rate_events = Fluid.rate_events fluid;
    fr_solver = Fluid.solver_stats fluid;
    fr_touched_frac = Fluid.touched_frac fluid;
    fr_demote_denied = Hybrid.demote_denied hybrid;
    fr_goodput = r.goodput;
    fr_drops = Net.drops_by_reason r.net;
  }
