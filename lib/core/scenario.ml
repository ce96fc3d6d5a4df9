module Topology = Ff_topology.Topology
module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow
module Monitor = Ff_netsim.Monitor
module Series = Ff_util.Series

type defense =
  | No_defense
  | Baseline_sdn of { period : float; delay : float }
  | Fastflex of Orchestrator.config

type attack_plan = {
  start : float;
  roll_schedule : float list;
  roll_on_path_change : bool;
  flows_per_bot : int;
  bot_max_cwnd : float;
}

let default_attack =
  {
    start = 10.;
    roll_schedule = [ 45.; 80. ];
    roll_on_path_change = true;
    flows_per_bot = 3;
    bot_max_cwnd = 4.;
  }

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

(* The Figure 2 testbed every case-study driver starts from: default
   shortest-path routes for every host, with the two victim-side decoys
   deliberately spread over the two critical links (decoy1 via m1, decoy2
   via m2) — the path diversity a Crossfire attacker exploits to choose
   its target link — and on top the default mode: the optimal
   configuration from centralized TE for the normal demand. k = 2 keeps
   the default plan on the two shortest (critical-link) paths; the longer
   detour is capacity the defenses tap into under attack. *)
let fig2_testbed ?(bots = 8) ?(normals = 4) () =
  let lm = Topology.Fig2.build ~bots ~normals () in
  let topo = lm.Topology.Fig2.topo in
  let net = Net.create (Engine.create ()) topo in
  Net.install_shortest_paths net;
  (match (lm.Topology.Fig2.decoys, lm.Topology.Fig2.critical) with
  | [ d1; d2 ], [ c1; c2 ] ->
    let mid_of (l : Topology.link) =
      if l.Topology.a = lm.Topology.Fig2.agg then l.Topology.b else l.Topology.a
    in
    let m1 = mid_of c1 and m2 = mid_of c2 in
    Net.set_route net ~sw:lm.Topology.Fig2.agg ~dst:d1 ~next_hop:m1;
    Net.set_route net ~sw:m1 ~dst:d1 ~next_hop:lm.Topology.Fig2.victim_agg;
    Net.set_route net ~sw:lm.Topology.Fig2.agg ~dst:d2 ~next_hop:m2;
    Net.set_route net ~sw:m2 ~dst:d2 ~next_hop:lm.Topology.Fig2.victim_agg
  | _ -> ());
  let matrix = Ff_te.Traffic_matrix.empty () in
  List.iter
    (fun n -> Ff_te.Traffic_matrix.set matrix ~src:n ~dst:lm.Topology.Fig2.victim 2_300_000.)
    lm.Topology.Fig2.normal_sources;
  let default_plan = Ff_te.Solver.solve ~k:2 topo matrix in
  Ff_te.Solver.install net default_plan;
  (lm, net, default_plan)

let window series t0 t1 =
  List.filter_map (fun (t, v) -> if t >= t0 && t <= t1 then Some v else None) (Series.points series)

(* The normalizer: mean goodput over the steady state just before the
   attack (at least 1, so an idle run stays finite). *)
let pre_attack_baseline series ~attack_start =
  let lo = Float.max 2. (attack_start -. 6.) and hi = Float.max 4. (attack_start -. 1.) in
  Float.max 1. (Ff_util.Stats.mean (window series lo hi))

let run_lfa ~defense ?(attack = Some default_attack) ?(duration = 120.)
    ?(sample_period = 0.5) ?(normals = 4) ?(bots = 8) ?on_ready () =
  let lm, net, default_plan = fig2_testbed ~bots ~normals () in
  let engine = Net.engine net in
  (* normal traffic: one long-lived TCP flow per normal host *)
  let normal_flows =
    List.map
      (fun n ->
        Flow.Tcp.start net ~src:n ~dst:lm.Topology.Fig2.victim ~at:0.5 ~max_cwnd:4. ())
      lm.Topology.Fig2.normal_sources
  in
  (* attacker *)
  let attacker =
    Option.map
      (fun plan ->
        let group_of decoy = [ decoy ] in
        Ff_attacks.Lfa.launch net ~bots:lm.Topology.Fig2.bot_sources
          ~decoy_groups:(List.map group_of lm.Topology.Fig2.decoys)
          ~start:plan.start ~flows_per_bot:plan.flows_per_bot
          ~bot_max_cwnd:plan.bot_max_cwnd ~roll_on_path_change:plan.roll_on_path_change
          ~roll_schedule:plan.roll_schedule ())
      attack
  in
  (* defense *)
  let controller = ref None in
  let orchestration = ref None in
  (match defense with
  | No_defense -> ()
  | Baseline_sdn { period; delay } ->
    (* measurement half of the controller loop: telemetry at every switch
       counts each pair at its ingress; attack flows are measured like any
       other traffic — indistinguishability is the baseline's handicap *)
    let telemetry = Ff_te.Estimator.install net ~switches:(Net.switch_ids net) () in
    controller :=
      Some
        (Ff_te.Controller.start net ~period ~delay
           ~estimate:(fun () -> Ff_te.Estimator.matrix telemetry)
           ())
  | Fastflex config ->
    orchestration := Some (Orchestrator.deploy net ~landmarks:lm ~default_plan ~config ()));
  (* measurement *)
  let raw_goodput =
    Monitor.aggregate_goodput net ~flows:normal_flows ~period:sample_period ~name:"goodput" ()
  in
  let attack_goodput =
    Monitor.sample engine ~period:sample_period ~name:"attack-goodput" (fun now ->
        match attacker with
        | Some atk -> Ff_attacks.Lfa.attack_rate atk ~now
        | None -> 0.)
  in
  (match on_ready with
  | Some f -> f net lm normal_flows
  | None -> ());
  Engine.run engine ~until:duration;
  (* without an attack the whole run is the steady state *)
  let attack_start = match attack with Some a -> a.start | None -> duration in
  let baseline_goodput = pre_attack_baseline raw_goodput ~attack_start in
  let normalized = Series.create ~name:"normalized" in
  List.iter
    (fun (t, v) -> Series.add normalized ~time:t (v /. baseline_goodput))
    (Series.points raw_goodput);
  let during_attack =
    List.filter_map
      (fun (t, v) -> if t >= attack_start +. sample_period then Some v else None)
      (Series.points normalized)
  in
  let rolls = match attacker with Some atk -> Ff_attacks.Lfa.rolls atk | None -> [] in
  (* time from each attack event (attack start and each roll) back to 80% *)
  let events = if attack = None then [] else attack_start :: rolls in
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
  {
    normalized;
    raw_goodput;
    attack_goodput;
    baseline_goodput;
    rolls;
    reconfigs =
      (match !controller with Some c -> Ff_te.Controller.reconfig_times c | None -> []);
    mode_log = (match !orchestration with Some o -> Orchestrator.mode_log o | None -> []);
    mean_during_attack =
      (match during_attack with [] -> 1. | vs -> Ff_util.Stats.mean vs);
    min_during_attack =
      (match during_attack with [] -> 1. | vs -> List.fold_left Float.min infinity vs);
    recovery_times;
    drops = Net.drops_by_reason net;
    suspicious_marked =
      (match !orchestration with
      | Some o -> Ff_boosters.Lfa_detector.marks o.Orchestrator.detector
      | None -> 0);
    probes_sent =
      (match !orchestration with
      | Some o -> Ff_boosters.Reroute.probes_sent o.Orchestrator.reroute
      | None -> 0);
  }

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

(* ------------------------------------------------------------------ *)
(* Volumetric scenario                                                 *)
(* ------------------------------------------------------------------ *)

type volumetric_result = {
  vr_normalized_mean : float;
  vr_spoofed_filtered : int;
  vr_offender_drops : int;
  vr_mode_changes : int;
  vr_alarmed : bool;
}

let run_volumetric ~defended ?(duration = 60.) ?(attack_rate_pps = 600.) ?(spoof = true) () =
  let lm, net, _ = fig2_testbed () in
  let normal_flows =
    List.map
      (fun n -> Flow.Tcp.start net ~src:n ~dst:lm.Topology.Fig2.victim ~at:0.5 ~max_cwnd:4. ())
      lm.Topology.Fig2.normal_sources
  in
  let vol =
    if defended then
      Some (Orchestrator.deploy_volumetric net ~sw:lm.Topology.Fig2.agg ())
    else None
  in
  (* spoofed identities: the normal hosts' addresses (whose TTL fingerprints
     the filter learns from their legitimate traffic) *)
  let attack_start = 10. in
  let _atk =
    Ff_attacks.Volumetric.launch net ~bots:lm.Topology.Fig2.bot_sources
      ~victim:lm.Topology.Fig2.victim ~rate_pps_per_bot:attack_rate_pps ~start:attack_start
      ?spoof_as:(if spoof then Some lm.Topology.Fig2.normal_sources else None)
      ()
  in
  let goodput =
    Monitor.aggregate_goodput net ~flows:normal_flows ~period:0.5 ~name:"goodput" ()
  in
  Engine.run (Net.engine net) ~until:duration;
  {
    vr_normalized_mean =
      Ff_util.Stats.mean (window goodput (attack_start +. 2.) duration)
      /. pre_attack_baseline goodput ~attack_start;
    vr_spoofed_filtered =
      (match vol with
      | Some v -> Ff_boosters.Hop_count_filter.filtered v.Orchestrator.v_hcf
      | None -> 0);
    vr_offender_drops =
      (match vol with
      | Some v -> Ff_boosters.Dropper.dropped v.Orchestrator.v_dropper
      | None -> 0);
    vr_mode_changes =
      (match vol with
      | Some v -> List.length (Ff_modes.Protocol.log v.Orchestrator.v_protocol)
      | None -> 0);
    vr_alarmed =
      (match vol with
      | Some v -> Ff_boosters.Heavy_hitter.alarmed v.Orchestrator.v_hh
      | None -> false);
  }

(* ------------------------------------------------------------------ *)
(* SYN-flood scenario                                                  *)
(* ------------------------------------------------------------------ *)

type synflood_result = {
  sf_normalized_mean : float;  (** completed-handshake goodput vs pre-attack *)
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
  let lm, net, _ = fig2_testbed () in
  (* the resource under attack: the victim's accept backlog *)
  let listener =
    Flow.Listener.install net ~host:lm.Topology.Fig2.victim ~backlog ~syn_timeout ()
  in
  (* legitimate clients: short handshake-data-FIN connections in a loop;
     their completion rate is the scenario's goodput *)
  let clients =
    List.map
      (fun n ->
        Flow.Handshake.start net ~src:n ~dst:lm.Topology.Fig2.victim ~at:0.5
          ~conn_interval:0.4 ())
      lm.Topology.Fig2.normal_sources
  in
  let sg =
    if defended then begin
      let config =
        if hardened then
          { Orchestrator.default_config with
            hardening = Some Orchestrator.default_hardening }
        else Orchestrator.default_config
      in
      let sg =
        Orchestrator.deploy_synguard net ~sw:lm.Topology.Fig2.victim_agg
          ~protect:lm.Topology.Fig2.victim ~config ()
      in
      Ff_boosters.Syn_guard.attach_server_agent sg.Orchestrator.sg_guard listener;
      Some sg
    end
    else None
  in
  let attack_start = 10. in
  let atk =
    Ff_attacks.Synflood.launch net ~bots:lm.Topology.Fig2.bot_sources
      ~victim:lm.Topology.Fig2.victim ~syn_rate_pps:attack_rate_pps
      ~start:attack_start ~spoof_as:lm.Topology.Fig2.normal_sources ()
  in
  let goodput =
    Monitor.aggregate_goodput net
      ~probes:
        [ Monitor.counter_probe (fun () ->
              List.fold_left
                (fun acc c -> acc +. Flow.Handshake.completed_bytes c)
                0. clients) ]
      ~period:0.5 ~name:"goodput" ()
  in
  Engine.run (Net.engine net) ~until:duration;
  let baseline = pre_attack_baseline goodput ~attack_start in
  let guard = Option.map (fun s -> s.Orchestrator.sg_guard) sg in
  let sum f = List.fold_left (fun acc c -> acc + f c) 0 clients in
  {
    sf_normalized_mean =
      Ff_util.Stats.mean (window goodput (attack_start +. 2.) duration) /. baseline;
    sf_baseline_goodput = baseline;
    sf_peak_backlog_occupancy = Flow.Listener.peak_occupancy listener;
    sf_backlog_drops = Flow.Listener.backlog_drops listener;
    sf_timeouts = Flow.Listener.timeouts listener;
    sf_established = Flow.Listener.established listener;
    sf_completed = sum Flow.Handshake.completed;
    sf_failed = sum Flow.Handshake.failed;
    sf_cookies_sent =
      (match guard with Some g -> Ff_boosters.Syn_guard.cookies_sent g | None -> 0);
    sf_validated =
      (match guard with Some g -> Ff_boosters.Syn_guard.validated g | None -> 0);
    sf_rejected =
      (match guard with Some g -> Ff_boosters.Syn_guard.rejected g | None -> 0);
    sf_unverified_drops =
      (match guard with Some g -> Ff_boosters.Syn_guard.unverified_drops g | None -> 0);
    sf_tracker_occupancy =
      (match guard with
      | Some g -> Ff_dataplane.Cuckoo.occupancy (Ff_boosters.Syn_guard.tracker g)
      | None -> 0.);
    sf_tracker_failed_inserts =
      (match guard with
      | Some g -> Ff_dataplane.Cuckoo.failed_inserts (Ff_boosters.Syn_guard.tracker g)
      | None -> 0);
    sf_syns_sent = Ff_attacks.Synflood.syns_sent atk;
    sf_mode_changes =
      (match sg with
      | Some s -> List.length (Ff_modes.Protocol.log s.Orchestrator.sg_protocol)
      | None -> 0);
    sf_alarmed =
      (match guard with Some g -> Ff_boosters.Syn_guard.alarmed g | None -> false);
  }

(* shortest-path route trees toward every host, over switches only (hosts
   are reachable but never transited) *)
let install_all_routes net =
  let is_switch =
    let tbl = Hashtbl.create 64 in
    List.iter (fun sw -> Hashtbl.replace tbl sw ()) (Net.switch_ids net);
    fun n -> Hashtbl.mem tbl n
  in
  List.iter
    (fun dst ->
      let visited = Hashtbl.create 64 in
      Hashtbl.replace visited dst ();
      let q = Queue.create () in
      Queue.add dst q;
      while not (Queue.is_empty q) do
        let u = Queue.pop q in
        List.iter
          (fun v ->
            if not (Hashtbl.mem visited v) then begin
              Hashtbl.replace visited v ();
              if is_switch v then begin
                Net.set_route net ~sw:v ~dst ~next_hop:u;
                Queue.add v q
              end
            end)
          (Net.neighbors_of net u)
      done)
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

(* Key-spreading guard for the collision arena: a windowed Bloom of
   (src, flow) plus a per-source distinct-flow counter. A source opening
   more than [max_flows] distinct flows inside one window is flagged and
   its packets marked suspicious — which is why the adaptive attacker
   must *find hash collisions* to hide volume instead of simply spraying
   fresh keys past the HashPipe. *)
let install_fanout_guard net ~sw ~max_flows ~window ~seed ~on_trip ~on_calm =
  let module Bloom = Ff_dataplane.Bloom in
  let bloom = Bloom.create ~seed ~bits:4096 ~hashes:3 () in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let flagged : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  Engine.every (Net.engine net) ~start:window ~period:window (fun () ->
      Bloom.reset bloom;
      Hashtbl.reset counts;
      Hashtbl.reset flagged);
  Net.add_stage net ~sw
    {
      Net.stage_name = "fanout-guard";
      process =
        (fun _ctx pkt ->
          (match pkt.Ff_dataplane.Packet.payload with
          | Ff_dataplane.Packet.Data ->
            let src = pkt.Ff_dataplane.Packet.src in
            let k =
              Ff_dataplane.Hash.mix ~seed ~lane:src pkt.Ff_dataplane.Packet.flow
            in
            if not (Bloom.mem bloom k) then begin
              Bloom.add bloom k;
              let c =
                match Hashtbl.find_opt counts src with Some c -> c + 1 | None -> 1
              in
              Hashtbl.replace counts src c;
              if c > max_flows && not (Hashtbl.mem flagged src) then begin
                Hashtbl.replace flagged src ();
                on_trip src;
                Engine.after (Net.engine net) ~delay:window (fun () -> on_calm src)
              end
            end;
            if Hashtbl.mem flagged src then pkt.Ff_dataplane.Packet.suspicious <- true
          | _ -> ());
          Net.Continue);
    }

let run_adversarial ~strategy ~adversary ?(hardened = false) ?(seed = 1)
    ?(duration = 70.) ?(attack_start = 10.) () =
  let topo = Topology.fat_tree ~k:4 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  install_all_routes net;
  let id n = (Topology.node_by_name topo n).Topology.id in
  let victim = id "h0_0_0" in
  let sink = id "h0_0_1" in
  (* the decoy set a Crossfire hugger floods: the pod-0 public hosts *)
  let decoys = [ id "h0_0_1"; id "h0_1_0"; id "h0_1_1" ] in
  let aggs = [ id "agg0_0"; id "agg0_1" ] in
  let edges = [ id "edge0_0"; id "edge0_1" ] in
  (* the decoy links whose over-utilization is the damage integral *)
  let watched = List.concat_map (fun a -> List.map (fun e -> (a, e)) edges) aggs in
  (* Pin path-diverse routes toward the pod-0 hosts. The default BFS
     trees collapse every pod-0 destination onto a single core->agg
     uplink, which then bottlenecks *upstream* of the watched agg->edge
     links and caps their utilization well below the damage floor.
     Spreading the four destinations across the four cores gives each
     decoy path a dedicated uplink of the same capacity as the watched
     link, so the watched links themselves are the contended resource. *)
  let pin ~dst ~core ~agg ~edge =
    let core_n = id (Printf.sprintf "core%d" core) in
    let agg0 = id (Printf.sprintf "agg0_%d" agg) in
    Net.set_route net ~sw:core_n ~dst ~next_hop:agg0;
    Net.set_route net ~sw:agg0 ~dst ~next_hop:(id (Printf.sprintf "edge0_%d" edge));
    (* upstream in pods 1-3: agg{p}_0 reaches cores 0-1, agg{p}_1 cores 2-3 *)
    let j = core / 2 in
    List.iter
      (fun p ->
        let aggp = id (Printf.sprintf "agg%d_%d" p j) in
        Net.set_route net ~sw:aggp ~dst ~next_hop:core_n;
        List.iter
          (fun e ->
            Net.set_route net ~sw:(id (Printf.sprintf "edge%d_%d" p e)) ~dst ~next_hop:aggp)
          [ 0; 1 ])
      [ 1; 2; 3 ]
  in
  pin ~dst:victim ~core:3 ~agg:1 ~edge:0;
  pin ~dst:(id "h0_0_1") ~core:0 ~agg:0 ~edge:0;
  pin ~dst:(id "h0_1_0") ~core:1 ~agg:0 ~edge:1;
  pin ~dst:(id "h0_1_1") ~core:2 ~agg:1 ~edge:1;
  let bots =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun e -> List.map (fun i -> id (Printf.sprintf "h%d_%d_%d" p e i)) [ 0; 1 ])
          [ 0; 1 ])
      [ 1; 2 ]
  in
  (* light benign background: pod-3 clients of the victim and decoys *)
  let benign_dsts = [| victim; id "h0_1_0"; victim; id "h0_1_1" |] in
  ignore
    (List.mapi
       (fun i e ->
         List.map
           (fun h ->
             let src = id (Printf.sprintf "h3_%d_%d" e h) in
             Flow.Tcp.start net ~src ~dst:benign_dsts.((2 * i) + h) ~at:0.5 ~max_cwnd:2. ())
           [ 0; 1 ])
       [ 0; 1 ]);
  let hardening =
    if hardened then
      Some
        {
          Orchestrator.default_hardening with
          Orchestrator.h_seed =
            Orchestrator.default_hardening.Orchestrator.h_seed lxor (seed * 0x1003F);
        }
    else None
  in
  let config = { Orchestrator.default_config with region_ttl = 2; hardening } in
  (* each stack keeps the dropper posture it was tuned with *)
  let install_dropper =
    let rate_limit, drop_prob =
      match strategy with
      | Adaptive.Threshold_hug -> (150_000., 0.5)
      | Adaptive.Collision_probe | Adaptive.Epoch_time -> (100_000., 0.9)
    in
    fun sw -> Ff_boosters.Dropper.install net ~sw ~rate_limit ~drop_prob ()
  in
  let alarms = ref 0 in
  let alarm_sink =
    let s = Orchestrator.sink net config in
    { s with
      Orchestrator.on_alarm =
        (fun a ->
          incr alarms;
          s.Orchestrator.on_alarm a) }
  in
  let droppers = ref [] in
  let hhs = ref [] in
  (match strategy with
  | Adaptive.Threshold_hug ->
    (* LFA stack at the pod-0 aggregation switches: detection with
       offered-load hysteresis, cross-switch suspicious-source sync,
       illusion-of-success dropping *)
    let detectors =
      List.map
        (fun a ->
          ( a,
            Orchestrator.install_detector net config alarm_sink ~sw:a
              ~watched:(List.map (fun e -> (a, e)) edges) ))
        aggs
    in
    let source_sync = Orchestrator.source_sync net config detectors in
    let classify_key = Ff_boosters.Common.mode_key Ff_boosters.Common.mode_classify in
    List.iter
      (fun sw ->
        Net.add_stage net ~sw
          {
            Net.stage_name = "synced-source-marker";
            process =
              (fun ctx pkt ->
                (match pkt.Ff_dataplane.Packet.payload with
                | Ff_dataplane.Packet.Data ->
                  if
                    (not pkt.Ff_dataplane.Packet.suspicious)
                    && Ff_boosters.Common.mode_on ctx.Net.sw classify_key
                    && Ff_modes.Sync.remote_contribution source_sync ~sw
                         ~key:pkt.Ff_dataplane.Packet.src
                       > 0.
                  then pkt.Ff_dataplane.Packet.suspicious <- true
                | _ -> ());
                Net.Continue);
          })
      aggs;
    droppers := List.map install_dropper aggs
  | Adaptive.Collision_probe ->
    (* volumetric stack, flow-keyed: a deliberately small HashPipe (one
       stage — every slot fight is a clean eviction) that collision
       probing can defeat, plus the fanout guard that closes the
       key-spreading alternative *)
    List.iter
      (fun a ->
        (* the hardened posture also scales the table up (FastFlex's
           elastic-resource model: paying SRAM for resilience): in a
           one-stage pipe every slot fight is a clean eviction, so with
           8 slots even a low-rate cross-collider resets a heavy flow's
           accumulation packet by packet and detection of a blast is a
           coin flip per epoch — and an 8x larger table also scales up
           the attacker's expected collision-search cost by 8x *)
        let hh =
          Orchestrator.install_heavy_hitter net config alarm_sink ~sw:a ~threshold_bps:1_200_000.
            ~stages:1 ~slots:(if hardened then 64 else 8) ()
        in
        hhs := hh :: !hhs;
        let alarm = { Ff_boosters.Lfa_detector.switch = a; attack = Ff_dataplane.Packet.Volumetric } in
        install_fanout_guard net ~sw:a ~max_flows:6 ~window:2.0 ~seed:(0xFA6 lxor seed)
          ~on_trip:(fun _src -> alarm_sink.Orchestrator.on_alarm alarm)
          ~on_calm:(fun _src -> alarm_sink.Orchestrator.on_clear alarm);
        droppers := install_dropper a :: !droppers)
      aggs
  | Adaptive.Epoch_time ->
    (* volumetric stack keyed by *source*: a fixed bot population cannot
       spread past per-sender accounting — only timing around the epoch
       boundaries hides the volume *)
    List.iter
      (fun a ->
        let hh =
          Orchestrator.install_heavy_hitter net config alarm_sink ~sw:a ~threshold_bps:1_200_000.
            ~key_of:(fun pkt -> pkt.Ff_dataplane.Packet.src) ()
        in
        hhs := hh :: !hhs;
        droppers := install_dropper a :: !droppers)
      aggs);
  (* the adversary *)
  let atk_cfg =
    {
      Adaptive.default_config with
      Adaptive.seed = Adaptive.default_config.Adaptive.seed lxor (seed * 65599);
      start = attack_start;
      stop = duration;
    }
  in
  let atk =
    match adversary with
    | Open_loop ->
      (* same arena, no feedback loop: the rolling blast every strategy is
         normalized against *)
      (match strategy with
      | Adaptive.Threshold_hug ->
        let per_flow = 30_000_000. /. float_of_int (List.length bots * List.length decoys) in
        List.iter
          (fun bot ->
            List.iter
              (fun d ->
                ignore
                  (Flow.Cbr.start net ~src:bot ~dst:d ~rate_pps:(per_flow /. 8000.)
                     ~at:attack_start ~stop:duration ()))
              decoys)
          bots
      | Adaptive.Collision_probe | Adaptive.Epoch_time ->
        List.iter
          (fun bot ->
            ignore
              (Flow.Cbr.start net ~src:bot ~dst:sink ~rate_pps:250. ~at:attack_start
                 ~stop:duration ()))
          bots);
      None
    | Closed_loop ->
      Some (Adaptive.launch net ~strategy ~bots ~targets:decoys ~sinks:[ sink ] ~config:atk_cfg ())
  in
  (* work-factor harness: damage sampled over the watched decoy links *)
  let wf = Workfactor.create ~damage_floor:0.7 ~effective_damage:1.0 ~attack_start () in
  let sample_dt = 0.1 in
  let last_probes = ref 0 in
  Engine.every engine ~start:sample_dt ~period:sample_dt (fun () ->
      let now = Net.now net in
      (match atk with
      | Some a ->
        let p = Adaptive.probes_sent a in
        Workfactor.add_probes wf (p - !last_probes);
        last_probes := p
      | None -> ());
      let util =
        List.fold_left
          (fun acc (a, e) -> Float.max acc (Net.utilization net ~from_:a ~to_:e))
          0. watched
      in
      Workfactor.sample wf ~now ~dt:sample_dt ~util);
  Engine.run engine ~until:duration;
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
    ar_alarms = !alarms;
    ar_drops = List.fold_left (fun acc d -> acc + Ff_boosters.Dropper.dropped d) 0 !droppers;
    ar_rotations =
      List.fold_left (fun acc hh -> acc + Ff_boosters.Heavy_hitter.rotations hh) 0 !hhs;
    ar_fingerprint = (match atk with Some a -> Adaptive.fingerprint a | None -> 0);
    ar_summary = (match atk with Some a -> Adaptive.summary a | None -> "open-loop");
    ar_log =
      (match atk with
      | Some a ->
        List.map (fun (at, msg) -> Printf.sprintf "%6.2f %s" at msg) (Adaptive.log a)
      | None -> []);
  }

(* ---- hybrid fluid/packet ISP scenario ---------------------------------- *)

module Hybrid = Ff_fluid.Hybrid
module Fluid = Ff_fluid.Fluid

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

let run_lfa_fluid ?(flows = 100_000) ?(duration = 40.) ?(force = Hybrid.Auto)
    ?(defended = true) ?(seed = 11) ?(flow_rate_bps = 25_000.) ?(packet_size = 1000)
    ?(update_period = 0.25) ?(cores = 12) ?(access_per_core = 2) ?(hosts_per_access = 4)
    ?(attack_start = 10.) ?(attack_stop = 18.) ?(roll_at = 14.)
    ?(attack_bps_per_flow = 60_000_000.) ?(packet_recon = true)
    ?solver ?demote_budget ?(goodput_period = 0.5) ?obs () =
  let topo =
    Topology.isp ~cores ~access_per_core ~hosts_per_access ()
  in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  Net.attach_obs net obs;
  install_all_routes net;
  let hosts = List.map (fun (n : Topology.node) -> n.Topology.id) (Topology.hosts topo) in
  let host_arr = Array.of_list hosts in
  let nh = Array.length host_arr in
  let behind_access a =
    Array.to_list (Array.sub host_arr (a * hosts_per_access) hosts_per_access)
  in
  let victim, decoys_a =
    match behind_access 0 with
    | v :: rest -> (v, rest)
    | [] -> invalid_arg "run_lfa_fluid: empty access"
  in
  let decoys_b =
    if access_per_core >= 2 then behind_access 1 else decoys_a
  in
  (* bots: the first host of up to 8 PoPs spread away from PoP 0 *)
  let bots =
    let pops = List.init (cores - 3) (fun i -> 2 + i) in
    let step = Float.max 1. (float_of_int (List.length pops) /. 8.) in
    List.init (min 8 (List.length pops)) (fun i ->
        let p = List.nth pops (int_of_float (float_of_int i *. step)) in
        host_arr.(p * access_per_core * hosts_per_access))
  in
  let hybrid = Hybrid.create ~force ~update_period ?solver ?demote_budget net () in
  (* benign population: uniform-rate CBR-class flows between random host
     pairs; one rate level keeps the path-class count at O(host pairs) *)
  let rng = Ff_util.Prng.create ~seed in
  let rate_pps = flow_rate_bps /. float_of_int (8 * packet_size) in
  let benign =
    List.init flows (fun _ ->
        let src = host_arr.(Ff_util.Prng.int rng nh) in
        let dst = ref host_arr.(Ff_util.Prng.int rng nh) in
        while !dst = src do dst := host_arr.(Ff_util.Prng.int rng nh) done;
        Hybrid.add_flow hybrid ~src ~dst:!dst
          (Hybrid.Cbr { rate_pps; packet_size }))
  in
  let wide =
    if defended then
      Some
        (Orchestrator.deploy_wide net ~protect:(victim :: (decoys_a @ decoys_b))
           ~config:
             {
               Orchestrator.default_config with
               region_ttl = 1;
               min_dwell = 0.5;
               clear_hold = 1.5;
               check_period = 0.1;
             }
           ~on_mode:(fun ~sw ~attack:_ ~active ->
             if active then Hybrid.mark_hot hybrid ~node:sw
             else Hybrid.clear_hot hybrid ~node:sw)
           ())
    else None
  in
  (* the flood volume rides the fluid tier; the packet-level side of the
     adversary (recon traceroutes + low-rate TCP decoy flows) is optional *)
  let volume =
    Ff_attacks.Lfa.Fluid_volume.launch hybrid ~bots
      ~decoy_groups:[ decoys_a; decoys_b ]
      ~rate_bps_per_flow:attack_bps_per_flow ~packet_size ~start:attack_start
      ~stop:attack_stop ~roll_schedule:[ roll_at ] ()
  in
  let recon =
    if packet_recon then
      Some
        (Ff_attacks.Lfa.launch net ~bots ~decoy_groups:[ decoys_a; decoys_b ]
           ~start:attack_start ~stop:attack_stop ~flows_per_bot:1
           ~roll_on_path_change:false ~roll_schedule:[ roll_at ] ())
    else None
  in
  let benign_delivered () =
    List.fold_left (fun acc m -> acc +. Hybrid.delivered_bytes hybrid m) 0. benign
  in
  let fr_goodput =
    Monitor.aggregate_goodput net
      ~probes:[ Monitor.counter_probe benign_delivered ]
      ~period:goodput_period ~until:duration ~name:"fluid_goodput" ()
  in
  Engine.run engine ~until:duration;
  ignore volume;
  (match recon with Some a -> Ff_attacks.Lfa.stop_now a | None -> ());
  let fluid = Hybrid.fluid hybrid in
  let fr_packet_tx = Net.total_tx_packets net in
  let fr_fluid_hop_bytes = Fluid.hop_bytes fluid in
  {
    fr_flows = flows;
    fr_classes = Fluid.classes fluid;
    fr_duration = duration;
    fr_packet_tx;
    fr_fluid_hop_bytes;
    fr_packet_equivalents =
      (fr_fluid_hop_bytes /. float_of_int packet_size) +. float_of_int fr_packet_tx;
    fr_delivered_bytes = benign_delivered ();
    fr_demoted_peak = Hybrid.demoted_peak hybrid;
    fr_demoted_frac_peak =
      (if flows = 0 then 0.
       else float_of_int (Hybrid.demoted_peak hybrid) /. float_of_int flows);
    fr_demotions = Hybrid.demotions hybrid;
    fr_promotions = Hybrid.promotions hybrid;
    fr_mode_changes =
      (match wide with
      | Some w -> Ff_modes.Protocol.transitions w.Orchestrator.w_protocol
      | None -> 0);
    fr_rolls = List.length (Ff_attacks.Lfa.Fluid_volume.rolls volume);
    fr_rate_events = Fluid.rate_events fluid;
    fr_solver = Fluid.solver_stats fluid;
    fr_touched_frac = Fluid.touched_frac fluid;
    fr_demote_denied = Hybrid.demote_denied hybrid;
    fr_goodput;
    fr_drops = Net.drops_by_reason net;
  }
