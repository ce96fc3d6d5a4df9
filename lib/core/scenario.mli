(** Scenarios. {!run} builds every scenario that carries traffic from a
    {!spec}, on the packet tier or, when the spec holds a fluid
    [Population], on the hybrid tier; the case study of paper section 4.3
    (Figure 3) and the other Figure 2 experiments are specs over it. Throughput is reported
    normalized to the no-attack steady state measured in the same run
    before the attack begins, matching the figure's y-axis. *)

type defense =
  | No_defense  (** static default TE only *)
  | Baseline_sdn of { period : float; delay : float }
      (** the state-of-the-art SDN defense: centralized TE re-solving every
          period (Spiffy-like) *)
  | Fastflex of Orchestrator.config
      (** the multimode data plane: the spec's [boosters] *)

type attack_plan = {
  start : float;
  roll_schedule : float list;  (** forced re-targets (the figure's rounds) *)
  flows_per_bot : int;
}
(** A Crossfire ({!Ff_attacks.Lfa.launch}) that also rolls on observed
    path changes. *)

val default_attack : attack_plan
(** Starts at 10 s; forced rolls at 45 s and 80 s (three rounds over
    120 s); 3 flows per bot. *)

(** {1 Runs}

    {!run} builds in one fixed order: testbed and routes (the net takes
    the ambient trace, {!Ff_obs.Trace.ambient}, where it is created), the
    server and the normal traffic, the defense, the attacks, the goodput
    monitor, and last the [hook]; then it runs the clock to [duration]. *)

type testbed = { topo : Ff_topology.Topology.t; routes : Ff_netsim.Net.t -> unit }

type flow =
  | Tcp of { src : int; dst : int; max_cwnd : float }  (** from 0.5 s *)
  | Cbr of { src : int; dst : int; rate_pps : float; packet_size : int }  (** from 0.1 s *)
  | Handshake of { src : int; dst : int }
      (** a connection every 0.4 s from 0.5 s; completed handshakes are goodput *)
  | Population of {
      count : int;
      seed : int;
      rate_bps : float;
      packet_size : int;
      force : Ff_fluid.Hybrid.force;
      demote_budget : int option;
    }
      (** [count] CBR members of [rate_bps] each between host pairs drawn
          from [seed] (source and destination distinct), admitted to a
          hybrid fluid/packet tier ({!Ff_fluid.Hybrid.create} with [force]
          and [demote_budget]) the run creates for them; their delivered
          bytes are goodput. A spec holding a population runs on the
          hybrid tier: the deployment's mode transitions mark switches
          hot, and members whose paths cross a hot switch drop to packet
          fidelity. At most one per spec. *)

type server = { host : int; backlog : int; syn_timeout : float }
(** An accept-backlog listener; a [Syn_guard] attaches its server agent. *)

type attack =
  | Crossfire of { bots : int list; decoy_groups : int list list; plan : attack_plan }
  | Flood of { bots : int list; victim : int; rate_pps : float; start : float; spoof_as : int list }
      (** per-bot CBR; [spoof_as] are claimed sources ([[]] for none) *)
  | Syn_flood of {
      bots : int list;
      victim : int;
      rate_pps : float;
      start : float;
      spoof_as : int list;
    }
  | Pulse of { bots : int list; victim : int; burst_pps : float; duty : float; start : float }
      (** 1 s period *)
  | Adaptive of {
      strategy : Ff_attacks.Adaptive.strategy;
      bots : int list;
      targets : int list;
      sinks : int list;
      seed : int;
      start : float;
      stop : float;
    }
      (** {!Ff_attacks.Adaptive.launch} with [seed], active from [start]
          to [stop]; its tuning constants live in [adaptive.ml] *)
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
      (** A rolling flood whose volume rides the hybrid tier as fluid
          aggregates ({!Ff_attacks.Lfa.Fluid_volume}); with [recon], also
          its packet-level side ({!Ff_attacks.Lfa.launch}: traceroutes and
          one low-rate TCP flow per bot, rolling only on the schedule).
          Needs a [Population]. *)

type spec = {
  testbed : testbed;
  server : server option;
  flows : flow list;  (** normal traffic *)
  defense : defense;
  boosters : Orchestrator.defense list;  (** one {!Orchestrator.deploy} under [Fastflex] *)
  attacks : attack list;
  duration : float;
  sample_period : float option;  (** goodput sampling; [None] for none *)
  hook : report -> unit;  (** observers, route pins, faults *)
}

(** Everything a run built; the series fill as it runs. *)
and report = {
  spec : spec;
  net : Ff_netsim.Net.t;
  tcp : Ff_netsim.Flow.Tcp.t list;
  clients : Ff_netsim.Flow.Handshake.t list;
  listener : Ff_netsim.Flow.Listener.t option;
  deployment : Orchestrator.deployment option;
  controller : Ff_te.Controller.t option;
  crossfires : Ff_attacks.Lfa.t list;
  syn_floods : Ff_attacks.Synflood.t list;
  adaptives : Ff_attacks.Adaptive.t list;
  hybrid : Ff_fluid.Hybrid.t option;  (** with a [Population] *)
  population : (Ff_fluid.Hybrid.member * int) option;
      (** the population's first member and count, when it is not empty *)
  fluid_floods : Ff_attacks.Lfa.Fluid_volume.t list;
  goodput : Ff_util.Series.t;
      (** TCP goodput plus completed handshakes and population bytes, bytes/s *)
}

val run : spec -> report

val baseline : report -> float
(** Mean goodput over the steady state before the earliest attack (the
    end of the run without one), at least 1 B/s. *)

val mean_goodput : report -> from:float -> float
(** Mean goodput from [from] to the end, over {!baseline}. *)

val window : Ff_util.Series.t -> float -> float -> float list
val mode_log : report -> (float * int * Ff_dataplane.Packet.attack_kind * bool) list

(** {2 Figure 2 specs} *)

val fig2_spec :
  defense:defense -> ?duration:float -> Ff_topology.Topology.Fig2.landmarks ->
  boosters:Orchestrator.defense list -> attack list -> spec
(** The Figure 2 testbed — shortest paths, the decoys spread over the two
    critical links, and the TE plan for the normal demand as the default
    mode — with a TCP flow (window cap 4) from each normal host to the
    victim, sampled every 0.5 s. Default: 60 s. *)

val fig2_lfa : Ff_topology.Topology.Fig2.landmarks -> Orchestrator.defense
(** LFA detection at the aggregation switch on the critical links,
    rerouting toward the victim and decoys, and the sketch handoff to the
    victim-side aggregation switch. *)

val lfa_spec :
  defense:defense -> ?attack:attack_plan option -> ?duration:float ->
  Ff_topology.Topology.Fig2.landmarks -> spec
(** Figure 3: {!fig2_spec} under a Crossfire on the decoys, defended by
    {!fig2_lfa}; [~attack:None] calibrates. Defaults: {!default_attack},
    120 s. *)

val volumetric_spec :
  defended:bool -> ?spoof:bool -> ?duration:float -> Ff_topology.Topology.Fig2.landmarks -> spec
(** Bots blast 600 pps each from 10 s (each flow a 4.8 Mb/s heavy hitter,
    38 Mb/s against a 20 Mb/s cut), spoofing the normal hosts' addresses
    when [spoof] (default); a [Volumetric] stack at the aggregation switch.
    60 s. *)

val multi_vector_spec : Ff_topology.Topology.Fig2.landmarks -> spec
(** A Bohatei-style storm, 50 s: a Crossfire from 8 s (roll at 25 s), a
    spoofed flood from a bot behind e2 (from 15 s), and a SYN flood on the
    public server decoy2 from the bots behind e1 (from 20 s). One
    deployment ([region_ttl] 3) runs {!fig2_lfa}, a [Volumetric] stack at
    e2 and a [Syn_guard] at ve2. *)

(** {2 Frozen result records} *)

type result = {
  normalized : Ff_util.Series.t;  (** normal-flow goodput / no-attack baseline *)
  raw_goodput : Ff_util.Series.t;  (** bytes/s *)
  attack_goodput : Ff_util.Series.t;  (** the attacker's flows, bytes/s *)
  baseline_goodput : float;  (** the normalizer, bytes/s *)
  rolls : float list;
  reconfigs : float list;  (** baseline controller installations *)
  mode_log : (float * int * Ff_dataplane.Packet.attack_kind * bool) list;
  mean_during_attack : float;  (** mean normalized goodput while under attack *)
  min_during_attack : float;
  recovery_times : (float * float) list;
      (** (attack event time, seconds until normalized goodput >= 0.8) *)
  drops : (string * int) list;
  suspicious_marked : int;
  probes_sent : int;
}

val run_lfa_spec : spec -> result
(** {!run}, also sampling the Crossfire bots' goodput ahead of the hook
    ([sample_period] must be set). *)

val run_lfa :
  defense:defense ->
  ?attack:attack_plan option ->
  ?duration:float ->
  ?on_ready:
    (Ff_netsim.Net.t -> Ff_topology.Topology.Fig2.landmarks -> Ff_netsim.Flow.Tcp.t list ->
     unit) ->
  unit ->
  result
(** {!run_lfa_spec} of {!lfa_spec} with 4 normal hosts and 8 bots;
    [on_ready] is the hook. *)

val pp_summary : Format.formatter -> result -> unit

type synflood_result = {
  sf_normalized_mean : float;  (** completed-handshake goodput vs pre-attack *)
  sf_baseline_goodput : float;
  sf_peak_backlog_occupancy : float;
      (** high-water accept-backlog occupancy: 1.0 undefended, by design *)
  sf_backlog_drops : int;  (** SYNs the server refused, backlog full *)
  sf_timeouts : int;  (** half-open entries that expired unacked *)
  sf_established : int;
  sf_completed : int;  (** client handshakes that completed *)
  sf_failed : int;  (** client connection attempts that gave up *)
  sf_cookies_sent : int;
  sf_validated : int;
  sf_rejected : int;  (** forged handshake acks dropped at the edge *)
  sf_unverified_drops : int;
  sf_tracker_occupancy : float;  (** cuckoo load at run end, must stay < 0.95 *)
  sf_tracker_failed_inserts : int;
  sf_syns_sent : int;
  sf_mode_changes : int;
  sf_alarmed : bool;
}

val run_synflood :
  defended:bool ->
  ?hardened:bool ->
  ?duration:float ->
  ?attack_rate_pps:float ->
  ?backlog:int ->
  ?syn_timeout:float ->
  unit ->
  synflood_result
(** The SYN-flood scenario: the normal hosts' handshake clients against
    bots opening spoofed connections they never finish, exhausting the
    victim's accept backlog; the defense is a [Syn_guard] (SYN cookies and
    a cuckoo-filter flow tracker, the listener trusting edge-validated
    handshakes) at the victim-side aggregation switch. Defaults: 60 s,
    400 SYNs/s per bot (3200/s against a 64-slot backlog with a 3 s
    half-open timeout — refilling a freed slot five hundred times faster
    than legitimate clients retry). [hardened] adds
    {!Orchestrator.default_hardening} (jittered SYN-rate threshold,
    cookie-secret rotation). *)

(** {1 Closed-loop adversarial arena}

    One fat-tree(4) spec per adaptive strategy ({!Ff_attacks.Adaptive}),
    run by {!run}, defended by the {!Orchestrator.defense} values that
    strategy evades at the two pod-0 aggregation switches: the threshold
    hugger faces an [Lfa] stack watching their edge links (no host to
    protect, so its rerouting and obfuscator stages idle); the collision
    prober a flow-keyed one-stage [Volumetric] pipe (8 slots, 64
    hardened) with the fanout guard; the epoch timer a source-keyed one.
    Damage is the over-utilization of the four pod-0 aggregation-to-edge
    links, integrated by {!Ff_obs.Workfactor} in the spec's hook.
    [hardened] adds {!Orchestrator.default_hardening} seeded from [seed];
    [Open_loop] replaces the [Adaptive] attacker with [Flood]s (one per
    bot and decoy against the hugger, all bots to the sink at 250 pps
    otherwise), the baseline the acceptance ratios are normalized
    against. *)

type adversary = Closed_loop | Open_loop

type adversarial_result = {
  ar_strategy : Ff_attacks.Adaptive.strategy;
  ar_hardened : bool;
  ar_adversary : adversary;
  ar_probes : int;
  ar_damage : float;  (** integral of decoy-link over-utilization, util-s *)
  ar_peak_util : float;
  ar_effective_at : float option;
  ar_time_to_effective : float;  (** censored at the horizon *)
  ar_work_factor : float;
  ar_alarms : int;  (** defense alarm raises ({!Ff_modes.Protocol.raises}) *)
  ar_drops : int;  (** packets policed off *)
  ar_rotations : int;  (** hash-salt rotations performed *)
  ar_fingerprint : int;  (** attacker decision fingerprint (0 open-loop) *)
  ar_summary : string;
  ar_log : string list;  (** attacker decision log, oldest first *)
}

val run_adversarial :
  strategy:Ff_attacks.Adaptive.strategy ->
  adversary:adversary ->
  ?hardened:bool ->
  ?seed:int ->
  ?duration:float ->
  unit ->
  adversarial_result
(** The attack starts at t=10. Defaults: unhardened, seed 1, 70 s. The
    same seed replays the identical run (attacker and defense draws are
    both derived from it). *)

(** {1 Hybrid fluid/packet ISP scenario}

    The scale tier: 10^5+ benign flows on an ISP-like topology
    ({!Ff_topology.Topology.isp}) under a rolling flood whose volume is
    fluid; flows near the defense's mode changes drop to packet fidelity
    and promote back once the region clears. *)

type fluid_result = {
  fr_flows : int;  (** benign hybrid members admitted *)
  fr_classes : int;  (** fluid path classes solved over *)
  fr_duration : float;  (** simulated seconds *)
  fr_packet_tx : int;  (** per-hop packet transmissions (all traffic) *)
  fr_fluid_hop_bytes : float;  (** fluid bytes x links traversed *)
  fr_packet_equivalents : float;
      (** [fluid hop-bytes / packet_size + packet_tx] — total simulated
          forwarding work in packet units *)
  fr_delivered_bytes : float;  (** benign bytes delivered (fluid + packet) *)
  fr_demoted_peak : int;
  fr_demoted_frac_peak : float;
  fr_demotions : int;
  fr_promotions : int;
  fr_mode_changes : int;
  fr_rolls : int;
  fr_rate_events : int;  (** fluid solver invocations *)
  fr_solver : Ff_fluid.Fluid.solver_stats;
      (** incremental-solver telemetry: full-solve fallbacks, classes
          touched per re-solve, loss-coupled AIMD cuts *)
  fr_touched_frac : float;
      (** fraction of active classes the solver actually re-assigned *)
  fr_demote_denied : int;  (** demotions suppressed by [demote_budget] *)
  fr_goodput : Ff_util.Series.t;  (** benign aggregate goodput, bytes/s *)
  fr_drops : (string * int) list;
}

val install_all_routes : Ff_netsim.Net.t -> unit
(** {!Ff_topology.Topology.route_tree} toward every host, installed as
    the switches' destination routes. *)

val run_lfa_fluid :
  ?flows:int ->
  ?duration:float ->
  ?force:Ff_fluid.Hybrid.force ->
  ?seed:int ->
  ?flow_rate_bps:float ->
  ?cores:int ->
  ?attack_start:float ->
  ?attack_stop:float ->
  ?roll_at:float ->
  ?attack_bps_per_flow:float ->
  ?packet_recon:bool ->
  ?demote_budget:int ->
  ?goodput_period:float ->
  ?obs:Ff_obs.Trace.t ->
  unit ->
  fluid_result
(** {!run} of a spec on the hybrid tier: a [Population] of [flows], the
    wide deployment ({!Orchestrator.pervasive} [Lfa] sites) and a
    [Fluid_crossfire] ([recon] is [packet_recon]), over an ISP topology
    with 2 access switches
    per core and 4 hosts per access switch, 1000-byte packets and the
    incremental solver re-solving every 0.25 s. Defaults: 100k flows at
    25 kb/s each over 12 cores (96 hosts) for 40 s; the flood (8 bots x
    60 Mb/s per decoy aggregate) runs from t=10 to t=18 with one roll
    between decoy groups at t=14.
    [force] selects the engine tier: [Auto] is the hybrid proper,
    [All_packet] reproduces the pure packet engine bit-identically (the
    differential anchor), [All_fluid] never demotes. The net traces into
    [obs] (none when [None], whatever the ambient trace). *)
