(** The paper's case-study experiment (section 4.3, Figure 3): normal flows
    toward a victim, a rolling Crossfire LFA on the two critical links of
    the Figure 2 topology, and one of three defenses:

    - [No_defense]: static default TE only;
    - [Baseline_sdn]: the state-of-the-art SDN defense, centralized TE
      re-solving every period (Spiffy-like);
    - [Fastflex]: the multimode data plane — detection, distributed mode
      change, suspicious-only rerouting, obfuscation, and dropping.

    Throughput is reported normalized to the no-attack steady state
    measured in the same run before the attack begins, matching the
    figure's y-axis. *)

type defense =
  | No_defense
  | Baseline_sdn of { period : float; delay : float }
  | Fastflex of Orchestrator.config

type attack_plan = {
  start : float;
  roll_schedule : float list;  (** forced re-targets (the figure's rounds) *)
  roll_on_path_change : bool;
  flows_per_bot : int;
  bot_max_cwnd : float;
}

val default_attack : attack_plan
(** Starts at 10 s; forced rolls at 45 s and 80 s (three rounds over
    120 s); rolls on observed path changes. *)

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

val run_lfa :
  defense:defense ->
  ?attack:attack_plan option ->
  ?duration:float ->
  ?sample_period:float ->
  ?normals:int ->
  ?bots:int ->
  ?on_ready:
    (Ff_netsim.Net.t -> Ff_topology.Topology.Fig2.landmarks -> Ff_netsim.Flow.Tcp.t list ->
     unit) ->
  unit ->
  result
(** [~attack:None] runs the calibration-only scenario (no attack).
    Defaults: the default attack, 120 s, 0.5 s samples, 4 normal hosts,
    8 bots. [on_ready] runs after setup and before the simulation, with the
    network, the topology landmarks, and the normal flows — the hook tests
    and examples use to attach extra monitors. *)

val pp_summary : Format.formatter -> result -> unit

(** {1 Volumetric scenario}

    A second end-to-end driver: bots blast spoofed-source CBR traffic at
    the victim through the aggregation chokepoint; the defense is
    heavy-hitter detection wired into the mode protocol (dropping +
    hop-count filtering). *)

type volumetric_result = {
  vr_normalized_mean : float;  (** normal goodput under attack / baseline *)
  vr_spoofed_filtered : int;  (** packets the hop-count filter removed *)
  vr_offender_drops : int;  (** packets policed off the offender flows *)
  vr_mode_changes : int;
  vr_alarmed : bool;  (** heavy hitter state at the end of the run *)
}

val run_volumetric :
  defended:bool ->
  ?duration:float ->
  ?attack_rate_pps:float ->
  ?spoof:bool ->
  unit ->
  volumetric_result
(** Defaults: 60 s, 600 pps per bot — each bot flow is individually a
    4.8 Mb/s heavy hitter, 38 Mb/s aggregate against a 20 Mb/s cut —
    spoofing on. *)

(** {1 SYN-flood scenario}

    The split-proxy driver: bots open spoofed connections they never
    finish, exhausting the victim's accept backlog; the defense is the
    CuckooGuard-style booster ({!Ff_boosters.Syn_guard}) — SYN-cookie
    interception at the victim's edge switch plus a cuckoo-filter flow
    tracker, with the server's listener trusting edge-validated
    handshakes. Goodput is the legitimate clients' completed-handshake
    byte rate, normalized against the pre-attack window. *)

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
(** Defaults: 60 s, 400 SYNs/s per bot (3200/s aggregate against a
    64-slot backlog with a 3 s half-open timeout — refills a freed slot
    five hundred times faster than legitimate clients retry), spoofing
    always on. [hardened] threads {!Orchestrator.default_hardening}
    (jittered SYN-rate threshold, cookie-secret rotation) through
    {!Orchestrator.deploy_synguard}. *)

(** {1 Closed-loop adversarial arena}

    One fat-tree(4) arena per adaptive strategy
    ({!Ff_attacks.Adaptive}), each running the defense subset that
    strategy evades: the threshold hugger faces the LFA stack (offered-
    load hysteresis detectors at the pod-0 aggregation switches, cross-
    switch suspicious-source sync, droppers); the collision prober faces
    a flow-keyed HashPipe heavy hitter plus a fanout guard that flags
    key-spreading sources (so collisions are the only way to hide); the
    epoch timer faces a source-keyed heavy hitter (a fixed bot
    population cannot spread past per-sender accounting). Damage is the
    over-utilization of the four pod-0 aggregation-to-edge decoy links,
    integrated by {!Ff_obs.Workfactor}. [hardened] switches on
    {!Orchestrator.default_hardening} (jittered thresholds/epochs, salt
    rotation); [Open_loop] replaces the adaptive attacker with a fixed
    blast in the same arena — the baseline both acceptance ratios are
    normalized against. *)

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
  ar_alarms : int;  (** defense alarm raises *)
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
  ?attack_start:float ->
  unit ->
  adversarial_result
(** Defaults: unhardened, seed 1, 70 s with the attack from t=10. The
    same seed replays the identical run (attacker and defense draws are
    both derived from it). *)

(** {1 Hybrid fluid/packet ISP scenario}

    The scale tier: an ISP-like three-tier topology ({!Ff_topology.Topology.isp})
    carrying 10^5+ concurrent benign flows in the hybrid engine
    ({!Ff_fluid.Hybrid}) while a rolling link-flooding adversary injects
    its volume as fluid aggregates. The wide defense deployment's mode
    protocol drives the hybrid tier's demotion predicate: flows whose
    paths cross a switch with active modes drop to packet fidelity and
    promote back once the region clears. *)

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
(** Shortest-path route trees toward every host (BFS per destination,
    transiting switches only). *)

val run_lfa_fluid :
  ?flows:int ->
  ?duration:float ->
  ?force:Ff_fluid.Hybrid.force ->
  ?defended:bool ->
  ?seed:int ->
  ?flow_rate_bps:float ->
  ?packet_size:int ->
  ?update_period:float ->
  ?cores:int ->
  ?access_per_core:int ->
  ?hosts_per_access:int ->
  ?attack_start:float ->
  ?attack_stop:float ->
  ?roll_at:float ->
  ?attack_bps_per_flow:float ->
  ?packet_recon:bool ->
  ?solver:Ff_fluid.Fluid.solver_mode ->
  ?demote_budget:int ->
  ?goodput_period:float ->
  ?obs:Ff_obs.Trace.t ->
  unit ->
  fluid_result
(** Defaults: 100k flows at 25 kb/s each over the default 96-host ISP
    topology for 40 s; the flood (8 bots x 60 Mb/s per decoy aggregate)
    runs from t=10 to t=18 with one roll between decoy groups at t=14.
    [force] selects the engine tier: [Auto] is the hybrid proper,
    [All_packet] reproduces the pure packet engine bit-identically (the
    differential anchor), [All_fluid] never demotes. *)
