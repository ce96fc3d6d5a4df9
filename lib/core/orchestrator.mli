(** Runtime orchestration of the LFA defense on the paper's case-study
    topology: wires the detector's alarms into the distributed mode-change
    protocol, which activates classification, congestion-aware rerouting of
    suspicious flows, topology obfuscation, and illusion-of-success
    dropping (paper Figure 2 and section 4.2, steps (1)-(6)). *)

type hardening = {
  h_seed : int;  (** root of all randomized-defense draws (deterministic) *)
  h_threshold_jitter : float;
      (** [Lfa_detector]: alarm threshold redrawn uniformly from
          [high_threshold - j, high_threshold] every [h_jitter_period] *)
  h_jitter_period : float;
  h_epoch_jitter : float;
      (** [Heavy_hitter] epoch length and [Modes.Sync] advertisement gap
          jitter fraction *)
  h_hh_threshold_jitter : float;  (** [Heavy_hitter] threshold shrink fraction *)
  h_rotate_period : float;  (** HashPipe hash-salt rotation cadence, seconds *)
  h_src_hold : float;
      (** once a source sends an offending flow, keep marking all its
          packets suspicious for this many seconds — repeat offenders
          cannot launder fresh flow keys past a one-epoch detection
          latency *)
}

val default_hardening : hardening
(** The evasion-resistance profile the adversarial benchmark runs:
    0.17 threshold jitter redrawn every 2 s, 25% epoch/sync jitter, 25%
    heavy-hitter threshold jitter, 0.4 s salt rotation. *)

type config = {
  high_threshold : float;  (** link utilization that raises the LFA alarm *)
  suspicious_rate : float;  (** bits/s under which a persistent flow is suspect *)
  min_age : float;  (** seconds before a flow can be classified *)
  dst_flows_min : int;  (** fan-in on one destination marking Crossfire decoys *)
  check_period : float;  (** detector sampling period *)
  clear_hold : float;  (** calm seconds before the all-clear *)
  probe_interval : float;  (** rerouting probe period *)
  region_ttl : int;  (** mode-probe flooding scope *)
  min_dwell : float;  (** minimum mode residence (anti-flap) *)
  anti_entropy : float;  (** epoch readvert base period; [<= 0.] disables *)
  drop_rate_limit : float;  (** bits/s allowed per suspicious flow *)
  drop_prob : float;  (** extra illusion-of-success drop probability *)
  hardening : hardening option;
      (** evasion-resistance knobs threaded into the detectors, heavy
          hitter and sync; [None] (the default) is bit-identical to the
          pre-hardening stack *)
}

val default_config : config

val modes_for : Ff_dataplane.Packet.attack_kind -> string list
(** The attack -> booster-mode mapping the protocol distributes. *)

(** {1 The alarm path}

    Every detector reaches the mode protocol through a {!sink}: the
    [deploy_*] functions below and the scenario drivers all build one, and
    nothing else creates a protocol for detectors or calls
    {!Ff_modes.Protocol.raise_alarm}/[clear_alarm] on their behalf. *)

type sink = {
  s_protocol : Ff_modes.Protocol.t;
  on_alarm : Ff_boosters.Lfa_detector.alarm -> unit;
  on_clear : Ff_boosters.Lfa_detector.alarm -> unit;
}

val sink : Ff_netsim.Net.t -> config -> sink
(** Creates the mode protocol from [config] ([region_ttl], [min_dwell],
    [anti_entropy], {!modes_for}) and a reference-counted alarm pair for
    it. [on_alarm] counts one raise for the alarm's attack class and
    raises it at the alarm's switch. [on_clear] drops one count and
    forwards the clear only when the count reaches zero, so with several
    detectors sharing an attack class the mode stays up until the last of
    them clears — a bare [Protocol.clear_alarm] would deactivate the whole
    region while another detector is still alarmed, and that detector
    would never re-raise. A clear floods only [region_ttl] hops, so the
    final clear is sent from the clearing switch and also from every
    switch that raised since the last final clear whose [region_ttl]-hop
    region those clears would otherwise miss: every region an alarm
    switched on is switched off. Callers that need an extra action on an alarm
    wrap the closures ([{ sink with on_alarm = ... }]) and still call
    through. *)

val install_detector :
  Ff_netsim.Net.t -> config -> sink -> sw:int -> watched:(int * int) list ->
  Ff_boosters.Lfa_detector.t
(** An LFA detector at [sw] watching the directed [watched] links, with
    its thresholds, timers and (if any) hardening taken from [config] and
    its alarms wired to [sink]. *)

val install_heavy_hitter :
  Ff_netsim.Net.t -> config -> sink -> sw:int -> threshold_bps:float -> ?stages:int ->
  ?slots:int -> ?key_of:(Ff_dataplane.Packet.t -> int) -> unit ->
  Ff_boosters.Heavy_hitter.t
(** A HashPipe heavy hitter at [sw] wired to [sink], hardened from
    [config], followed by its offender-marking stage (so a dropper
    installed afterwards polices the marked flows). [stages], [slots] and
    [key_of] default as in {!Ff_boosters.Heavy_hitter.install}. *)

val source_sync :
  Ff_netsim.Net.t -> config -> (int * Ff_boosters.Lfa_detector.t) list -> Ff_modes.Sync.t
(** View synchronization among the given (switch, detector) pairs: each
    advertises its suspicious sources every [4 * check_period] (jittered
    under hardening), on probe class 9. *)

type t = {
  protocol : Ff_modes.Protocol.t;
  detector : Ff_boosters.Lfa_detector.t;
  reroute : Ff_boosters.Reroute.t;
  obfuscator : Ff_boosters.Obfuscator.t;
  droppers : Ff_boosters.Dropper.t list;
  suspect_sketch : Ff_dataplane.Sketch.t;
      (** per-source suspicious bytes accumulated at the [agg] switch *)
  victim_sketch : Ff_dataplane.Sketch.t;
      (** the victim-side aggregation switch's copy, filled by in-band
          state transfer ~2 s after the first LFA alarm *)
  mutable state_transfer : Ff_scaling.Transfer.t option;
}

val deploy :
  Ff_netsim.Net.t ->
  landmarks:Ff_topology.Topology.Fig2.landmarks ->
  default_plan:Ff_te.Solver.plan ->
  ?config:config ->
  unit ->
  t
(** Installs (in stage order at the aggregation switch): obfuscation (ahead
    of TTL processing), mode protocol, LFA detection, dropping, rerouting.
    The default TE plan doubles as the obfuscator's virtual topology. *)

type volumetric = {
  v_protocol : Ff_modes.Protocol.t;
  v_hh : Ff_boosters.Heavy_hitter.t;
  v_dropper : Ff_boosters.Dropper.t;
  v_hcf : Ff_boosters.Hop_count_filter.t;
}

val deploy_volumetric :
  Ff_netsim.Net.t ->
  sw:int ->
  ?config:config ->
  ?threshold_bps:float ->
  unit ->
  volumetric
(** Volumetric-DDoS protection at one chokepoint switch: HashPipe
    heavy-hitter detection raises [Volumetric] alarms into the mode
    protocol, which activates dropping (offender flows are marked by the
    heavy hitter's marker stage and policed) and hop-count filtering
    (spoofed sources dropped at line rate). Default flow threshold
    4 Mb/s. *)

type synguard = {
  sg_protocol : Ff_modes.Protocol.t;
  sg_guard : Ff_boosters.Syn_guard.t;
}

val deploy_synguard :
  Ff_netsim.Net.t ->
  sw:int ->
  protect:int ->
  ?config:config ->
  ?tracker_capacity:int ->
  ?syn_threshold_pps:float ->
  unit ->
  synguard
(** CuckooGuard-style SYN-flood protection for one server: the split-proxy
    booster ({!Ff_boosters.Syn_guard}) at the server's edge switch [sw]
    raises [Synflood] alarms into the mode protocol, which activates the
    [syn_guard] mode (SYN-cookie interception + cuckoo-filter flow
    tracking). Call {!Ff_boosters.Syn_guard.attach_server_agent} with the
    server's listener to complete the split. Hardening maps
    [h_threshold_jitter] onto the SYN-rate threshold and [h_rotate_period]
    onto cookie-secret rotation. *)

type wide = {
  w_protocol : Ff_modes.Protocol.t;
  w_detectors : (int * Ff_boosters.Lfa_detector.t) list;  (** per switch *)
  w_reroute : Ff_boosters.Reroute.t;
  w_obfuscator : Ff_boosters.Obfuscator.t;
  w_droppers : (int * Ff_boosters.Dropper.t) list;
}

val deploy_wide :
  Ff_netsim.Net.t ->
  protect:int list ->
  ?config:config ->
  ?on_mode:(sw:int -> attack:Ff_dataplane.Packet.attack_kind -> active:bool -> unit) ->
  unit ->
  wide
(** Pervasive deployment on an {e arbitrary} topology (paper section 3.2:
    "distribute detection modules as widely as possible, ideally on all
    paths"): every switch with switch-to-switch egress links gets an LFA
    detector watching them plus a dropper; rerouting probes advertise
    paths toward the [protect]ed hosts (the victim-side prefix);
    obfuscation snapshots the current tables as the virtual topology.
    Alarms from any detector drive one shared mode protocol through one
    {!sink}, so an attack's modes stay up until the last alarmed detector
    clears. [on_mode]
    observes every applied mode transition — the hybrid fluid tier
    registers its demotion predicate here, so flows crossing a
    mode-changing region drop to packet fidelity. *)

val wide_mode_log : wide -> (float * int * Ff_dataplane.Packet.attack_kind * bool) list
val wide_marked : wide -> int
val wide_dropped : wide -> int

val dropped_packets : t -> int
val mode_log : t -> (float * int * Ff_dataplane.Packet.attack_kind * bool) list

val suspect_sketch : t -> Ff_dataplane.Sketch.t
val victim_sketch : t -> Ff_dataplane.Sketch.t

val state_transfer : t -> Ff_scaling.Transfer.t option
(** The agg -> victim-agg sketch handoff, once the alarm has triggered it
    ([None] before then). *)
