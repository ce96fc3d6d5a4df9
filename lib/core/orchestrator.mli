(** Runtime orchestration of the defenses: wires each detector's alarms
    into the distributed mode-change protocol, which activates the
    mitigation boosters — for the LFA, classification, congestion-aware
    rerouting of suspicious flows, topology obfuscation, and
    illusion-of-success dropping (paper Figure 2 and section 4.2, steps
    (1)-(6)). *)

type hardening = { h_seed : int  (** root of all randomized-defense draws (deterministic) *) }
(** Evasion resistance for every booster family. The profile is fixed:
    the [Lfa_detector] alarm threshold and the [Syn_guard] SYN threshold
    jitter down by up to 0.17 (redrawn every 2 s and every check), the
    [Heavy_hitter] epoch and the source markers' [Modes.Sync]
    advertisement gap by up to 25%, the heavy-hitter threshold by up to
    25%; HashPipe salts and cookie secrets rotate every 0.4 s; and a
    source that sends an offending flow stays marked suspicious for 12 s,
    so repeat offenders cannot launder fresh flow keys past a one-epoch
    detection latency. *)

val default_hardening : hardening
(** The profile the adversarial benchmark runs, seed [0xF1E7]. *)

type config = {
  min_age : float;  (** seconds before a flow can be classified *)
  check_period : float;  (** detector sampling period *)
  clear_hold : float;  (** calm seconds before the all-clear *)
  probe_interval : float;  (** rerouting probe period *)
  region_ttl : int;  (** mode-probe flooding scope *)
  min_dwell : float;  (** minimum mode residence (anti-flap) *)
  drop_rate_limit : float;  (** bits/s allowed per suspicious flow *)
  drop_prob : float;  (** extra illusion-of-success drop probability *)
  hardening : hardening option;
      (** evasion-resistance profile threaded into the detectors, heavy
          hitter and sync; [None] (the default) is bit-identical to the
          pre-hardening stack *)
}
(** The settings runs turn. The LFA detectors alarm above 0.85 offered
    utilization and suspect flows under 1.5 Mb/s converging 8 or more on
    one destination ({!Ff_boosters.Lfa_detector}); the mode protocol
    re-advertises epochs every 0.5 s. *)

val default_config : config

val modes_for : Ff_dataplane.Packet.attack_kind -> string list
(** The attack -> booster-mode mapping the protocol distributes:
    [Volumetric] switches on dropping, hop-count filtering and global rate
    limiting. *)

(** {1 The alarm path}

    {!deploy} is the only creator of a detector protocol: one per
    deployment, behind one alarm sink through which every detector (LFA
    detectors, heavy hitters, fanout guards, SYN guards, network-wide
    heavy hitters) raises and
    clears, so {!Ff_modes.Protocol.raises} counts detector alarms. The
    sink reference-counts raises per attack class and forwards only the
    last clear: a bare [Protocol.clear_alarm] would deactivate the region
    while another detector is still alarmed, and that detector would
    never re-raise. A clear floods only [region_ttl] hops, so the final
    clear also goes out from every switch that raised since the previous
    one whose region the other clears would miss. Hardening is resolved
    once per booster family; [hardening = None] switches it off in
    every family. *)

(** {1 Deploying defenses}

    One {!deploy} installs any mix of defense stacks behind one alarm
    sink, so one mode protocol: the boosters run side by side in one multimode
    data plane, and a mixed-vector attack lights up each stack's modes in
    its own region (paper sections 1 and 3.3). *)

type defense =
  | Lfa of {
      sites : (int * (int * int) list) list;  (** detector switches, each with its watched links *)
      protect : int list;  (** hosts the rerouting probes advertise paths toward *)
      handoff : (int * int) option;
          (** [Some (src, dst)]: [src] sketches per-source suspicious bytes
              and ships the sketch in-band to [dst] 2 s after an alarm
              (paper section 3.4) *)
    }
      (** Link-flooding defense (paper Figure 2): LFA detection at each
          site, whose alarms switch on classification, suspicious-only
          rerouting, topology obfuscation and illusion-of-success
          dropping. With several sites the detectors sync their suspicious
          sources and each site marks them. Stage order at
          a site: detector, source marker, sketch, dropper; then rerouting
          and (ahead of TTL processing) obfuscation on every switch. At
          most one per deployment. *)
  | Volumetric of {
      sw : int;
      threshold_bps : float;  (** 4 Mb/s on Figure 2, 1.2 Mb/s in the arena *)
      by_source : bool;  (** key by source host instead of by flow *)
      pipe : (int * int) option;  (** HashPipe (stages, slots); [None]: 4 x 64 *)
      fanout_guard : bool;
          (** flag sources opening over 6 distinct flows in a 2 s window:
              one [Volumetric] alarm each, their packets marked *)
    }
      (** A HashPipe heavy hitter at [sw] raises [Volumetric] alarms for
          keys above [threshold_bps], which switch on policing of the
          offenders and hop-count filtering of spoofed sources. Stage
          order: heavy hitter, offender marker, fanout guard, dropper,
          hop-count filter. *)
  | Syn_guard of { sw : int; protect : int; tracker_capacity : int; syn_threshold_pps : float }
      (** CuckooGuard-style split proxy ({!Ff_boosters.Syn_guard}) at the
          server [protect]'s edge switch [sw]: [Synflood] alarms switch on
          SYN cookies and cuckoo-filter flow tracking. Attach the server's
          listener with {!Ff_boosters.Syn_guard.attach_server_agent}.
          Hardening jitters the SYN-rate threshold and rotates the cookie
          secret. *)
  | Network_wide_hh of { ingresses : int list }
      (** Network-wide heavy-hitter detection (paper section 3.3): the
          [ingresses] count per-destination bytes and sync their views, and
          each ingress whose view holds a destination above 6 Mb/s
          network-wide raises a [Volumetric] alarm at itself, though no
          single ingress sees a heavy hitter; each clears its own alarm
          once its view falls back under ({!Ff_boosters.Network_wide_hh}).
          Numbered from 1 within the deployment. *)
  | Global_rate_limit of {
      participants : int list;  (** ingress switches that count and police *)
      tenants : (int * int) list;  (** (source host, tenant) *)
      limits : (int * float) list;  (** (tenant, global limit in bits/s) *)
    }
      (** Distributed global rate limiting (paper section 3.3): while its
          switch's [Volumetric] modes are on, a tenant above its limit
          network-wide is policed at every participant
          ({!Ff_boosters.Global_rate_limit}). *)

type deployment = {
  protocol : Ff_modes.Protocol.t;
  detectors : (int * Ff_boosters.Lfa_detector.t) list;
  droppers : (int * Ff_boosters.Dropper.t) list;  (** [Lfa] sites, then [Volumetric] stacks *)
  reroute : Ff_boosters.Reroute.t option;
  obfuscator : Ff_boosters.Obfuscator.t option;
  heavy_hitters : Ff_boosters.Heavy_hitter.t list;
  hop_count_filters : Ff_boosters.Hop_count_filter.t list;
  syn_guards : Ff_boosters.Syn_guard.t list;
  network_hhs : Ff_boosters.Network_wide_hh.t list;
  rate_limits : Ff_boosters.Global_rate_limit.t list;
}
(** What a {!deploy} installed, in defense-list order. *)

val deploy : Ff_netsim.Net.t -> ?config:config -> defense list -> deployment
(** One protocol and alarm sink from [config] (default
    {!default_config}: [region_ttl], [min_dwell], {!modes_for}), then each
    defense in list order; the droppers police at [drop_rate_limit] and
    [drop_prob]. *)

val pervasive : Ff_topology.Topology.t -> (int * (int * int) list) list
(** [Lfa] sites on every switch with switch-to-switch links, watching all
    of them (paper section 3.2: "distribute detection modules as widely
    as possible, ideally on all paths"). *)

(** {1 Single-stack wrappers} *)

type synguard = { sg_protocol : Ff_modes.Protocol.t; sg_guard : Ff_boosters.Syn_guard.t }

val deploy_synguard :
  Ff_netsim.Net.t -> sw:int -> protect:int -> ?config:config -> unit -> synguard
(** One [Syn_guard] stack: a 4096-entry tracker, alarming at 200 SYN/s. *)

type wide = {
  w_protocol : Ff_modes.Protocol.t;
  w_detectors : (int * Ff_boosters.Lfa_detector.t) list;  (** per switch *)
  w_reroute : Ff_boosters.Reroute.t;
  w_obfuscator : Ff_boosters.Obfuscator.t;
  w_droppers : (int * Ff_boosters.Dropper.t) list;
}

val deploy_wide : Ff_netsim.Net.t -> protect:int list -> ?config:config -> unit -> wide
(** One [Lfa] stack on the {!pervasive} sites of any topology, without a
    handoff: an attack's modes stay up until the last alarmed detector
    clears. *)
