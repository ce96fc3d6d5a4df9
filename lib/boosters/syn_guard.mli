(** CuckooGuard-style split-proxy SYN-flood booster.

    The {e data-plane agent} is a stage at the protected server's edge
    switch. While the [syn_guard] mode is active it:

    - absorbs every SYN toward the server and answers with a stateless
      SYN-cookie (a salted hash of the connection key — no per-SYN state,
      so the flood costs the defense nothing);
    - validates returning handshake acks against the cookie (current or
      previous secret, so rotation never invalidates in-flight
      handshakes), dropping forgeries (["bad-cookie"]);
    - admits each validated connection into a cuckoo-filter tracker
      ({!Ff_dataplane.Cuckoo}) and deletes it again on FIN — the explicit
      deletion exact-membership sketches cannot do;
    - drops data of flows the tracker does not know (["unverified-flow"]).

    The {e server-side agent} ({!attach_server_agent}) mirrors the edge
    switch's mode onto the listener's [trust_validated] flag, so a
    validated ack establishes without the server ever holding a half-open
    slot for it.

    Detection is a SYN-rate threshold toward the protected host, observed
    whether or not the mode is active; alarms carry
    [Packet.Synflood] and are wired to the mode protocol by
    [Orchestrator.deploy_synguard]. Hardening knobs mirror the other
    detectors: seeded threshold jitter and periodic cookie-secret
    rotation, both inert at 0. *)

type t

val install :
  Ff_netsim.Net.t ->
  sw:int ->
  protect:int ->
  tracker_capacity:int ->
  syn_threshold_pps:float ->
  clear_hold:float ->
  threshold_jitter:float ->
  rotate_period:float ->
  seed:int ->
  on_alarm:(Lfa_detector.alarm -> unit) ->
  on_clear:(Lfa_detector.alarm -> unit) ->
  t
(** Install the data-plane agent at [sw], protecting host [protect], with
    a tracker of [tracker_capacity] entries. [syn_threshold_pps] is the
    SYN rate that raises the alarm, checked every 0.1 s and cleared after
    [clear_hold] seconds below threshold. [threshold_jitter] > 0 redraws
    the effective threshold each check from
    [(1 - jitter) .. 1] × nominal; [rotate_period] > 0 rotates the cookie
    secret on that period (both bit-inert at 0.). *)

val attach_server_agent : t -> Ff_netsim.Flow.Listener.t -> unit
(** Wire the server-side half: the listener's [trust_validated] flag
    follows the edge switch's [syn_guard] mode. *)

val tracker : t -> Ff_dataplane.Cuckoo.t
(** The verified-flow cuckoo filter (live — also the source of
    exact-member state transfer during repurposing). *)

val alarmed : t -> bool

val cookies_sent : t -> int
val validated : t -> int
val rejected : t -> int

val unverified_drops : t -> int
(** Data/ack packets dropped because their flow was not in the tracker. *)

val insert_failures : t -> int
(** Validated flows the tracker could not admit (table saturated). *)

val deletions : t -> int
(** Tracker entries removed by FIN. *)
