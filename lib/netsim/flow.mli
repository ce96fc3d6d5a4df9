(** End-host transport agents.

    [Tcp] is a loss-responsive AIMD transport (slow start, additive
    increase, multiplicative decrease on retransmission timeout) — enough
    congestion-control realism for throughput dynamics under attack, which
    is what paper Figure 3 measures. [Cbr] is an open-loop constant-bit-rate
    sender with optional on/off pulsing. [Traceroute] is the reconnaissance
    agent attackers use to map paths (and the obfuscation booster deceives). *)

val fresh_flow_id : Net.t -> int
(** Allocate a flow id unique within the given net (see
    {!Net.fresh_flow_id} — per-net so identically-seeded runs replay
    bit-for-bit regardless of what ran earlier in the process). *)

module Tcp : sig
  type t

  val start :
    Net.t ->
    src:int ->
    dst:int ->
    ?at:float ->
    ?stop:float ->
    ?packet_size:int ->
    ?max_cwnd:float ->
    unit ->
    t
  (** Begin an infinite (or [stop]-bounded) transfer at time [at]
      (default: now), from a congestion window of 2 packets. [max_cwnd]
      (default 64) caps the
      congestion window — the attacker uses a small cap to produce
      persistent, low-rate, legitimate-looking flows (Crossfire). *)

  val flow_id : t -> int

  val goodput : t -> now:float -> float
  (** Receiver-side goodput over the last measurement window, bytes/s. *)

  val delivered_bytes : t -> float
  val sent_packets : t -> int
  val retransmissions : t -> int
  val cwnd : t -> float
  val srtt : t -> float
  (** Smoothed RTT estimate, seconds (0. before the first sample). *)

  val pause : t -> unit
  (** Stop sending (outstanding timers become no-ops). *)

  val resume : t -> now:float -> unit
end

module Listener : sig
  (** Server-side TCP accept state — the resource a SYN flood exhausts.
      Installed as the host's fallback receiver: SYN/handshake/data
      packets of flows without a dedicated receiver land here. Each SYN
      occupies one half-open backlog slot until the handshake ack arrives
      or [syn_timeout] expires; SYNs past the (capped) backlog are
      dropped with reason ["backlog-full"]. *)
  type t

  val install : Net.t -> host:int -> backlog:int -> syn_timeout:float -> unit -> t

  val established : t -> int
  (** Connections that completed the three-way handshake. *)

  val half_open_count : t -> int

  val occupancy : t -> float
  (** [half_open_count / backlog], in [0,1]. *)

  val peak_occupancy : t -> float
  (** High-water backlog occupancy over the listener's lifetime. *)

  val backlog_drops : t -> int
  (** SYNs refused because the backlog was full. *)

  val timeouts : t -> int
  (** Half-open entries that expired unacked (each freed its slot). *)

  val set_trust_validated : t -> bool -> unit
  (** The server-side split-proxy agent: when [true], a handshake ack
      carrying a non-zero cookie but no half-open entry establishes
      directly — the edge switch already validated the peer, the server
      never saw its SYN. *)
end

module Handshake : sig
  (** A legitimate client opening short connections in a loop: SYN →
      SYN-ACK (with retries) → handshake ack echoing the cookie → a small
      data burst → FIN, then the next connection after [conn_interval].
      Completed handshakes are the goodput unit of the SYN-flood
      scenario. *)
  type t

  val start :
    Net.t ->
    src:int ->
    dst:int ->
    ?at:float ->
    conn_interval:float ->
    unit ->
    t
  (** Start connecting at [at] (default: now), [conn_interval] seconds
      between one connection's end and the next. A SYN is retried twice,
      1 s apart, before the connection counts as failed; an established
      connection sends 4 data packets of 1000 B. *)

  val attempts : t -> int
  val completed : t -> int
  val failed : t -> int

  val completed_bytes : t -> float
  (** Cumulative completed handshakes expressed as bytes (one handshake
      counts its data burst) — feed to {!Monitor.counter_probe}. *)
end

module Cbr : sig
  type t

  val start :
    Net.t ->
    src:int ->
    dst:int ->
    rate_pps:float ->
    ?at:float ->
    ?stop:float ->
    ?packet_size:int ->
    ?pulse_period:float ->
    ?pulse_duty:float ->
    ?ttl:int ->
    ?via:int ->
    unit ->
    t
  (** [pulse_period]/[pulse_duty] make the sender burst for
      [duty * period] out of every [period] seconds (pulsing attacks).
      [ttl] overrides the initial TTL and [via] the emitting host — the
      combination a spoofing attacker uses (claimed [src], real [via]). *)

  val flow_id : t -> int
  val delivered_bytes : t -> float
  val sent_packets : t -> int
  val stop_now : t -> unit
end

module Traceroute : sig
  val run :
    Net.t ->
    src:int ->
    dst:int ->
    on_done:((int * int) list -> unit) ->
    unit
  (** Probe with TTL 1..16, 3 attempts per hop (congested queues drop
      probes, so single-shot probing goes blind beyond a flooded link);
      after 1 s call [on_done] with the [(hop, responder)] pairs collected,
      sorted by hop. The responder ids are whatever the network answered —
      obfuscated if NetHide-style defense is active on the path. *)
end
