(** Closed-loop adaptive adversaries.

    Unlike the open-loop attack generators in {!Traffic}, these engines
    {e react} to the defense — but only through signals a real botnet
    has: end-to-end loss and retransmissions of its own flows, measured
    at hosts it controls. They never read switch or booster state.
    Three strategies:

    - {b threshold hugger} ([Threshold_hug]): floods the decoy links,
      watches its persistent TCP sensor flows for the retransmission
      burst that means the LFA defense alarmed, then binary-searches
      the aggregate rate down to just under the alarm point and camps
      there — chronic congestion with no (or rare) alarms;
    - {b collision prober} ([Collision_probe]): crafts fresh flow keys
      in interleaved heavy/mouse pairs and trial-floods each pair just
      over the heavy-hitter threshold; a pair whose heavy key survives
      a full trial unpoliced occupies the same HashPipe slot as its
      chaser, so neither residency accumulates — it is promoted to a
      full-rate blast hidden from the sketch;
    - {b epoch timer} ([Epoch_time]): sends calibration bursts and
      records when each one starts being policed; the onsets sit on the
      defense's epoch-tick lattice, so folding them over candidate
      periods recovers cadence and phase. It then pulses its full rate
      across predicted epoch boundaries, splitting the bytes so each
      epoch's per-sender count stays under threshold.

    All decisions fold into a {!fingerprint} via {!Ff_dataplane.Hash},
    and every observation or emission packet increments {!probes_sent}
    — the numerator of the work-factor metric
    ({!Ff_obs.Workfactor}). The scenario harness owns pairing the two.

    The tuning values (decision and pacing cadence, the hugger's ramp
    and back-off, the prober's trial and blast rates, the timer's
    calibration and pulse shape) are documented constants at the top of
    [adaptive.ml]; only the seed and the attack window are arguments.

    Determinism: all randomness comes from [seed]; the same seed and
    network replay the identical run bit-for-bit. *)

type strategy = Threshold_hug | Collision_probe | Epoch_time

val strategy_name : strategy -> string

type t

val launch :
  Ff_netsim.Net.t ->
  strategy:strategy ->
  bots:int list ->
  targets:int list ->
  sinks:int list ->
  seed:int ->
  start:float ->
  stop:float ->
  t
(** Install the attacker on the network: emitters, sensor flows and the
    decision loop are scheduled on the engine; run the engine to run
    the attack. [seed] seeds the attacker's RNG and its fingerprint;
    emitters and the decision loop run from [start] until [stop]. [bots]
    are compromised source hosts; [targets] are the decoy destinations
    the hugger floods (it also aims its TCP sensors there); [sinks] are
    attacker-controlled receiver hosts where the prober and timer
    register delivery counters for their crafted keys (required for those
    strategies). *)

val probes_sent : t -> int
(** Packets spent observing: sensor-flow packets, collision-trial
    packets, calibration bursts. Blast/flood traffic is not a probe. *)

val fingerprint : t -> int
(** Order-sensitive fold of every decision the strategy made (rates
    chosen, trials scored, onsets recorded) plus emitter packet counts.
    Two runs with the same seed must agree bit-for-bit. *)

val summary : t -> string
(** One-line belief-state summary for logs and bench output. *)

val log : t -> (float * string) list
(** Timestamped decision log, oldest first. *)
