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

    Determinism: all randomness comes from the seeded config; the same
    seed and network replay the identical run bit-for-bit. *)

type strategy = Threshold_hug | Collision_probe | Epoch_time

val strategy_name : strategy -> string

type config = {
  seed : int;
  observe_period : float;  (** decision-loop cadence, s *)
  tx_period : float;  (** emitter pacing quantum, s *)
  start : float;  (** attack begins *)
  stop : float;  (** attack ends (emitters gate off) *)
  keys_per_emitter : int;  (** hugger fan-out per (bot, target) *)
  hug_start_rate : float;  (** aggregate b/s at ramp start *)
  hug_growth : float;  (** multiplicative ramp per tick *)
  hug_settle : float;  (** back-off dwell after an alarm, s *)
  hug_probe_hold : float;  (** how long a midpoint must stay clean, s *)
  hug_precision : float;  (** stop when hi/lo <= 1 + precision *)
  hug_idle_frac : float;  (** settle-phase rate, fraction of start *)
  cp_trial_rate : float;  (** per-key trial rate, b/s *)
  cp_trials : int;  (** parallel pair trials per round *)
  cp_trial_len : float;  (** trial duration, s (>= 2 HH epochs) *)
  cp_blast_rate : float;  (** promoted-pair rate, b/s *)
  cp_pairs_wanted : int;  (** stop probing once this many blast *)
  cp_loss_found : float;  (** trial loss below this = not policed *)
  cp_loss_dead : float;  (** blast loss above this = caught *)
  et_cal_rate : float;  (** calibration burst rate, b/s *)
  et_cal_len : float;  (** max burst length, s *)
  et_cal_gap : float;  (** gap between bursts, s *)
  et_onsets_needed : int;  (** onsets before period estimation *)
  et_pulse_rate : float;  (** aggregate pulse rate, b/s *)
  et_pulse_duty : float;
      (** pulse width as a fraction of the pulse period (two learned
          epochs — pulsing every epoch would fill every epoch with a full
          duty cycle of bytes regardless of phase) *)
  et_pulse_bots : int;
      (** pulse senders (strided across the botnet so no shared uplink
          dilutes their per-sender rate below the detector's threshold) *)
}

val default_config : config

type t

val launch :
  Ff_netsim.Net.t ->
  strategy:strategy ->
  bots:int list ->
  targets:int list ->
  sinks:int list ->
  config:config ->
  t
(** Install the attacker on the network: emitters, sensor flows and the
    decision loop are scheduled on the engine; run the engine to run
    the attack. [bots] are compromised source hosts; [targets] are the
    decoy destinations the hugger floods (it also aims its TCP sensors
    there); [sinks] are attacker-controlled receiver hosts where the
    prober and timer register delivery counters for their crafted keys
    (required for those strategies). *)

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
