(** LFA detection booster (paper section 4.1, "LFA detection").

    Detects (a) high load on its watched links and (b) persistent, low-rate
    flows — the Crossfire signature — by maintaining per-flow state on
    every data packet (Dapper/Blink-style TCP monitoring, simplified).

    When the watched utilization crosses 0.85 the detector raises an
    alarm (wired to the mode protocol by the orchestrator). While the
    alarm is up, the per-packet stage marks packets of flows older than
    [min_age] whose rate is below 1.5 Mb/s as suspicious, provided at
    least 8 live flows converge on the same destination (the Crossfire
    fan-in, which keeps congested-but-legitimate flows out of the
    suspicious set); the mark is what mitigation boosters (reroute,
    dropper) act on downstream.

    Hysteresis is measured on the {e offered} load — bytes whose default
    route crosses a watched link, counted in the detector stage before
    mitigation polices or reroutes them — not on the transmitted
    utilization alone: once the dropper bites, transmitted utilization
    collapses and would clear the alarm while the attacker is still
    blasting, re-alarming the moment mitigation lifts (the oscillation
    the paper warns about, and exactly what a threshold-hugging
    adversary farms). The all-clear additionally requires the aggregate
    rate of currently suspicious flows below 0.1 of the watched
    capacity, offered load below 0.80, and both held for [clear_hold]
    seconds.

    Against adaptive threshold-huggers the effective alarm threshold can
    be randomized: with [threshold_jitter] > 0 it is redrawn uniformly
    from [0.85 - threshold_jitter, 0.85] every 2 s (seeded from [seed],
    deterministic), denying the attacker a stable safe operating point.
    [threshold_jitter] = 0. is bit-identical to the unhardened
    detector. *)

type t

type alarm = { switch : int; attack : Ff_dataplane.Packet.attack_kind }

val install :
  Ff_netsim.Net.t ->
  sw:int ->
  watched:(int * int) list ->
  check_period:float ->
  threshold_jitter:float ->
  seed:int ->
  min_age:float ->
  clear_hold:float ->
  on_alarm:(alarm -> unit) ->
  on_clear:(alarm -> unit) ->
  t
(** [watched] are directed links [(from, to)] whose utilization this
    detector guards (its own egress links toward the critical core),
    checked every [check_period] seconds. *)

val alarmed : t -> bool

val suspicious_flows : t -> int list
val is_suspicious_source : t -> int -> bool
val tracked_flows : t -> int
val marks : t -> int
(** Packets marked suspicious so far. *)
