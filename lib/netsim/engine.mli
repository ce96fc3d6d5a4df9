(** Discrete-event simulation engine: a monotonic clock and two typed
    event lanes sharing one sequence counter.

    The {e thunk lane} holds arbitrary [unit -> unit] events (timers,
    bursts, protocol steps). The {e packet lane} holds packet arrivals —
    the dominant event class, one per link hop — as unboxed heap columns
    [(time, to_node, from_node, pkt)] dispatched through a single
    registered handler, so scheduling a hop allocates no closure.

    Both lanes draw sequence numbers from one engine-wide counter and
    dispatch always picks the lane whose top has the smaller
    [(time, seq)], so events across the two lanes fire in global
    scheduling order: same-instant events pop FIFO exactly as with a
    single heap, and runs are deterministic.

    The clock is a single-float cell: dispatching an event stores its time
    unboxed and allocates nothing. *)

type t

val create : unit -> t

val now : t -> float
(** Current simulation time in seconds (0. initially). It inlines, so a
    caller that does arithmetic with it reads the clock unboxed. A caller
    that keeps the time in a mixed record, a [ref] or a tuple, or passes
    it to a function that does not inline, boxes it there, once per use:
    keep such a time in a flat float record or a [float array] instead. *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Raises [Invalid_argument] when [at] is in the past. *)

val set_packet_handler :
  t -> (to_node:int -> from_node:int -> Ff_dataplane.Packet.t -> unit) -> unit
(** Register the packet-lane dispatcher. One handler per engine —
    registering again replaces it ([Net.create] owns it; the repo runs
    one net per engine). Until one is registered, dispatching a packet
    event fails. *)

val schedule_packet :
  t -> at:float -> to_node:int -> from_node:int -> Ff_dataplane.Packet.t -> unit
(** Schedule a packet arrival on the packet lane: at time [at] the
    registered handler runs as [h ~to_node ~from_node pkt]. Ordered
    against thunk events by the shared [(time, seq)] key. Allocation-free
    past heap growth. Raises [Invalid_argument] when [at] is in the
    past. *)

val after : t -> delay:float -> (unit -> unit) -> unit

val every : t -> ?start:float -> ?until:float -> period:float -> (unit -> unit) -> unit
(** Recurring event starting at [start] (default one period from now) until
    [until] (default forever) or [cancel_recurring]. *)

val schedule_burst :
  t -> start:float -> period:float -> count:int -> (int -> bool) -> unit
(** Batched emission: call [f k] at [start +. k *. period] for
    [k = 0 .. count - 1], stopping early as soon as [f] returns [false].
    The whole burst shares a single self-rescheduling closure and occupies
    one heap slot at a time, so constant-rate traffic sources pay one
    allocation per burst instead of one per packet. Tick times accumulate
    ([at +. period] each step) exactly like a chain of {!after} calls, so
    replacing a self-scheduling loop with a burst is behavior-preserving.
    Raises [Invalid_argument] when [start] is in the past. *)

val run : t -> until:float -> unit
(** Pop and execute events until both lanes drain or the clock passes
    [until]; afterwards [now t = until]. Events at exactly [until] run
    (inclusive bound). *)

val run_window : t -> horizon:float -> unit
(** Execute every event with time strictly before [horizon], then set
    [now t = horizon]. The bounded-window primitive of the conservative
    parallel engine ({!Ff_parallel.Psim}): the exclusive bound keeps an
    event at exactly the horizon from racing ahead of a same-instant
    cross-shard arrival that has not been exchanged yet. Safe to follow
    with schedules at [>= horizon] — which conservative lookahead
    guarantees for every future cross-shard arrival. *)

val next_time : t -> float
(** Time of the earliest pending event across both lanes, or [infinity]
    when both are empty. The shard's contribution to the global
    lower-bound computation between windows. Allocation: one boxed
    float. *)

val pending : t -> int
(** Events waiting across both lanes. *)

val clear : t -> unit
(** Reset the engine to its freshly-created state: both lanes emptied
    (releasing every pending event for collection), clock back to 0,
    sequence counter back to 0, packet handler deregistered. A cleared
    engine accepts schedules at any non-negative time and never fires a
    handler from a previous run. The executed-step counter ({!steps}) is
    {e not} reset — it is a monotone odometer, not run state. *)

val steps : t -> int
(** Events executed by {e this} engine since creation — monotone across
    {!clear}. Snapshot around a run for per-engine event counts without
    interference from other engines (or other domains). *)

val total_steps : unit -> int
(** Process-wide count of events executed across every engine instance —
    monotone, never reset. Backed by an [Atomic.t] that each engine
    updates at the end of every [run]/[run_window] call (the
    per-event bump is engine-local), so it is exact whenever no engine is
    mid-run and safe to read from any domain. Snapshot it around a run to
    profile events/s (see [Ff_obs.Profile]). *)
