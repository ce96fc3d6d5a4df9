(** Structured event trace: an append-only, bounded in-memory log of typed
    {!Event.t} values stamped with simulation time, with JSONL and CSV
    dumpers. One trace normally spans one experiment. *)

type entry = { seq : int; time : float; event : Event.t }

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds the number of buffered entries (default 2^20); past
    it new entries are counted (see {!count}, {!count_kind}) but not kept
    — long simulations cannot exhaust memory through the trace. *)

val emit : t -> time:float -> Event.t -> unit
(** Stamped entry times are monotone even when one trace spans several
    simulation runs: if [time] regresses (a fresh engine started at t=0),
    later entries are offset to continue from the last stamped time. *)

val on_event : t -> (entry -> unit) -> unit
(** Register a live sink called on every emit (even past capacity). *)

val length : t -> int
(** Entries currently buffered. *)

val count : t -> int
(** Total events emitted, including ones dropped past capacity. *)

val count_kind : t -> string -> int
(** Total events of one {!Event.kind} emitted (drop-proof). *)

val dropped : t -> int
val events : t -> entry list
val iter : t -> (entry -> unit) -> unit

val entry_to_json : entry -> string
(** One JSON object: [{"seq": .., "time": .., "event": "..", ...payload}]. *)

val write : t -> string -> unit
(** Write every buffered entry to a file: CSV ([seq,time,event,node,detail])
    when the name ends in [.csv], else JSONL, one {!entry_to_json} per line. *)

(** {2 Ambient trace}

    The {e domain-local} default. [Ff_netsim.Net.create] attaches it to
    new networks, so harnesses can trace scenarios that build their
    networks internally. Each domain has its own slot (a trace buffer is
    not thread-safe); worker domains start unset and must call
    [set_ambient] themselves if they want per-domain tracing. *)

val set_ambient : t option -> unit
val ambient : unit -> t option

val with_ambient : t option -> (unit -> 'a) -> 'a
(** Run [f] with the ambient trace set ([None]: no trace), restoring the
    previous one after. *)
