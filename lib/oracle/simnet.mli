(** A naive reference implementation of [Ff_netsim.Net] + [Engine]: one
    sorted-list event queue, association-list routing tables, and the
    same link/forwarding semantics written in the most literal way
    possible.

    The float arithmetic of the link model (backlog, serialization start,
    arrival instant) is written with the {e same operations in the same
    order} as [Net.transmit], and every event acquires its [(time, seq)]
    key at the same point in execution — so a scenario driven identically
    through both stacks must produce {e bit-identical} delivery
    timestamps, drop reasons, and per-link transmit counts. Any
    divergence, down to one ULP or one reordered tie, is a bug in one of
    the two. *)

type t

val create : Ff_topology.Topology.t -> t
(** Mirrors [Net.create]: every link direction gets a drop-tail queue of
    [Ff_netsim.Net.queue_limit_bytes] and every switch starts with a direct route to
    each attached host. *)

(** {1 Routing} *)

val set_backup_route : t -> sw:int -> dst:int -> next_hop:int -> unit
val set_pair_route : t -> sw:int -> src:int -> dst:int -> next_hop:int -> unit

val install_path : t -> dst:int -> int list -> unit
(** Set the route toward [dst] on every switch along the path. *)

(** {1 Failure model} *)

val set_link_up : t -> a:int -> b:int -> bool -> unit
val set_switch_up : t -> sw:int -> bool -> unit

(** {1 Traffic and execution} *)

val schedule : t -> at:float -> (unit -> unit) -> unit
(** Thunk event, ordered by [(time, seq)] against packet arrivals. *)

val send_from_host : t -> src:int -> dst:int -> flow:int -> size:int -> ttl:int -> unit
(** Transmit a data packet on [src]'s access link, now. *)

val run : t -> until:float -> unit
(** Pop events in [(time, seq)] order until the queue drains or the clock
    passes [until]; afterwards [now t = until]. *)

(** {1 Observation} *)

val deliveries : t -> flow:int -> float list
(** Host arrival times for the flow, oldest first. *)

val drops_by_reason : t -> (string * int) list
val link_tx : t -> from_:int -> to_:int -> int
