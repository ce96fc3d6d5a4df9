(** Single-producer/single-consumer mailbox for cross-shard packet
    arrivals — one per ordered shard pair.

    The producing shard's net pushes boundary-crossing transmissions here
    ({!Net.set_shard_hook}); the owning shard drains between windows into
    its own engine. Pushes and drains are allocation-free while the ring
    has room; a full ring spills to a list (counted, FIFO-restored at
    drain) rather than blocking the producer mid-window. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 4096) must be a power of two; it bounds the
    allocation-free burst per window, not correctness. *)

val push : t -> at:float -> to_node:int -> from_node:int -> Ff_dataplane.Packet.t -> unit
(** Producer side only — single producer per mailbox. *)

val drain : t -> Engine.t -> int
(** Consumer side: schedule every queued message into the engine with
    {!Engine.schedule_packet}, in push order (ring first, then the spill),
    release the slots, and return the count. Push order is the last key of
    the cross-shard tie rule: the engine's sequence numbers record it (see
    {!Ff_parallel.Psim.drain_inbox}). Must not run concurrently with
    {!push} on the same mailbox; the engine's barrier schedule guarantees
    that. *)

val overflowed : t -> int
(** Messages that missed the ring since creation (delivered anyway, via
    the spill list). A persistently nonzero value means the capacity is
    undersized for the window traffic. *)

val is_empty : t -> bool
