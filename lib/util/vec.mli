(** Growable int vector. Doubling growth, never shrinks: steady-state
    push/clear cycles allocate nothing, which is what the incremental
    fluid solver's dirty sets and worklists need. *)

type t

val create : unit -> t
val length : t -> int
val clear : t -> unit
(** [clear] resets the length; capacity is retained. *)

val push : t -> int -> unit
val get : t -> int -> int

val filter_pairs_in_place : (int -> int -> bool) -> t -> unit
(** Treat the vector as a flat sequence of [(x, y)] pairs and keep only
    the pairs satisfying the predicate, compacting in place. A trailing
    unpaired element is dropped. *)
