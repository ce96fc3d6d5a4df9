(** Imperative binary min-heap, the core of the discrete-event engine.

    Elements are ordered by a float priority with an integer tiebreaker so
    that events scheduled at the same instant pop in insertion order
    (deterministic simulation). Every (prio, seq) key on one heap must be
    unique ([push] draws fresh sequences, [push_seq] callers supply
    distinct ones): the pop order among equal keys is unspecified.

    Storage is slot-indexed. The heap order lives in three columns indexed
    by heap position: the unboxed float priorities, the int sequence
    numbers and an int slot id. Each element's value and its two tags sit
    in an arena row named by that slot id, written once by the push and
    cleared once by the pop; free slot ids are kept in the slot column
    past the current size, so the arena needs no free list. [push]
    allocates nothing (beyond doubling the columns when full), and the
    [min_prio]/[pop_min] group lets callers drain the heap without the
    option/tuple boxing of [pop].

    Why a sift must store no pointer: a sift moves one key per tree level.
    A value moved with it would cost a [caml_modify] per level, and since
    the columns live in the major heap, each level would record a young
    value (a fresh packet) in the remembered set for the next minor
    collection to scan and promote. Sifts here move floats and ints only.

    The tag columns carry two unboxed payload ints per element for
    callers that would otherwise have to box a record per push (the
    engine's packet lane stores to/from node ids there). They are
    allocated by the first [push_tagged]; [push] and [push_seq] leave the
    tags at 0. *)

type 'a t

val create : unit -> 'a t

val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> prio:float -> 'a -> unit
(** Insert with priority; ties break by insertion order (an internal
    per-heap sequence counter). *)

val push_seq : 'a t -> prio:float -> seq:int -> 'a -> unit
(** Insert with a caller-supplied tiebreak sequence — for callers that
    interleave several heaps and need one global insertion order across
    them. Does not disturb the internal counter used by [push]; don't mix
    the two on one heap unless the caller's sequences dominate it. *)

val push_tagged : 'a t -> prio:float -> seq:int -> tag1:int -> tag2:int -> 'a -> unit
(** [push_seq] plus two payload ints retrievable via [top_tag1]/[top_tag2]
    while the element is the minimum. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum, or [None] when empty. *)

val min_prio : 'a t -> float
(** Priority of the minimum, without boxing. Raises [Invalid_argument]
    when empty — check {!is_empty} first. *)

val top_before : 'a t -> 'b t -> bool
(** [top_before a b]: does [a]'s minimum order strictly before [b]'s by
    [(prio, seq)]? An empty [b] counts as infinitely late, an empty [a]
    as never first. Allocation-free (unlike comparing two {!min_prio}
    results, which boxes two floats). *)

val top_at_most : 'a t -> float -> bool
(** [top_at_most t x]: is the heap non-empty with minimum priority
    [<= x]? Allocation-free. *)

val top_lt : 'a t -> float -> bool
(** [top_lt t x]: is the heap non-empty with minimum priority strictly
    [< x]? The exclusive bound of a conservative-PDES window. *)

val top_tag1 : 'a t -> int
val top_tag2 : 'a t -> int
(** Tag columns of the minimum. Raise [Invalid_argument] when empty. *)

val pop_min : 'a t -> 'a
(** Remove the minimum and return its value, without boxing. Raises
    [Invalid_argument] when empty. *)

val clear : 'a t -> unit
(** Empty the heap, releasing every stored value for collection (capacity
    is retained). Popping likewise clears the vacated slot — a drained
    heap keeps no element of the run alive. *)
