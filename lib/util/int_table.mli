(** Open-addressed int -> int hash table: linear probing over flat int
    arrays, Fibonacci-mixed integer hashing.

    The per-packet alternative to [(int * int, int) Hashtbl.t]: no tuple
    key to box per lookup, no polymorphic hash dispatch, no bucket cons
    cells — [get] allocates nothing. Keys must be non-negative (pack a
    pair as [src * n + dst]); values are plain ints and absence is
    reported through the caller's [~default] sentinel. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] is a size hint (rounded up to a power of two, minimum 8);
    the table grows as needed. *)

val length : t -> int
(** Number of live entries. *)

val set : t -> int -> int -> unit
(** Insert or overwrite. Raises [Invalid_argument] on a negative key. *)

val get : t -> int -> default:int -> int
(** Value bound to the key, or [default]. Allocation-free. Negative keys
    (never stored) return [default]. *)

val find_opt : t -> int -> int option
val mem : t -> int -> bool

val remove : t -> int -> unit
(** No-op when the key is absent. *)

val clear : t -> unit
(** Drop every entry, keeping the current capacity. *)

val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a
