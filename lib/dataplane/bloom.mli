(** Bloom filter — shareable membership structure (e.g. suspicious-flow
    sets, seen-flow filters). No false negatives; tunable false positives. *)

type t

val create : ?seed:int -> bits:int -> hashes:int -> unit -> t

val add : t -> int -> unit
val mem : t -> int -> bool
val reset : t -> unit
val count_set_bits : t -> int

val expected_fp_rate : t -> inserted:int -> float
(** Analytic false-positive probability after [inserted] distinct keys. *)
