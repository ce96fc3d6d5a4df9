(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic component of the simulator draws from its own [Prng.t]
    so that experiments are reproducible bit-for-bit from a seed, and so
    that adding randomness to one component does not perturb another.

    The state is kept unboxed, so {!int} and {!bool} allocate nothing;
    {!float} and {!int64} allocate only the boxed result they return. *)

type t

val create : seed:int -> t
(** [create ~seed] makes an independent generator. Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)] — exactly, not just
    approximately: biased draws are rejected and retried rather than
    folded in by modulo. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. Requires [bound > 0.]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean; used for Poisson
    inter-arrival times. Requires [mean > 0.]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
