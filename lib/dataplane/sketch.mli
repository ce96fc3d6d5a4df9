(** Count-min sketch — the canonical shareable probabilistic data structure
    of data plane defenses (heavy-hitter detection, DDoS detection). *)

type t

val create : rows:int -> cols:int -> unit -> t
(** [rows] independent hash rows of [cols] counters each. Error bound:
    estimates overshoot true counts by at most [e*N/cols] with probability
    [1 - e^-rows] where [N] is the total added weight. *)

val add : t -> int -> float -> unit
(** [add t key w] adds weight [w] to [key]. *)

val estimate : t -> int -> float
(** Point estimate; never below the true count (no under-estimation). *)

val total : t -> float
(** Total weight added since the last reset. *)

val merge_into : dst:t -> src:t -> unit
(** Component-wise sum; both sketches must share dimensions
    ([Invalid_argument] otherwise; every sketch hashes with one salt).
    This is the operation detector synchronization probes perform for
    network-wide detection. *)

type snapshot = { cells : (int * float) list; total : float }
(** Flat (cell index, value) pairs for non-zero cells plus the source's
    total — the wire format of sync probes and state transfers. The total
    must travel with the cells: it cannot be reconstructed from them
    (each [add] writes [rows] cells but counts once). *)

val serialize : t -> snapshot

val absorb : t -> snapshot -> unit
(** Add a serialized snapshot into this sketch (dimensions must admit the
    indices). A serialize→absorb round trip into an empty sketch of the
    same geometry preserves estimates and [total] exactly. *)
