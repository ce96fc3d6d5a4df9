(** HashPipe (Sivaraman et al., SOSR '17): heavy-hitter detection entirely
    in the data plane with a pipeline of d hash-indexed key/count tables and
    rolling eviction of the minimum. Used by the volumetric-DDoS booster. *)

type t

val create : stages:int -> slots_per_stage:int -> unit -> t
(** Empty tables under a fixed initial salt; {!reseed} changes it. *)

val reseed : t -> int -> unit
(** Swap the hash salt. Resident (key, count) entries are kept and still
    counted by the scanning readers ({!heavy_hitters}, {!resident_keys}),
    so rotating mid-epoch preserves per-key epoch totals; {!count}'s
    single-slot probe may miss residencies placed under an older salt.
    Rotation is the defense against collision-probing adversaries: a
    (heavy, mouse) key pair that collides under one salt almost surely
    does not under the next. *)

val update : t -> key:int -> weight:float -> unit
(** Insert/update one packet's key following the HashPipe algorithm:
    always-insert in the first stage, carry the evicted (key,count) through
    later stages replacing smaller counts. *)

val count : t -> key:int -> float
(** Tracked count for [key] (0 if not resident). May under-estimate the
    true frequency (eviction), never over-estimates. *)

val heavy_hitters : t -> threshold:float -> (int * float) list
(** Resident keys with count above threshold, sorted by decreasing count. *)

val reset : t -> unit
val resident_keys : t -> int list
