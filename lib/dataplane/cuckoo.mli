(** Cuckoo filter — approximate set membership {e with deletion} (Fan et
    al.), the per-flow tracker of split-proxy SYN defenses. Two candidate
    buckets per key (partial-key cuckoo hashing: the alternate bucket is
    computed from the fingerprint, so relocation never needs the key),
    4 fingerprints per bucket, BFS eviction bounded by 128 bucket
    expansions.

    Failure semantics are exact: {!insert} returning [true] means the key
    is findable until deleted; returning [false] means the table was left
    bit-identical (the eviction path is searched before anything moves).
    That is the contract the oracle-differential suite checks. *)

type t

val create : ?seed:int -> ?fp_bits:int -> capacity:int -> unit -> t
(** A filter sized for at least [capacity] entries (bucket count rounded
    up to a power of two). [fp_bits] (default 12) sets the
    false-positive/memory trade-off. *)

val capacity : t -> int
(** Total fingerprint slots. *)

val insert : t -> int -> bool
(** Add one copy of the key. [false] (and a {!failed_inserts} tick) when no
    eviction chain frees a slot — the filter is unchanged in that case.
    Duplicate inserts occupy additional slots (multiset semantics, capped
    at 8 copies per key, twice the bucket size). *)

val member : t -> int -> bool
(** Never a false negative for an inserted-and-not-deleted key; false
    positives at roughly {!expected_fp_rate}. *)

val delete : t -> int -> bool
(** Remove exactly one copy of the key's fingerprint ([false] when
    absent). Only delete keys that were actually inserted — deleting a
    never-inserted key can, with false-positive probability, remove some
    other key's fingerprint (inherent to cuckoo filters). *)

val size : t -> int
(** Occupied table slots. *)

val occupancy : t -> float
(** [size / capacity], in [0,1]. *)

val occupancy_threshold : float
(** Load factor (0.95) below which inserts are expected to succeed; the
    differential suite asserts inserts never fail under it. *)

val failed_inserts : t -> int

val kicks : t -> int
(** Total fingerprint relocations performed by eviction chains. *)

val stash_size : t -> int
(** Fingerprints parked by {!absorb} because both buckets were full —
    checked by {!member}/{!delete} so migration never loses members. *)

val expected_fp_rate : t -> float
(** Analytic false-positive bound at the current load. *)

val resource : t -> Resource.t
(** Per-entry memory profile: [fp_bits] SRAM bits per slot, two hash
    units, no TCAM — contrast with the per-counter sketches. *)

type snapshot = {
  ck_buckets : int;
  ck_slots : int;
  ck_fp_bits : int;
  ck_seed : int;
  ck_entries : (int * int) list;  (** (bucket, fingerprint) pairs, stash included *)
}
(** The wire format of exact-member state transfer. *)

val serialize : t -> snapshot

val absorb : t -> snapshot -> unit
(** Union-merge a snapshot into this filter: every snapshot fingerprint is
    findable afterwards (unplaceable ones go to the stash) — the
    no-false-negatives-after-migration rule, different from sketch
    merging's component-wise sum. Raises [Invalid_argument] on
    geometry/seed mismatch or out-of-range entries. *)
