(** In-band switch-to-switch state transfer (paper section 3.4, after
    Swing State, SOSR '17).

    Register state identified as transferable is shipped as state-chunk
    packets over the network itself (no software controller on the path).
    Chunks are FEC-protected ([Fec]); the receiver acknowledges each
    complete group, and the sender retransmits unacked groups. Per-group
    loss beyond what FEC absorbs is repaired by the retransmission layer. *)

type t

val send :
  Ff_netsim.Net.t ->
  src_sw:int ->
  dst_sw:int ->
  entries:(string * float) list ->
  ?fec:bool ->
  ?max_retries:int ->
  ?seed:int ->
  ?on_fail:(string -> unit) ->
  on_complete:((string * float) list -> unit) ->
  unit ->
  t
(** Installs transfer endpoints on every switch (once per net), routes
    chunks over the shortest {e live} path — recomputed on every
    retransmission round, so mid-transfer link failures and healed links
    are picked up — and starts sending. [on_complete] fires at the
    receiver with the reassembled entries. [~fec:false] disables parity
    chunks (the ablation), leaving recovery to retransmission alone.

    Chunks go in groups of 4 data chunks of 8 entries. Transfers are
    numbered per net from 1 (the id rides the chunks as their flow id).
    Retransmissions back off exponentially: round [k] waits
    [80 ms * min 2^k 8] plus jitter seeded from [seed] plus the id, so
    retries don't synchronize with periodic congestion or with each
    other, and a run replays whatever ran earlier in the process. When
    the destination (or source) switch is down or no live path exists, the
    round is not charged against [max_retries]; after three such
    consecutive rounds the transfer fails promptly with a reason
    (["destination-down"], ["source-down"], ["no-path"]) instead of
    burning every retry — [on_fail] fires with it, once, and an
    [Xfer_failed] event is emitted. Default: 10 retries per group. *)

val send_sketch :
  Ff_netsim.Net.t ->
  src_sw:int ->
  dst_sw:int ->
  sketch:Ff_dataplane.Sketch.t ->
  into:Ff_dataplane.Sketch.t ->
  t
(** Ship a snapshot of [sketch] from [src_sw] to [dst_sw] and absorb it
    into [into] on completion. The snapshot's [total] travels with the
    cells, so the receiving sketch's total matches the sender's exactly
    (summing cells would overcount by the row count). Both sketches must
    share geometry for the cell indices to be meaningful. *)

val send_cuckoo :
  Ff_netsim.Net.t ->
  src_sw:int ->
  dst_sw:int ->
  cuckoo:Ff_dataplane.Cuckoo.t ->
  into:Ff_dataplane.Cuckoo.t ->
  seed:int ->
  max_retries:int ->
  on_complete:(unit -> unit) ->
  t
(** Exact-member state transfer: ship a snapshot of the [cuckoo] tracker
    from [src_sw] to [dst_sw] and union-merge it into [into] on
    completion ({!Ff_dataplane.Cuckoo.absorb}). The correctness rule is
    {e no false negatives after migration}: every member of the source at
    snapshot time answers [member = true] at the destination, even when
    the destination's buckets are full (overflow parks in the stash).
    Unlike {!send_sketch}'s component-wise sum, merging the same snapshot
    twice would double the entries — the FEC/ack layer's exactly-once
    group delivery is what makes the union exact. Both filters must share
    geometry and seed. *)

val cuckoo_wire_entries :
  Ff_dataplane.Cuckoo.snapshot -> (string * float) list
(** The lossless wire encoding [send_cuckoo] uses: geometry as ["geom:*"]
    entries, each (bucket, fingerprint) pair packed exactly into one
    float. Exposed for the differential tests. *)

val cuckoo_snapshot_of_entries :
  (string * float) list -> Ff_dataplane.Cuckoo.snapshot
(** Inverse of {!cuckoo_wire_entries} (entry order need not survive the
    chunker). Raises [Invalid_argument] when the geometry entries are
    missing. *)

val chunks_sent : t -> int
val retransmitted_groups : t -> int
val fec_recoveries : t -> int
(** Groups completed with a chunk missing (parity reconstruction). *)

val reroutes : t -> int
(** Times a retransmission round installed a different live path than the
    previous round's. *)

val complete : t -> bool
val failed : t -> bool
(** True when some group exhausted its retries or the path stayed dead
    past the flap-tolerance window. *)

val failure_reason : t -> string option
(** Why a failed transfer failed: ["no-path"], ["destination-down"],
    ["source-down"], or ["retries-exhausted"]. [None] while live or after
    success. *)
