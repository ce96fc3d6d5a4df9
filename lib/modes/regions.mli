(** Mode-change regions as simulation shards.

    The multimode protocol ({!Protocol}) bounds mode changes to a region of
    the topology; the parallel engine ({!Ff_parallel.Psim}) exploits the
    same locality by giving each region its own engine and exchanging only
    the packets that cross a boundary. This module computes the partition
    and the quantity the conservative synchronization window is built from:
    the minimum propagation delay of any cross-region link. *)

val partition : Ff_topology.Topology.t -> shards:int -> int array
(** Deterministic weight-balanced partition of the topology into [shards]
    regions; the result maps node id to region id in [0, shards). A switch
    weighs 1 plus the hosts it serves, since flows start and end at hosts.
    Each region is grown greedily to its share of the remaining weight:
    seeded at the lowest-id unassigned switch with the fewest unassigned
    switch neighbors, then extended by the frontier switch with the most
    links into the region minus links to unassigned switches (lowest id
    on ties). Equal inputs always produce equal partitions (the
    cross-shard event tie rule orders by shard id, which must therefore be
    stable). Every region owns at least one switch; hosts join the region
    of their first neighbor (region 0 when that is not a switch). Raises
    [Invalid_argument] when [shards < 1] or exceeds the switch count. *)

val lookahead : Ff_topology.Topology.t -> shard_of:int array -> float
(** Minimum propagation delay over links whose endpoints fall in different
    regions — the conservative lookahead: a packet crossing a boundary at
    time [t] cannot arrive before [t + lookahead], so every shard may
    safely execute events up to (exclusive) the global minimum next-event
    time plus this bound. [infinity] when nothing crosses (single shard).
    Raises [Invalid_argument] if a cross-region link has zero delay, which
    would make the window empty. *)

val ownership : int array -> shard:int -> Bytes.t
(** Dense ownership vector for one shard, in the form
    {!Ff_netsim.Net.set_shard_hook} expects: byte [i] is ['\001'] iff
    [shard_of.(i) = shard]. *)

val sizes : int array -> shards:int -> int array
(** Nodes per region (hosts included). *)

val cross_links :
  Ff_topology.Topology.t -> shard_of:int array -> Ff_topology.Topology.link list
(** The links crossing region boundaries — one SPSC mailbox per direction
    of each. *)
