(** The reference semantics the optimized stack must preserve.

    Everything in this library is deliberately naive: sorted lists instead
    of heaps, association lists instead of dense arrays, repeated
    edge-list relaxation instead of a breadth-first search, a declarative
    fold instead of a probe flood. Each structure is small enough to audit by eye —
    that is the point. The differential harness
    ([test/test_differential.ml]) drives the real [Engine]/[Net]/
    [Protocol] stack and these oracles over the same random inputs and
    demands identical answers, so every future fast-path optimization is
    checked against an implementation that is obviously correct rather
    than merely previously correct. *)

(** A pure event queue ordered by [(time, seq)]: the specification of the
    engine's two typed lanes merged through their shared sequence
    counter. Same-instant events pop in push order (FIFO), exactly the
    guarantee [Engine.run] provides across both lanes. *)
module Queue : sig
  type 'a t

  val empty : 'a t

  val push : 'a t -> at:float -> 'a -> 'a t
  (** Enqueue with the next sequence number. *)

  val pop : 'a t -> ((float * int * 'a) * 'a t) option
  (** The globally least [(time, seq)] event, or [None] when empty. *)

  val is_empty : 'a t -> bool
  val length : 'a t -> int
end

(** Pure shortest-path routing computed by repeated relaxation over the
    raw edge list — no visited sets, no priority queues, no adjacency
    indexing. Hosts never transit (they can only be endpoints), matching
    both [Topology.shortest_path] and [Net.live_shortest_path]. *)
module Routing : sig
  val shortest_path :
    ?live_link:(int -> int -> bool) ->
    ?live_node:(int -> bool) ->
    Ff_topology.Topology.t ->
    src:int ->
    dst:int ->
    int list option
  (** Hop-shortest path over the live subgraph, endpoints included.
    [None] when either endpoint is dead or unreachable. Tie-breaking is
    unspecified — compare lengths, not node sequences. *)

  val switch_distance : Ff_topology.Topology.t -> from_:int -> to_:int -> int option
  (** Hop distance over the switch-only subgraph — the graph a mode-probe
      flood travels, since switches flood to switch neighbors only. *)

  val region : Ff_topology.Topology.t -> origin:int -> ttl:int -> int list
  (** Switches within [ttl] switch-graph hops of [origin] (inclusive,
      origin included): exactly the set a [ttl]-budgeted flood reaches. *)
end

(** The specification of the cuckoo filter ([Ff_dataplane.Cuckoo]): a
    plain multiset of keys. Exact where the filter is exact — an inserted
    key is a member until deleted, deletion removes exactly one copy —
    and silent about false positives, which the differential suite bounds
    against the filter's analytic rate instead. *)
module Cuckoo_ref : sig
  type t

  val create : unit -> t
  val insert : t -> int -> unit
  val member : t -> int -> bool

  val delete : t -> int -> bool
  (** Remove one copy; [false] when the key is absent. *)

  val count : t -> int -> int
  (** Copies of this key currently held. *)

  val keys : t -> int list
  (** Distinct members, unspecified order. *)
end

(** The declarative specification of [Modes.Protocol]: a fold over the
    command history instead of a distributed flood. Once the network has
    carried every probe (no loss, commands spaced beyond the dwell), the
    real protocol must agree with this fold exactly — per-switch epoch,
    activation flag, and the global epoch counter. *)
module Modes : sig
  type 'attack cmd = {
    c_origin : int;  (** switch the detector fired at *)
    c_attack : 'attack;
    c_activate : bool;  (** [true] = raise_alarm, [false] = clear_alarm *)
  }

  type 'attack verdict = {
    v_attack : 'attack;
    v_epochs : int;  (** epochs the protocol must have issued *)
    v_states : (int * (int * bool)) list;
        (** per switch: (latest known epoch, attack active), every switch
            listed *)
  }

  val predict :
    switches:int list ->
    dist:(origin:int -> sw:int -> int option) ->
    region_ttl:int ->
    'attack cmd list ->
    'attack verdict list
  (** Fold the commands in order. A raise at an already-active origin is
      a no-op (no epoch issued); every other command issues the next
      epoch for its attack and rewrites [(epoch, activate)] on every
      switch within [region_ttl] hops of the origin. Attacks are compared
      with structural equality; verdicts appear in first-command order. *)
end
