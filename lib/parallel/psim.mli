(** Sharded conservative parallel simulation (bounded-window PDES).

    The topology is partitioned into mode-change regions
    ({!Ff_modes.Regions}); each shard owns one region and runs its own
    {!Ff_netsim.Engine} over its own full-topology {!Ff_netsim.Net} copy
    (node ids and routing tables stay globally indexed; only owned nodes'
    state is ever exercised). Shards advance in lockstep windows bounded
    by the conservative lookahead — the minimum propagation delay of any
    cross-region link — and exchange boundary-crossing packet arrivals
    through per-shard-pair SPSC mailboxes between windows.

    {b Determinism.} Results are a pure function of (topology, setup,
    shard count): cross-shard arrivals are dispatched under the global
    [(time, source shard, push index)] tie rule (see {!drain_inbox}: no
    sort is needed, the engine's [(time, seq)] order already yields it),
    so repeated runs — and
    the {!Domains} and {!Sequential} modes — produce bit-identical packet,
    drop and event counts. Agreement with a plain single-engine run
    additionally requires the workload not to schedule distinct events at
    exactly equal times on the same state (the differential test
    workloads stagger flow start offsets for this reason). *)

type mode =
  | Domains  (** one OCaml domain per shard (true parallelism) *)
  | Sequential
      (** the identical windowed algorithm, cooperatively on the calling
          domain — the fallback when cores < shards, and the reference the
          differential tests compare [Domains] against *)
  | Auto
      (** [Domains] when [Domain.recommended_domain_count () >= shards],
          else [Sequential] *)

type shard = { id : int; engine : Ff_netsim.Engine.t; net : Ff_netsim.Net.t }

type result = {
  shards : shard array;  (** post-run views, for counter extraction *)
  shard_of : int array;  (** node id -> owning shard *)
  mode_used : mode;  (** [Domains] or [Sequential], never [Auto] *)
  windows : int;  (** synchronization rounds executed *)
  exchanged : int;  (** cross-shard messages delivered *)
  events : int;  (** total engine events across shards *)
  alloc_bytes : float;
      (** bytes allocated during the run, summed over the participating
          domains (per-domain GC counters, measured on each domain) *)
  lookahead : float;  (** the conservative window bound used *)
}

val run :
  ?mode:mode ->
  shards:int ->
  topo:Ff_topology.Topology.t ->
  setup:(Ff_netsim.Net.t array -> unit) ->
  until:float ->
  unit ->
  result
(** Partition, build one engine+net per shard, run [setup] on the calling
    domain (no worker is live yet — install routes on every net, but
    register receivers and start flows only on the net owning the relevant
    host, see {!Ff_netsim.Net.owns}), then simulate to [until] (inclusive,
    matching [Engine.run]). Shard nets are created with ambient
    trace/metrics detached — attach per-shard sinks in [setup] if needed.
    With [shards = 1] this degenerates to a windowless single-engine run.
    An exception in any worker poisons the barrier, unwinds every domain,
    and re-raises on the caller. *)

val drain_inbox : Ff_netsim.Mailbox.t array -> me:int -> Ff_netsim.Engine.t -> int
(** [drain_inbox inbox ~me engine] drains [inbox.(src)] — the mailbox
    from shard [src] to shard [me] — for every [src <> me] in ascending
    order, each in push order, straight into
    {!Ff_netsim.Engine.schedule_packet}, and returns the message count.
    The engine dispatches by [(time, seq)] with [seq] drawn at schedule
    time, so arrivals fire in [(time, source shard, push index)] order:
    the same order a sort of the drained batch by that key would give,
    without building or sorting one. The window loop runs this between
    barriers for every shard. *)

val shard_events : result -> int array
(** Engine events executed per shard, indexed by shard id. *)

val imbalance : result -> float
(** Max over mean of {!shard_events}: 1.0 is an even split, and the
    window loop can go no faster than [shards / imbalance] times one
    shard. A count, not a timing, so it repeats exactly run to run. 1.0
    for a run with no events. *)

val total_tx : result -> int
(** Per-hop transmissions summed across shards; each directed link is
    owned (and counted) by exactly one shard. *)

val drops_by_reason : result -> (string * int) list
(** Merged across shards, sorted by reason. *)

val link_tx_packets : result -> from_:int -> to_:int -> int
(** Reads the counter from the shard owning the sending node. *)
