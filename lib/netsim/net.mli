(** An instantiated network: the topology's switches and hosts wired to the
    event engine through capacitated, delayed, drop-tail links.

    Switch behaviour is a pipeline of {!type:stage}s (the runtime face of
    PPMs). A stage inspects/mutates the packet and either lets it continue,
    forwards it explicitly, absorbs it (probes), or drops it. When every
    stage says [Continue], the default forwarding stage routes by the
    switch's table (with a backup table for fast reroute, paper section 3.4).

    Routing state is dense: next-hop tables are [int array]s indexed by
    destination node id ([-1] = no entry) and per-pair overrides live in an
    open-addressed {!Ff_util.Int_table} keyed [src * num_nodes + dst], so a
    forwarding decision is array probes — no hashing, no tuple boxing.
    Prefer the [set_route]/[route_lookup]/[route_entries] functions over
    poking the raw fields; the setters keep the invariants (range checks,
    backup entry count). *)

type t

type decision =
  | Continue  (** pass to the next stage *)
  | Forward of int  (** send toward this neighbor node id *)
  | Drop of string  (** drop with a reason (counted) *)
  | Absorb  (** consumed by the stage (e.g. a probe that terminates here) *)

type switch = {
  sw_id : int;
  mutable stages : stage list;
  routes : int array;
      (** next hop indexed by destination node id; [-1] = no entry *)
  backup_routes : int array;  (** fast-reroute fallbacks, same layout *)
  mutable backup_count : int;
      (** live backup entries; maintained by [set_backup_route] *)
  pair_routes : Ff_util.Int_table.t;
      (** [src * num_nodes + dst] -> next hop; consulted before [routes],
          which lets traffic engineering pick per-pair paths *)
  mutable up : bool;  (** false while being repurposed/failed *)
  mutable flags : int;
      (** interned boolean switch state (the mode bits), one bit per
          {!flag_mask} name; test with {!flag_on} *)
  mutable sctx : ctx option;
      (** the switch's reusable pipeline context — internal to
          [handle_at_switch], do not touch *)
}

and ctx = {
  net : t;
  sw : switch;
  mutable in_port : int;
      (** neighbor node the packet came from; -1 if locally injected.
          Mutable because one ctx per switch is reused across packets —
          read it, never write it, and don't retain the ctx beyond the
          stage call. Current time is [now net]. *)
}

and stage = { stage_name : string; process : ctx -> Ff_dataplane.Packet.t -> decision }

type host = {
  host_id : int;
  receivers : (int, Ff_dataplane.Packet.t -> unit) Hashtbl.t;  (** by flow id *)
  mutable fallback_rx : (Ff_dataplane.Packet.t -> unit) option;
}

(** {1 Construction} *)

val queue_limit_bytes : float
(** The drop-tail queue of every link direction, 37500 B (30 ms at
    10 Mb/s); {!Ff_oracle.Simnet} models the same link. *)

val create : Engine.t -> Ff_topology.Topology.t -> t
(** Every link direction gets a drop-tail queue of {!queue_limit_bytes}.
    Switches start with the default
    stage set: a TTL/traceroute stage followed by table routing.

    Registers the net as the engine's packet-lane handler
    ({!Engine.set_packet_handler}) — one net per engine; creating a second
    net on the same engine redirects in-flight packet arrivals to it. *)

val engine : t -> Engine.t
val topology : t -> Ff_topology.Topology.t
val now : t -> float

val forward : t -> int -> decision
(** [forward t next] is [Forward next], preallocated once per node id of
    [t], so a stage that redirects a packet allocates nothing. *)

val fresh_flow_id : t -> int
(** Allocate a flow id unique within this net. Per-net (not process-wide)
    so that a run's flow ids — and every hash keyed on them — do not
    depend on how many flows earlier simulations in the same process
    created; two identically-seeded runs replay bit-for-bit. *)

type ext = ..
(** Per-net state of a subsystem built above the net (one constructor
    each): it dies with the net and stays in the net's domain. *)

val find_ext : t -> (ext -> 'a option) -> 'a option
val add_ext : t -> ext -> unit

val flag_mask : string -> int
(** Intern a boolean switch-var name into a process-wide one-hot bit mask.
    Call once at install time; at most [Sys.int_size - 1] distinct names. *)

val set_flag : switch -> mask:int -> bool -> unit
(** Set/clear an interned flag bit. The bit is the only copy of the state
    it names. *)

val flag_on : switch -> mask:int -> bool
(** One [land]: the per-packet read path for mode gates. *)

val switch : t -> int -> switch
(** Raises [Invalid_argument] if the node is not a switch. *)

val host : t -> int -> host
val switch_ids : t -> int list
val host_ids : t -> int list

(** {1 Stages} *)

val add_stage : ?front:bool -> t -> sw:int -> stage -> unit
(** Append (or prepend with [~front:true]) a stage; replaces any existing
    stage with the same name. *)

val remove_stage : t -> sw:int -> name:string -> unit
val has_stage : t -> sw:int -> name:string -> bool

(** {1 Routing}

    Setters raise [Invalid_argument] when a node id falls outside the
    topology (the dense tables are indexed by node id); lookups treat
    out-of-range ids — spoofed packets carry them — as "no entry". *)

val set_route : t -> sw:int -> dst:int -> next_hop:int -> unit
val set_pair_route : t -> sw:int -> src:int -> dst:int -> next_hop:int -> unit
val set_backup_route : t -> sw:int -> dst:int -> next_hop:int -> unit
val route_lookup : t -> sw:int -> dst:int -> int option
val pair_route_lookup : t -> sw:int -> src:int -> dst:int -> int option

val backup_route_lookup : t -> sw:int -> dst:int -> int option
(** The fast-reroute fallback toward [dst], if installed. *)

val route_entries : t -> sw:int -> (int * int) list
(** Live [(dst, next_hop)] destination-route entries, ascending by
    destination. Host-attachment entries included. *)

val pair_route_entries : t -> sw:int -> ((int * int) * int) list
(** Live [((src, dst), next_hop)] pair-route entries, unspecified order. *)

val clear_routes : t -> sw:int -> unit
(** Drops destination and pair routes, then restores direct host
    attachment entries. *)

val install_path : t -> dst:int -> Ff_topology.Topology.path -> unit
(** Set the route toward [dst] on every switch along the path. *)

val install_shortest_paths : t -> unit
(** Default connectivity: for every ordered host pair, [install_path] the
    topology's shortest path (destination-major order, so where two
    sources' paths disagree on a switch the later source's hop wins).
    One Dijkstra per source host ({!Ff_topology.Topology.shortest_paths_from})
    gives the same tables as a per-pair {!Ff_topology.Topology.shortest_path}. *)

val install_pair_path : t -> src:int -> dst:int -> Ff_topology.Topology.path -> unit
(** Pin the (src,dst) pair to this path (per-pair entries on every switch
    along it). *)

val current_path : t -> src:int -> dst:int -> int list option
(** The path a (src,dst) packet would take through the current tables
    (pair routes first, then destination routes), hosts included. [None]
    on a routing loop or missing entry. Used to snapshot the "virtual
    topology" the obfuscator answers traceroutes with. The list form of
    {!path_into}. *)

val path_buffer : t -> int array
(** A fresh buffer long enough for any {!path_into} walk on this net. *)

val path_into : t -> src:int -> dst:int -> int array -> int
(** [path_into t ~src ~dst buf] writes the nodes of [current_path t ~src
    ~dst] into [buf] from index 0 and returns their count, or returns 0
    where [current_path] gives [None]. Allocation-free, so a caller that
    re-reads many routes reuses one buffer. Raises [Invalid_argument]
    when [buf] is shorter than {!path_buffer}'s or [src] is not a node. *)

(** {1 Traffic} *)

val send_from_host : t -> Ff_dataplane.Packet.t -> unit
(** Transmit from [pkt.src]'s access link. *)

val send_from_host_via : t -> via:int -> Ff_dataplane.Packet.t -> unit
(** Transmit from the access link of host [via], regardless of the
    packet's source field — how a compromised host emits spoofed-source
    traffic. *)

val emit_from_switch : t -> sw:int -> next:int -> Ff_dataplane.Packet.t -> unit
(** Switch-originated packet (probes, replies) sent toward a neighbor. *)

val inject_at_switch : t -> sw:int -> Ff_dataplane.Packet.t -> unit
(** Run a locally created packet through the switch's own pipeline
    (in_port = -1), letting normal forwarding route it. *)

val flood_from_switch : t -> sw:int -> except:int list ->
  (unit -> Ff_dataplane.Packet.t) -> unit
(** Send one fresh packet (from the thunk) to every switch neighbor not in
    [except]. *)

(** {1 Observation} *)

val utilization : t -> from_:int -> to_:int -> float
(** Recent utilization of the directed link, in [0,1]: windowed packet-tier
    transmission rate {e plus} the fluid-tier background load, over
    capacity — detectors see a fluid-tier flood exactly like a packet one. *)

val link_drops : t -> from_:int -> to_:int -> int
val link_tx_packets : t -> from_:int -> to_:int -> int

(** {2 Fluid background load}

    The hybrid fluid tier ({!Ff_fluid.Fluid}) pushes each directed link's
    analytic background load here after every rate recomputation. A
    non-zero load (a) counts toward [utilization], and (b) shrinks the
    capacity the packet tier transmits against (floored at 1% of the raw
    capacity), so packet-tier traffic sharing a link with fluid flows sees
    the queueing delay and drop pressure the fluid load implies. With
    every load at 0 the packet path is bit-identical to the pre-fluid
    engine — the guard branches never execute a float op. *)

val fluid_load : t -> from_:int -> to_:int -> float
(** Current fluid load on the directed link (0. when none or not
    adjacent). *)

val link_delay : t -> from_:int -> to_:int -> float
(** Propagation delay, seconds (0. when not adjacent). *)

(** {2 Dense directed-link indexing}

    Every directed link carries a stable index in [0, n_dirlinks).
    The incremental fluid solver keys its scratch arrays and dirty sets
    on these indices instead of [(from_, to_)] pairs, so per-solve
    hashtable rebuilds disappear. Indices are assigned at [create] and
    never change (links that flap keep their index). *)

val n_dirlinks : t -> int
(** Number of directed links (twice the undirected link count). *)

val link_index : t -> from_:int -> to_:int -> int
(** Dense index of a directed link, or -1 if the nodes are not
    adjacent. O(degree of [from_]). *)

val link_ends_i : t -> int -> int * int
(** [(from_, to_)] endpoints of a directed link by index. *)

val link_capacity_i : t -> int -> float
(** Raw capacity, bits/s, of a directed link by index. *)

val link_packet_bps_i : t -> int -> float
(** Windowed packet-tier transmission rate, bits/s, of a directed link by
    index — what the fluid solver subtracts from capacity so the two
    tiers share bandwidth in both directions. *)

val set_fluid_load_i : t -> int -> float -> unit
(** Set the fluid background load on a directed link by index, bits/s
    (negative is clamped to 0). *)

val set_drop_hook : t -> (int -> unit) option -> unit
(** Install a callback invoked with the directed-link index on every
    queue-overflow drop. The hook must not schedule engine events or
    touch packet state — the fluid tier uses it to mark links dirty so
    the next solver tick applies loss-coupled AIMD cuts. [None]
    uninstalls. *)

val total_tx_packets : t -> int
(** Sum of per-hop transmissions over every directed link: the
    denominator of the packets/s figure the [perf] benchmark reports. *)

val drops_by_reason : t -> (string * int) list
val count_drop : t -> string -> unit
(** Account a drop decided outside a stage (e.g. transport-level). *)

val neighbors_of : t -> int -> int list
(** Switch neighbors of a switch (hosts excluded). *)

val attached_hosts : t -> sw:int -> int list

val access_switch : t -> host:int -> int
(** The switch a host hangs off. *)

(** {1 Failure model} *)

val set_switch_up : t -> sw:int -> bool -> unit
(** A down switch drops everything it receives (its neighbors' fast-reroute
    backup routes keep traffic flowing, if installed). *)

val set_link_up : t -> a:int -> b:int -> bool -> unit
(** Fail/restore both directions of a link: transmissions onto a down link
    are dropped (reason ["link-down"]). Raises [Invalid_argument] if the
    nodes are not adjacent. *)

val link_is_up : t -> a:int -> b:int -> bool

val switch_is_up : t -> sw:int -> bool

val live_shortest_path : t -> src:int -> dst:int -> int list option
(** Hop-shortest path over the {e live} graph only: down switches and down
    links are invisible, and hosts never transit (they can only be
    endpoints). Unlike [Topology.shortest_path] this sees the failure
    model, so control channels use it to recompute routes mid-failure.
    [None] when either endpoint is down or no live path exists. *)

(** {1 Sharding}

    Hooks for the conservative parallel engine ({!Ff_parallel.Psim}). A
    sharded run builds one net per shard over the {e whole} topology (so
    node ids, adjacency and routing tables stay globally indexed) but marks
    each net with the set of nodes its shard owns. A transmission whose
    receiving node is owned schedules locally as usual; one that crosses a
    region boundary is pushed to an SPSC {!Mailbox} toward the owning
    shard instead of the local engine. *)

val set_shard_hook : t -> owned:Bytes.t -> outbox:Mailbox.t array -> unit
(** [owned] and [outbox] are indexed by node id (['\000'] = not ours) and
    must match the node count; [outbox.(n)] is the mailbox toward the
    shard that owns node [n] (unused for owned nodes). This net is the
    single producer of every mailbox in [outbox]: it pushes only from the
    domain running it. *)

val owns : t -> int -> bool
(** Whether this net's shard owns the node ([true] for an unsharded net).
    Scenario code uses it to register receivers and start flows only on
    the owning shard's copy. *)

(** {1 Tracing} *)

type trace_event = {
  time : float;
  node : int;  (** where it happened *)
  uid : int;  (** packet uid *)
  flow : int;
  kind : trace_kind;
}

and trace_kind =
  | Switch_arrival
  | Host_delivery
  | Packet_drop of string

val set_tracer : t -> (trace_event -> unit) option -> unit
(** Install (or clear) a callback invoked on every switch arrival, host
    delivery, and drop. One tracer at a time; keep the callback cheap. *)

val trace_flow : t -> flow:int -> trace_event list ref
(** Convenience: install a tracer that accumulates this flow's events
    (newest first) into the returned ref. Replaces any existing tracer. *)

(** {1 Telemetry}

    The structured observability layer ([Ff_obs]): a typed event trace and
    a metrics registry every subsystem holding the net can report into.
    [create] attaches the ambient trace/registry if one is set
    ({!Ff_obs.Trace.set_ambient}), so harnesses can observe networks built
    deep inside scenario code. *)

val attach_obs : t -> Ff_obs.Trace.t option -> unit

val obs_emit : t -> Ff_obs.Event.t -> unit
(** Emit stamped with the current simulation time; no-op when no trace is
    attached. *)

val obs_active : t -> bool
(** Whether a trace is attached. Per-packet emitters should test this
    before constructing an event value, so an unattached trace costs no
    allocation at all. *)

val attach_metrics : t -> Ff_obs.Metrics.t option -> unit
val metrics : t -> Ff_obs.Metrics.t option
