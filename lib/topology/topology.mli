(** Network topology: simple undirected graphs of hosts and switches with
    capacitated, delayed links.

    This is the substrate the FastFlex scheduler places booster modules on
    and the substrate the simulator instantiates. Node and link identifiers
    are dense integers so that downstream components can use arrays. *)

type node_kind = Host | Switch

type node = { id : int; kind : node_kind; name : string }

type link = {
  link_id : int;
  a : int;  (** endpoint node id *)
  b : int;  (** endpoint node id *)
  capacity : float;  (** bits per second *)
  delay : float;  (** propagation delay, seconds *)
}

type t

(** {1 Construction} *)

val create : unit -> t

val add_node : t -> kind:node_kind -> name:string -> int
(** Returns the fresh node id. *)

val add_link : t -> ?capacity:float -> ?delay:float -> int -> int -> int
(** [add_link t a b] connects two existing nodes; returns the link id.
    Defaults: 10 Mb/s capacity, 1 ms delay. Self-loops and duplicate links
    are rejected with [Invalid_argument]. *)

(** {1 Accessors} *)

val node : t -> int -> node
val link : t -> int -> link
val nodes : t -> node list
val links : t -> link list
val num_nodes : t -> int
val num_links : t -> int
val hosts : t -> node list
val switches : t -> node list

val neighbors : t -> int -> (int * link) list
(** [(peer, link)] pairs adjacent to a node. *)

val find_link : t -> int -> int -> link option
(** The link between two nodes, if any (order-insensitive). *)

val link_other_end : link -> int -> int
(** [link_other_end l n] is the endpoint of [l] that is not [n]. *)

val node_by_name : t -> string -> node
(** Raises [Not_found]. *)

val degree : t -> int -> int

(** {1 Path algorithms} *)

type path = int list
(** A path as the list of node ids, endpoints included. *)

val path_links : t -> path -> link list
(** Links traversed by a path. Raises [Invalid_argument] if consecutive
    nodes are not adjacent. *)

val path_delay : t -> path -> float
(** Sum of propagation delays along the path. *)

val shortest_path : t -> src:int -> dst:int -> path option
(** Breadth-first search over hop count, the simulator's one path
    metric. Hosts other than the endpoints are never used as transit. *)

val shortest_paths_from : t -> src:int -> int -> path option
(** [shortest_paths_from t ~src] runs one breadth-first search from [src]
    and returns the path lookup of its tree: applied to [dst] it equals
    [shortest_path t ~src ~dst], for every [dst]. Raises
    [Invalid_argument] on a node id outside the topology. *)

val k_shortest_paths : ?k:int -> t -> src:int -> dst:int -> path list
(** Yen's algorithm, loop-free paths in increasing hop count (default
    [k = 4]). *)

val route_tree : t -> dst:int -> (sw:int -> next_hop:int -> unit) -> unit
(** The shortest-path tree toward host [dst] over switches only (hosts are
    never transited): [f ~sw ~next_hop] once per switch that reaches
    [dst], in BFS order from [dst]'s access switch (its first neighbor),
    peers in {!neighbors} order. The access switch itself is the root and
    gets no call. *)

val is_connected : t -> bool

val edge_betweenness : t -> (int, float) Hashtbl.t
(** For each link id, the number of host-pair shortest paths crossing it —
    the metric a Crossfire-style attacker uses to pick critical links. *)

val critical_links : t -> n:int -> link list
(** The [n] switch-to-switch links with the highest betweenness {e per unit
    capacity} — many paths cross them and they are cheap to flood, the
    Crossfire attacker's target selection. Host access links are excluded
    (an LFA targets the core, not the victim's last mile). *)

(** {1 Builders}

    All builders return the topology plus named landmarks where useful.
    Links are 10 Mb/s unless a builder says otherwise. *)

val linear : n:int -> unit -> t
(** [h0 - s0 - s1 - ... - s(n-1) - h1]. *)

val ring : n:int -> unit -> t
(** n switches in a cycle, one host per switch on a 20 Mb/s link. *)

val dumbbell : ?capacity:float -> ?bottleneck:float -> pairs:int -> unit -> t
(** classic dumbbell: [pairs] senders and receivers joined by one
    bottleneck link; both capacities default to 10 Mb/s. *)

val fat_tree : k:int -> unit -> t
(** k-ary fat-tree (k even): (k/2)^2 cores, k pods of k/2+k/2 switches,
    one host per edge switch port. *)

val abilene : unit -> t
(** The 11-node Abilene research WAN, one host per PoP (40 Mb/s). *)

val waxman : n:int -> seed:int -> unit -> t
(** Random Waxman graph over [n] switches (alpha 0.6, beta 0.4; re-drawn
    until connected), one host per switch on a 20 Mb/s link. *)

val isp : ?cores:int -> ?access_per_core:int -> ?hosts_per_access:int -> unit -> t
(** An ISP-like three-tier topology for large hybrid fluid/packet runs:
    [cores] PoP switches in a chorded ring (short paths, little transit
    through any single PoP), [access_per_core] access switches per PoP and
    [hosts_per_access] hosts per access switch. Node creation order is
    cores first, then per-PoP (access, its hosts), so
    [List.filteri (fun i _ -> i / hosts_per_access = a) (hosts t)] are the
    hosts behind the [a]-th access switch (PoP [a / access_per_core]).
    Defaults: 12 PoPs x 2 x 4 = 96 hosts; 2 Gb/s core, 1 Gb/s access,
    400 Mb/s host links. *)

(** The paper's case-study topology (Figure 2): source edges behind an
    aggregation switch, two critical links toward the victim side, a longer
    detour path, and a victim region hosting the victim plus public decoy
    servers. *)
module Fig2 : sig
  type landmarks = {
    topo : t;
    normal_sources : int list;  (** hosts sending legitimate traffic to the victim *)
    bot_sources : int list;  (** attacker-controlled hosts *)
    victim : int;  (** victim host *)
    decoys : int list;  (** public servers near the victim (traceroute targets) *)
    critical : link list;  (** the two critical links the LFA can target *)
    agg : int;  (** aggregation switch upstream of the critical links *)
    victim_agg : int;  (** aggregation switch on the victim side *)
    detour : int list;  (** switch ids of the longer detour path *)
  }

  val build : ?bots:int -> ?normals:int -> unit -> landmarks
  (** 10 Mb/s critical links, 20 Mb/s detour links (longer
      delay), 40 Mb/s edges, 4 bots, 4 normal sources. *)
end
