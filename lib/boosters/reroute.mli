(** Congestion-aware rerouting entirely in the data plane (paper
    section 4.1, "Routing around congestion"; after Hula, SOSR '16 and
    Contra, NSDI '20).

    For each root destination, its access switch periodically floods
    utilization probes while the ["reroute"] mode is active. A probe
    arriving at switch [s] from neighbor [n] describes a path
    [s -> n -> ... -> root] whose bottleneck is
    [max(probe.max_util, util(s -> n))]. Each switch keeps the best
    next hop per destination and generation; fresher rounds replace stale
    metrics, and improved metrics are re-flooded.

    The forwarding override applies {e only to packets marked suspicious}
    (or to all packets with [~reroute_all:true], the plain-Hula ablation):
    normal flows stay pinned to the TE paths — the paper's step (3),
    minimal disturbance to normal traffic. *)

type t

val install :
  Ff_netsim.Net.t ->
  roots:int list ->
  probe_interval:float ->
  ?reroute_all:bool ->
  unit ->
  t
(** [roots] are destination hosts probes advertise paths toward (probes
    originate at each root's access switch every [probe_interval]
    seconds); probes reach 8 hops and entries go stale after 0.5 s.
    [reroute_all] defaults to false. *)

val best_next_hop : t -> sw:int -> dst:int -> int option
(** Freshest known least-congested next hop toward [dst], if any. *)

val best_metric : t -> sw:int -> dst:int -> float option

val probes_sent : t -> int
val reroutes : t -> int
(** Packets actually steered off their table route. *)
