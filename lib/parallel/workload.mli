(** Deterministic CBR traffic scenarios for the parallel engine: the
    workload the perf benchmark, the CLI [parallel] command and the
    differential tests share.

    Every host sends one constant-rate flow to the host half the host list
    away (cross-pod in a fat tree); per-destination BFS route trees are
    precomputed once and installed identically on every shard's net. Flow
    start offsets are staggered so that no two distinct events in the run
    fall at exactly equal times — the one situation where a sharded run
    may legitimately order differently from a sequential one. *)

type t

type counters = {
  delivered : int array;  (** packets delivered, per flow slot *)
  time_sum : float array;
      (** sum of delivery timestamps per slot — a positional checksum:
          equal sums + equal counts means equal delivery schedules for
          any physically plausible schedule difference *)
}

val make : ?rate_pps:float -> ?duration:float -> Ff_topology.Topology.t -> t
(** Defaults: 2000 packets/s per flow, 1000 B packets, senders stop at
    0.5 s; the run extends 50 ms past [duration] to drain in-flight
    packets. Raises [Invalid_argument] with fewer than two hosts. *)

val fat_tree : ?k:int -> ?rate_pps:float -> ?duration:float -> unit -> t
(** The benchmark scenario: [make] over [Topology.fat_tree] (default
    [k = 8]: 128 hosts, 80 switches). *)

val n_flows : t -> int

val topo : t -> Ff_topology.Topology.t

val until : t -> float

val fresh_counters : t -> counters

val setup : t -> counters -> Ff_netsim.Net.t array -> unit
(** Install routes on every net, then start each flow on the net owning
    its source host and register a counting receiver on the net owning its
    destination — exactly the shape {!Psim.run}'s [setup] expects
    (partially applied: [setup t counters]). Works unchanged on a
    single-element array for unsharded runs. *)

val run_reference : t -> counters * Ff_netsim.Net.t
(** Plain single-engine run of the same scenario (fresh engine, ambient
    observability detached): the sequential baseline for differential
    comparison and speedup measurement. *)

val total_delivered : counters -> int
