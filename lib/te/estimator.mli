(** Traffic-matrix estimation from data plane telemetry.

    The SDN controller (the paper's baseline defense) does not know the
    offered demands; it measures them. This module installs a telemetry
    stage on every switch that counts (src,dst) data bytes at each
    flow's ingress, and converts the windows to a bits-per-second traffic
    matrix on demand — the measurement half of the controller's loop. *)

type t

val install : Ff_netsim.Net.t -> t
(** Count at each flow's ingress switch (where its source host attaches,
    so a pair is never double-counted), averaged over a 2 s window; pairs
    below 10 kb/s are dropped from the matrix. *)

val matrix : t -> Traffic_matrix.t
(** Current estimate. *)

val rate : t -> src:int -> dst:int -> float
(** One pair's estimated rate, bits per second. *)

val pairs_seen : t -> int
