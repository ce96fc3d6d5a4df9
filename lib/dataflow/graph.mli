(** Booster dataflow graphs and the merged whole-network graph
    (paper Figure 1 a-b).

    Vertices are PPMs; an edge [u -> v] means traffic flows from [u] to [v]
    and its weight is the amount of state they share (values that must be
    carried between them, e.g. as header fields, if they are placed on
    different switches). *)

type vertex = {
  vid : int;
  spec : Ff_dataplane.Ppm.spec;
  boosters : string list;  (** boosters this (possibly shared) PPM serves *)
}

type edge = { u : int; v : int; weight : float }

type t

val of_pipeline : booster:string -> Ff_dataplane.Ppm.spec list -> t
(** Chain graph in pipeline order; edge weights count shared registers
    between the endpoint PPMs, plus extra (non-chain) edges between any two
    PPMs that share state at distance > 1. *)

val vertices : t -> vertex list
val edges : t -> edge list
val vertex : t -> int -> vertex
val num_vertices : t -> int

val merge : t list -> t * (string * string) list
(** Union of the graphs with functionally equivalent PPMs (per
    [Equiv.equivalent]) collapsed into a single shared vertex whose
    resource vector is the component-wise max of the merged instances.
    Also returns the sharing report: pairs [(kept_name, absorbed_name)]. *)

val clusters : t -> int list list
(** Connected groups of vertices linked by edges of weight >= 1: the
    "dense, heavy-weight" clusters that should be co-located on one
    switch. Singleton clusters included. *)

val savings : before:t list -> after:t -> float
(** Fraction of total resource stages saved by merging, in [0,1]. *)

val to_dot : ?name:string -> t -> string
(** Graphviz rendering: vertices labelled with PPM name/role/resources
    (shared PPMs double-peripheried), edges weighted by state sharing. *)
