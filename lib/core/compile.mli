(** The FastFlex compilation pipeline (paper Figure 1 a-b): booster specs
    -> per-booster dataflow graphs -> program analysis -> one merged graph
    with functionally equivalent PPMs shared. *)

type compiled = {
  graphs : (string * Ff_dataflow.Graph.t) list;  (** per-booster graphs *)
  merged : Ff_dataflow.Graph.t;
  sharing : (string * string) list;  (** (kept PPM, absorbed PPM) pairs *)
  savings : float;  (** fraction of pipeline stages saved by sharing *)
}

val boosters : ?names:string list -> unit -> compiled
(** Compile the named boosters (default: the full shipped catalogue,
    [Ff_boosters.Specs.booster_names]). *)

val pack_onto : compiled -> switches:int list -> (Ff_placement.Pack.bin list, string) result
(** Pack the merged graph onto identical [Resource.tofino_like] switches. *)

val module_rows : compiled -> (string * string list * Ff_dataplane.Resource.t) list
(** (module, boosters sharing it, resources) for the merged graph —
    the paper Figure 1 module table. *)

val verify : unit -> (string * Ff_dataflow.Check.issue list) list
(** Statically check every booster pipeline before
    deployment (paper section 6, "Securing the boosters"). The shipped
    catalogue must verify clean; the result lists each booster with its
    issues (empty lists included). *)
