(** Minimal aligned ASCII tables for the bench harness ("same rows the
    paper reports"). *)

val print : header:string list -> rows:string list list -> unit
(** Pretty-print to stdout with column alignment and a rule under the
    header. All rows must have the header's arity (asserted). *)
