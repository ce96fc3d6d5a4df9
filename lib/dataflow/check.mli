(** Static checking of booster programs before deployment (paper
    section 6, "Securing the boosters": switch programs are simple enough
    to be verified; this is the lightweight, always-on subset in the
    spirit of p4v/Vera).

    The checks run over a booster's PPM pipeline in order and flag:
    metadata read before any write; tables applied but never declared;
    statements that can never execute because an earlier unconditional
    drop shadows them; PPMs whose declared resources underestimate their
    body's footprint; and probe emissions from PPMs whose role should
    never originate probes (parsers/deparsers). *)

type issue =
  | Uninitialized_meta of { ppm : string; meta : string }
      (** read with no prior [Set_meta] anywhere earlier in the pipeline *)
  | Undeclared_table of { ppm : string; table : string }
  | Unreachable_after_drop of { ppm : string; stmts : int }
      (** statements following [Drop_when True] in the same body *)
  | Under_provisioned of { ppm : string; need : Ff_dataplane.Resource.t }
      (** declared resources below the cost model's estimate *)
  | Probe_from_parser of { ppm : string }

val pp_issue : Format.formatter -> issue -> unit

val check_pipeline : Ff_dataplane.Ppm.spec list -> issue list
(** Check one booster's PPMs in pipeline order, against the match-action
    tables the shipped booster runtimes install and the metadata each
    table's actions write. *)
