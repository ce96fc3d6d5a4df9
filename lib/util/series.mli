(** Time series collected by measurement taps and printed by the bench
    harness in the same shape as the paper's figures. *)

type t

val create : name:string -> t

val add : t -> time:float -> float -> unit
(** Append a sample. Times are expected non-decreasing (asserted). *)

val points : t -> (float * float) list
(** Samples in insertion order. *)

val length : t -> int

val last : t -> (float * float) option

val resample : t -> step:float -> until:float -> (float * float) list
(** Piecewise-constant resampling on a regular grid starting at 0.;
    before the first sample the value is 0. *)

val pp_ascii : ?height:int -> Format.formatter -> t list -> unit
(** Render one or more series as a 72-column ASCII line chart (shared
    axes), the closest terminal equivalent of the paper's figure
    panels. *)

val pp_csv : Format.formatter -> t list -> unit
(** Render series as CSV rows [time,name1,name2,...] on a merged grid. *)
