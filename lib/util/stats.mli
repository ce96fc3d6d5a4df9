(** Streaming and batch statistics used by measurement taps. *)

(** {1 Batch statistics} *)

val mean : float list -> float
(** Arithmetic mean; 0. on the empty list. *)

val variance : float list -> float
(** Population variance; 0. on lists shorter than 2. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], by linear interpolation on the
    sorted sample. Raises [Invalid_argument] on the empty list. *)

val median : float list -> float

(** {1 Exponentially weighted moving average}

    The per-link utilization estimator switches use to drive congestion-aware
    routing decisions (paper section 4.1, "routing around congestion"). *)

module Ewma : sig
  type t

  val create : alpha:float -> t
  (** [alpha] in (0,1]; larger reacts faster. *)

  val update : t -> float -> unit
  val value : t -> float
  (** 0. before the first update. *)

  val reset : t -> unit
end

(** {1 Windowed counter}

    Bytes-per-window counters backing throughput/link-load time series. *)

module Window_counter : sig
  type t

  val create : width:float -> t
  (** [width] is the window length in seconds. *)

  val add : t -> now:float -> float -> unit
  val rate : t -> now:float -> float
  (** Average per-second rate over the window ending at [now]. *)
end
