(** Metrics registry: named counters, gauges, and sliding-window histograms,
    each keyed globally, per-switch, or per-link. Handle lookups hash once;
    hold on to the returned handle on hot paths. *)

type scope = Global | Switch of int | Link of int * int

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Gauge : sig
  type t

  val set : t -> float -> unit
end

module Histogram : sig
  type t

  val observe : t -> now:float -> float -> unit
  (** [now] is simulation time; samples older than the registry's
      [hist_window] age out. *)

  val count : t -> now:float -> int
  val mean : t -> now:float -> float
end

type t

val create : ?hist_window:float -> unit -> t
(** [hist_window] is the histogram sliding window in simulation seconds
    (default 10). *)

val counter : t -> ?scope:scope -> string -> Counter.t
val gauge : t -> ?scope:scope -> string -> Gauge.t
val histogram : t -> ?scope:scope -> string -> Histogram.t

val counter_value : t -> ?scope:scope -> string -> float
(** 0 when the counter was never created. *)

val sum_counters : t -> string -> float
(** Sum of one counter name over every scope. *)

val rows : t -> now:float -> string list list
(** [metric; scope; type; value] rows sorted by name, for [Table.print]. *)

val write_csv : t -> now:float -> string -> unit

(** {2 Ambient registry} — same pattern as {!Trace.ambient}. *)

val set_ambient : t option -> unit
val ambient : unit -> t option
