(** Periodic measurement taps that turn simulator state into time series
    (the data behind each figure). *)

val sample :
  Engine.t -> period:float -> ?until:float -> name:string -> (float -> float) ->
  Ff_util.Series.t
(** From the current simulation time (so a monitor can be attached
    mid-run), every [period] seconds evaluate the probe function on the
    current time and append the result to a fresh series (returned
    immediately). *)

val link_utilization :
  Net.t -> from_:int -> to_:int -> period:float -> ?until:float -> unit -> Ff_util.Series.t

(** {1 Goodput probes}

    A {!probe} maps the current simulation time to a rate in bytes/s, so
    the aggregate-goodput series is flow-kind-agnostic: TCP flows report
    their receive-window goodput, CBR (and any other cumulative-counter
    source, including fluid-tier flows) report a differentiated counter.
    Probes are stateful closures — build one per flow per series and call
    it from a single sampling loop. *)

type probe = float -> float

val cbr_probe : Flow.Cbr.t -> probe
(** Rate of a CBR flow, differentiated from its cumulative delivered-bytes
    counter between successive samples (0. on the first sample). *)

val counter_probe : (unit -> float) -> probe
(** Generalization of {!cbr_probe}: differentiate any monotone cumulative
    byte counter — the fluid tier exposes its populations this way. *)

val aggregate_goodput :
  Net.t -> ?flows:Flow.Tcp.t list -> ?probes:probe list -> period:float -> name:string ->
  unit -> Ff_util.Series.t
(** Sum of the receiver-window goodputs of [flows] and any extra
    [probes], bytes/s. *)

val normalized_goodput :
  Net.t -> flows:Flow.Tcp.t list -> baseline:float -> period:float -> name:string -> unit ->
  Ff_util.Series.t
(** Goodput of [flows] divided by [baseline] (the no-attack stable
    throughput), i.e. exactly the y-axis of paper Figure 3. *)
