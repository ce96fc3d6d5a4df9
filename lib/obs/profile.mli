(** Per-experiment wall-clock profiler. The caller supplies monotone event
    counters at [start] and [finish] (typically
    [Ff_netsim.Engine.total_steps ()] and [Trace.count]); the report gives
    the wall time and the simulator events/second processed in between. *)

type span

type report = {
  label : string;
  wall_s : float;
  events : int;
  events_per_s : float;
  trace_events : int;
}

val start : events:int -> trace_events:int -> string -> span
val finish : span -> events:int -> trace_events:int -> report
val pp_report : Format.formatter -> report -> unit
