type span = {
  label : string;
  wall_start : float;
  events_start : int;
  trace_start : int;
}

type report = {
  label : string;
  wall_s : float;
  events : int;  (** simulator events processed during the span *)
  events_per_s : float;
  trace_events : int;  (** telemetry events emitted during the span *)
}

let start ~events ~trace_events label =
  { label; wall_start = Unix.gettimeofday (); events_start = events; trace_start = trace_events }

let finish span ~events ~trace_events =
  let wall_s = Float.max 1e-9 (Unix.gettimeofday () -. span.wall_start) in
  let processed = max 0 (events - span.events_start) in
  {
    label = span.label;
    wall_s;
    events = processed;
    events_per_s = float_of_int processed /. wall_s;
    trace_events = max 0 (trace_events - span.trace_start);
  }

let pp_report fmt r =
  Format.fprintf fmt
    "[profile] %-12s wall %7.3f s   %9d sim events  %10.0f events/s   %6d trace events"
    r.label r.wall_s r.events r.events_per_s r.trace_events
