(* Two typed event lanes share one clock and one sequence counter.

   The packet lane exists because packet arrivals are the dominant event
   class (one per link hop; ~1.5M per bench run): storing them as
   (time, seq, to_node, from_node, pkt) heap columns instead of a
   [fun () -> receive ...] thunk removes the last per-hop closure
   allocation. Everything rare — timers, bursts, the mode protocol —
   stays on the thunk lane.

   Ordering: every schedule, on either lane, draws the next value of the
   engine-wide [next_seq] counter, and dispatch always picks the lane
   whose top has the smaller (time, seq). That is exactly the order the
   old single-heap engine produced, so runs are bit-identical. *)

type packet_handler = to_node:int -> from_node:int -> Ff_dataplane.Packet.t -> unit

let no_handler ~to_node:_ ~from_node:_ _ =
  failwith "Engine.schedule_packet: no packet handler registered"

type t = {
  thunks : (unit -> unit) Ff_util.Heap.t;
  packets : Ff_dataplane.Packet.t Ff_util.Heap.t;
      (* tag1 = to_node, tag2 = from_node *)
  mutable clock : float;
  mutable next_seq : int;
  mutable steps : int;
  mutable on_packet : packet_handler;
}

(* Process-wide count of executed events, across every engine instance:
   the denominator-free "work done" measure the profiler reports even for
   engines buried inside scenario code.

   It used to be a bare [ref] bumped on every dispatch — a data race once
   engines run on separate domains, and a per-event shared-cache-line hit
   either way. Dispatch now bumps the engine's own [steps] field and the
   run entry points flush the delta into this atomic, so the hot loop
   stays domain-local and the aggregate stays exact at every point where
   a caller can observe it (between [run]/[run_window]/[step] calls). *)
let global_steps = Atomic.make 0
let total_steps () = Atomic.get global_steps
let flush_steps delta = if delta > 0 then ignore (Atomic.fetch_and_add global_steps delta)

let create () =
  {
    thunks = Ff_util.Heap.create ();
    packets = Ff_util.Heap.create ();
    clock = 0.;
    next_seq = 0;
    steps = 0;
    on_packet = no_handler;
  }

let steps t = t.steps

let now t = t.clock

let set_packet_handler t h = t.on_packet <- h

let push_thunk t ~prio f =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Ff_util.Heap.push_seq t.thunks ~prio ~seq f

let schedule t ~at f =
  if at < t.clock -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%.9f is before now=%.9f" at t.clock);
  push_thunk t ~prio:(max at t.clock) f

let schedule_packet t ~at ~to_node ~from_node pkt =
  if at < t.clock -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.schedule_packet: at=%.9f is before now=%.9f" at
         t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  (* pass one of the two already-boxed floats instead of [max at t.clock],
     which would box a fresh result per call *)
  let prio = if at >= t.clock then at else t.clock in
  Ff_util.Heap.push_tagged t.packets ~prio ~seq ~tag1:to_node ~tag2:from_node pkt

let after t ~delay f =
  assert (delay >= 0.);
  schedule t ~at:(t.clock +. delay) f

(* Single-float record for tick-time accumulators: a [float ref]'s [:=]
   boxes a fresh float per tick, a flat record field stores it unboxed. *)
type fcell = { mutable fv : float }

let every t ?start ?until ~period f =
  assert (period > 0.);
  let start = match start with Some s -> s | None -> t.clock +. period in
  (* one closure for the whole series; [next] carries the tick's own time *)
  let next = { fv = start } in
  let rec tick () =
    match until with
    | Some u when next.fv > u +. 1e-12 -> ()
    | _ ->
      f ();
      next.fv <- next.fv +. period;
      schedule t ~at:next.fv tick
  in
  schedule t ~at:start tick

let schedule_burst t ~start ~period ~count f =
  assert (period >= 0.);
  if count > 0 then begin
    if start < t.clock -. 1e-12 then
      invalid_arg
        (Printf.sprintf "Engine.schedule_burst: start=%.9f is before now=%.9f" start t.clock);
    (* a single self-rescheduling closure with one live heap slot: the
       burst costs one allocation total instead of one closure per tick *)
    let at = { fv = max start t.clock } in
    let k = ref 0 in
    let rec tick () =
      let continue = f !k in
      incr k;
      if continue && !k < count then begin
        at.fv <- at.fv +. period;
        push_thunk t ~prio:at.fv tick
      end
    in
    push_thunk t ~prio:at.fv tick
  end

(* Lane dispatchers: each costs one boxed float (min_prio's return, which
   then lives on as the clock's box) — the same per-event price the old
   single-heap engine paid. *)
let dispatch_packet t =
  let at = Ff_util.Heap.min_prio t.packets in
  let to_node = Ff_util.Heap.top_tag1 t.packets
  and from_node = Ff_util.Heap.top_tag2 t.packets in
  let pkt = Ff_util.Heap.pop_min t.packets in
  t.clock <- (if at > t.clock then at else t.clock);
  t.steps <- t.steps + 1;
  t.on_packet ~to_node ~from_node pkt

let dispatch_thunk t =
  let at = Ff_util.Heap.min_prio t.thunks in
  let f = Ff_util.Heap.pop_min t.thunks in
  t.clock <- (if at > t.clock then at else t.clock);
  t.steps <- t.steps + 1;
  f ()

let step t =
  if Ff_util.Heap.top_before t.packets t.thunks then begin
    dispatch_packet t;
    flush_steps 1;
    true
  end
  else if not (Ff_util.Heap.is_empty t.thunks) then begin
    dispatch_thunk t;
    flush_steps 1;
    true
  end
  else false

let run t ~until =
  let thunks = t.thunks and packets = t.packets in
  let steps0 = t.steps in
  let continue = ref true in
  while !continue do
    if Ff_util.Heap.top_before packets thunks then
      if Ff_util.Heap.top_at_most packets until then dispatch_packet t
      else continue := false
    else if Ff_util.Heap.top_at_most thunks until then dispatch_thunk t
    else (* both lanes drained or next event past [until] *) continue := false
  done;
  t.clock <- max t.clock until;
  flush_steps (t.steps - steps0)

(* The conservative-PDES window: execute events strictly before [horizon],
   then park the clock at the horizon. Exclusive, unlike [run] — an event
   at exactly the horizon may tie with a cross-shard arrival that another
   shard has not yet sent, so it must wait for the next window. There the
   drained arrivals are scheduled in (source shard, push) order, and the
   (time, seq) dispatch order turns that into the documented (time,
   source shard, push index) tie rule with no sort. Leaving the
   clock at [horizon] is safe precisely because conservative lookahead
   guarantees every future cross-shard arrival lands at or after it. *)
let run_window t ~horizon =
  let thunks = t.thunks and packets = t.packets in
  let steps0 = t.steps in
  let continue = ref true in
  while !continue do
    if Ff_util.Heap.top_before packets thunks then
      if Ff_util.Heap.top_lt packets horizon then dispatch_packet t
      else continue := false
    else if Ff_util.Heap.top_lt thunks horizon then dispatch_thunk t
    else continue := false
  done;
  t.clock <- max t.clock horizon;
  flush_steps (t.steps - steps0)

let next_time t =
  let p = t.packets and h = t.thunks in
  if Ff_util.Heap.is_empty p then
    if Ff_util.Heap.is_empty h then infinity else Ff_util.Heap.min_prio h
  else if Ff_util.Heap.is_empty h then Ff_util.Heap.min_prio p
  else min (Ff_util.Heap.min_prio p) (Ff_util.Heap.min_prio h)

let pending t = Ff_util.Heap.size t.thunks + Ff_util.Heap.size t.packets

let clear t =
  Ff_util.Heap.clear t.thunks;
  Ff_util.Heap.clear t.packets;
  (* a cleared engine must be as good as a fresh one: reset the clock (a
     stale clock silently rejected every schedule before the previous
     run's end) and drop the packet handler (a retained one could fire a
     previous run's [Net] from the next run's events) *)
  t.clock <- 0.;
  t.next_seq <- 0;
  t.on_packet <- no_handler
