(* Two typed event lanes share one clock and one sequence counter.

   The packet lane exists because packet arrivals are the dominant event
   class (one per link hop; ~1.5M per bench run): storing them as
   (time, seq, to_node, from_node, pkt) heap columns instead of a
   [fun () -> receive ...] thunk removes the last per-hop closure
   allocation. Everything rare — timers, bursts, the mode protocol —
   stays on the thunk lane.

   Each lane is an [Ff_util.Heap]: slot-indexed, so its sifts move only
   the (time, seq) keys and an int slot id, and a packet is stored once
   per hop, by the push into its arena row, never by a sift level. Only
   the packet lane calls [push_tagged], so only it allocates tag columns.

   Ordering: every schedule, on either lane, draws the next value of the
   engine-wide [next_seq] counter, and dispatch always picks the lane
   whose top has the smaller (time, seq). That is exactly the order the
   old single-heap engine produced, so runs are bit-identical.

   The clock is a single-float record, so dispatch stores each popped
   time unboxed and [now] reads it unboxed wherever it inlines. A reader
   that keeps the time in a mixed record, a [ref] or a tuple, or passes it
   to a call that does not inline, boxes it there: give such a reader a
   flat float field of its own. *)

type packet_handler = to_node:int -> from_node:int -> Ff_dataplane.Packet.t -> unit

let no_handler ~to_node:_ ~from_node:_ _ =
  failwith "Engine.schedule_packet: no packet handler registered"

(* Single-float record: a flat field stores a float unboxed, where a
   mutable float field of a mixed record or a [float ref] boxes a fresh
   float on every write. *)
type fcell = { mutable fv : float }

type t = {
  thunks : (unit -> unit) Ff_util.Heap.t;
  packets : Ff_dataplane.Packet.t Ff_util.Heap.t;
      (* tag1 = to_node, tag2 = from_node *)
  clock : fcell;
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
    clock = { fv = 0. };
    next_seq = 0;
    steps = 0;
    on_packet = no_handler;
  }

let steps t = t.steps

let now t = t.clock.fv

let set_packet_handler t h = t.on_packet <- h

let push_thunk t ~prio f =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Ff_util.Heap.push_seq t.thunks ~prio ~seq f

let schedule t ~at f =
  let clock = t.clock.fv in
  if at < clock -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%.9f is before now=%.9f" at clock);
  push_thunk t ~prio:(if at >= clock then at else clock) f

let schedule_packet t ~at ~to_node ~from_node pkt =
  let clock = t.clock.fv in
  if at < clock -. 1e-12 then
    invalid_arg
      (Printf.sprintf "Engine.schedule_packet: at=%.9f is before now=%.9f" at clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let prio = if at >= clock then at else clock in
  Ff_util.Heap.push_tagged t.packets ~prio ~seq ~tag1:to_node ~tag2:from_node pkt

let after t ~delay f =
  assert (delay >= 0.);
  schedule t ~at:(t.clock.fv +. delay) f

let every t ?start ?until ~period f =
  assert (period > 0.);
  let start = match start with Some s -> s | None -> t.clock.fv +. period in
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
    let clock = t.clock.fv in
    if start < clock -. 1e-12 then
      invalid_arg
        (Printf.sprintf "Engine.schedule_burst: start=%.9f is before now=%.9f" start clock);
    (* a single self-rescheduling closure with one live heap slot: the
       burst costs one allocation total instead of one closure per tick *)
    let at = { fv = (if start >= clock then start else clock) } in
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

(* Lane dispatchers: [min_prio] inlines and the clock cell is flat, so
   setting the clock allocates nothing. *)
let dispatch_packet t =
  let at = Ff_util.Heap.min_prio t.packets in
  let to_node = Ff_util.Heap.top_tag1 t.packets
  and from_node = Ff_util.Heap.top_tag2 t.packets in
  let pkt = Ff_util.Heap.pop_min t.packets in
  if at > t.clock.fv then t.clock.fv <- at;
  t.steps <- t.steps + 1;
  t.on_packet ~to_node ~from_node pkt

let dispatch_thunk t =
  let at = Ff_util.Heap.min_prio t.thunks in
  let f = Ff_util.Heap.pop_min t.thunks in
  if at > t.clock.fv then t.clock.fv <- at;
  t.steps <- t.steps + 1;
  f ()

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
  if until > t.clock.fv then t.clock.fv <- until;
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
  if horizon > t.clock.fv then t.clock.fv <- horizon;
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
  t.clock.fv <- 0.;
  t.next_seq <- 0;
  t.on_packet <- no_handler
