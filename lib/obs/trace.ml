type entry = { seq : int; time : float; event : Event.t }

(* The trace's times in a flat float-only record, so they are stored
   unboxed; [raw] carries the time of the event being emitted. *)
type clock = {
  mutable raw : float;
  mutable epoch_base : float;  (* offset applied when raw sim time regresses *)
  mutable last_raw : float;
  mutable last_time : float;
}

type t = {
  capacity : int;
  mutable buf : entry array;
  mutable len : int;
  mutable seq : int;
  mutable dropped : int;
  clock : clock;
  counts : (string, int) Hashtbl.t;
  mutable sinks : (entry -> unit) list;
}

let sentinel = { seq = -1; time = 0.; event = Event.Drop { node = -1; reason = "" } }

let create ?(capacity = 1 lsl 20) () =
  {
    capacity;
    buf = Array.make 1024 sentinel;
    len = 0;
    seq = 0;
    dropped = 0;
    clock = { raw = 0.; epoch_base = 0.; last_raw = 0.; last_time = 0. };
    counts = Hashtbl.create 16;
    sinks = [];
  }

let on_event t f = t.sinks <- f :: t.sinks

let bump t kind = Hashtbl.replace t.counts kind (1 + (try Hashtbl.find t.counts kind with Not_found -> 0))

let push t e =
  if t.len >= t.capacity then t.dropped <- t.dropped + 1
  else begin
    if t.len = Array.length t.buf then begin
      let bigger = Array.make (min t.capacity (2 * Array.length t.buf)) sentinel in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    t.buf.(t.len) <- e;
    t.len <- t.len + 1
  end

let record t event =
  (* One trace often spans several simulation runs (each with its own
     engine starting at t=0). When raw time regresses, a new run began:
     rebase so the trace timeline stays monotone, continuing from the last
     stamped time. *)
  let c = t.clock in
  let raw = c.raw in
  if raw < c.last_raw then c.epoch_base <- c.last_time;
  c.last_raw <- raw;
  let time = c.epoch_base +. raw in
  c.last_time <- time;
  let e = { seq = t.seq; time; event } in
  t.seq <- t.seq + 1;
  bump t (Event.kind event);
  push t e;
  List.iter (fun f -> f e) t.sinks

(* Small enough to inline: the caller's time reaches [record] through the
   flat [clock] cell instead of as a boxed argument. *)
let emit t ~time event =
  t.clock.raw <- time;
  record t event

let length t = t.len
let count t = t.seq
let dropped t = t.dropped
let count_kind t kind = try Hashtbl.find t.counts kind with Not_found -> 0

let events t = Array.to_list (Array.sub t.buf 0 t.len)

let iter t f =
  for i = 0 to t.len - 1 do
    f t.buf.(i)
  done

let entry_to_json (e : entry) =
  let fields =
    ("seq", string_of_int e.seq)
    :: ("time", Printf.sprintf "%.6f" e.time)
    :: ("event", Event.jstr (Event.kind e.event))
    :: Event.json_fields e.event
  in
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
  ^ "}"

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if Filename.check_suffix path ".csv" then begin
        output_string oc "seq,time,event,node,detail\n";
        iter t (fun e ->
            Printf.fprintf oc "%d,%.6f,%s,%d,%S\n" e.seq e.time (Event.kind e.event)
              (Event.node e.event) (Event.detail e.event))
      end
      else
        iter t (fun e ->
            output_string oc (entry_to_json e);
            output_char oc '\n'))

(* The ambient trace: the default sink that [Ff_netsim.Net] picks up at
   creation, so experiment harnesses can trace scenarios whose networks are
   built deep inside library code. Domain-local ([Domain.DLS]) rather than
   a global ref: a trace buffer is not thread-safe, and making the ambient
   slot per-domain means a shard net created on a worker domain never
   silently shares the harness's buffer — each domain opts in to its own
   sink (or none). Fresh domains start unset. *)
let ambient_key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let set_ambient tr = Domain.DLS.set ambient_key tr
let ambient () = Domain.DLS.get ambient_key

let with_ambient tr f =
  let saved = ambient () in
  set_ambient tr;
  Fun.protect ~finally:(fun () -> set_ambient saved) f
