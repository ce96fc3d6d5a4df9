module Packet = Ff_dataplane.Packet

(* Single-producer/single-consumer ring carrying cross-shard packet
   arrivals, one mailbox per ordered shard pair. The payload columns are
   parallel arrays (unboxed float times, int node ids), mirroring the
   engine's packet lane: a push is four plain stores plus one atomic
   publish, no allocation.

   Memory model: the producer writes the slot columns and then publishes
   by storing [tail]; the consumer reads [tail] (an atomic load, so the
   slot writes happen-before it) and only then the slots. [head] flows the
   other way, licensing slot reuse. The parallel engine additionally
   separates the push phase (inside a window) from the drain phase
   (between barriers), so the ring is never popped while being filled —
   which is what lets [overflow] be a plain field: it is only written by
   the producer during a window and only read/cleared by the consumer
   after the barrier that ends it. *)

let nil : 'a. unit -> 'a = fun () -> Obj.magic 0

type t = {
  mask : int;
  ats : float array;
  tos : int array;
  froms : int array;
  pkts : Packet.t array;
  head : int Atomic.t; (* consumer cursor *)
  tail : int Atomic.t; (* producer cursor *)
  mutable overflow : (float * int * int * Packet.t) list; (* newest first *)
  mutable overflowed : int; (* total messages that missed the ring *)
}

let create ?(capacity = 1 lsl 12) () =
  if capacity < 2 || capacity land (capacity - 1) <> 0 then
    invalid_arg "Mailbox.create: capacity must be a power of two >= 2";
  {
    mask = capacity - 1;
    ats = Array.make capacity 0.;
    tos = Array.make capacity 0;
    froms = Array.make capacity 0;
    pkts = Array.make capacity (nil ());
    head = Atomic.make 0;
    tail = Atomic.make 0;
    overflow = [];
    overflowed = 0;
  }

let push t ~at ~to_node ~from_node pkt =
  let tail = Atomic.get t.tail in
  if tail - Atomic.get t.head > t.mask then begin
    (* ring full: spill to the list. FIFO order is restored at drain time
       (the spill is strictly newer than everything in the ring). *)
    t.overflow <- (at, to_node, from_node, pkt) :: t.overflow;
    t.overflowed <- t.overflowed + 1
  end
  else begin
    let i = tail land t.mask in
    Array.unsafe_set t.ats i at;
    Array.unsafe_set t.tos i to_node;
    Array.unsafe_set t.froms i from_node;
    Array.unsafe_set t.pkts i pkt;
    Atomic.set t.tail (tail + 1)
  end

let drain t f =
  let tail = Atomic.get t.tail in
  let head = Atomic.get t.head in
  for pos = head to tail - 1 do
    let i = pos land t.mask in
    f ~at:t.ats.(i) ~to_node:t.tos.(i) ~from_node:t.froms.(i) t.pkts.(i);
    (* release the packet: a drained mailbox keeps nothing alive *)
    t.pkts.(i) <- nil ()
  done;
  Atomic.set t.head tail;
  match t.overflow with
  | [] -> tail - head
  | spill ->
    t.overflow <- [];
    List.fold_left
      (fun count (at, to_node, from_node, pkt) ->
        f ~at ~to_node ~from_node pkt;
        count + 1)
      (tail - head) (List.rev spill)

let overflowed t = t.overflowed

let is_empty t =
  Atomic.get t.head = Atomic.get t.tail && t.overflow = []
