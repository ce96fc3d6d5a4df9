module Topology = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Regions = Ff_modes.Regions

type mode = Domains | Sequential | Auto

type shard = { id : int; engine : Engine.t; net : Net.t }

type result = {
  shards : shard array;
  shard_of : int array;
  mode_used : mode;
  windows : int;
  exchanged : int;
  events : int;
  alloc_bytes : float;
  lookahead : float;
}

(* Shared synchronization state. The mutable non-atomic fields are written
   and read in barrier-separated phases only: [next_times.(i)] by shard i
   before barrier B and by the coordinator between B and C; [horizon] and
   [final] by the coordinator between B and C and by everyone after C. The
   barriers create the happens-before edges, so none of these are data
   races. *)
type st = {
  n : int;
  until : float;
  la : float;
  barrier : Barrier.t;
  next_times : float array;
  inbox : Mailbox.t array array; (* [dst].(src) *)
  mutable horizon : float;
  mutable final : bool;
  mutable windows : int; (* coordinator only *)
  exchanged : int array; (* per consuming shard *)
  allocs : float array; (* per shard, bytes allocated during its run *)
  errors : exn option array;
}

(* Schedule every arrival addressed to shard [me] into its engine under
   the documented cross-shard tie rule, [(time, source shard, push
   index)], without sorting: mailboxes are drained in ascending source
   shard, each in push order, straight into [Engine.schedule_packet]. The
   engine dispatches by [(time, seq)] and draws [seq] at schedule time, so
   among same-instant arrivals the scheduling order — (source, push) — is
   the dispatch order, exactly as if the batch had been sorted by
   [(time, source, push)] first. Nothing is clamped on the way in: every
   arrival is at or after the window horizon the clock is parked at. *)
let drain_inbox inbox ~me engine =
  let schedule = Engine.schedule_packet engine in
  let count = ref 0 in
  for src = 0 to Array.length inbox - 1 do
    if src <> me then count := !count + Mailbox.drain inbox.(src) schedule
  done;
  !count

(* The exchange phase that opens every window, in both modes *)
let drain_and_publish st sh =
  st.exchanged.(sh.id) <- st.exchanged.(sh.id) + drain_inbox st.inbox.(sh.id) ~me:sh.id sh.engine;
  st.next_times.(sh.id) <- Engine.next_time sh.engine

(* One shard's window loop (both modes run exactly this phase sequence):

     drain mailboxes; publish next event time
     --- barrier B ---
     coordinator: t_min := min next_times;
                  final when t_min >= until,
                  else horizon := min (until, t_min + lookahead)
     --- barrier C ---
     final: run inclusively to [until] and stop
     else:  run_window to (exclusive) horizon
     --- barrier A ---  (producers quiescent before anyone drains)

   Conservative correctness: every event executed in a window has time
   >= t_min, and a cross-shard hop adds at least [lookahead] of link
   delay, so every message posted during the window carries a time
   >= t_min + lookahead >= horizon — never inside any shard's window.
   The final round is inclusive like the sequential [Engine.run ~until]:
   events at exactly [until] run, and any messages they post are at
   strictly greater times, which the sequential engine would not execute
   either. *)
let rec worker st (sh : shard) =
  drain_and_publish st sh;
  Barrier.wait st.barrier;
  if sh.id = 0 then begin
    let t_min = Array.fold_left Float.min infinity st.next_times in
    if t_min >= st.until then st.final <- true
    else begin
      st.horizon <- Float.min st.until (t_min +. st.la);
      st.windows <- st.windows + 1
    end
  end;
  Barrier.wait st.barrier;
  if st.final then Engine.run sh.engine ~until:st.until
  else begin
    Engine.run_window sh.engine ~horizon:st.horizon;
    Barrier.wait st.barrier;
    worker st sh
  end

let guarded_worker st sh =
  (* [Gc.allocated_bytes] is per-domain in OCaml 5: the measurement must
     happen on the domain doing the allocating. *)
  let a0 = Gc.allocated_bytes () in
  (try worker st sh with
  | Barrier.Poisoned -> ()
  | e ->
    st.errors.(sh.id) <- Some e;
    Barrier.poison st.barrier);
  st.allocs.(sh.id) <- Gc.allocated_bytes () -. a0

(* Sequential cooperative mode: the same windowed algorithm, every phase
   executed shard-by-shard (ascending id) on the calling domain. Because
   the phase structure and drain order are identical, the event
   interleaving — and therefore every counter and delivery time — is
   bit-identical to what the Domains mode produces. This is the fallback
   for machines with fewer cores than shards, and the reference the
   differential tests compare the Domains mode against. *)
let run_sequential st shards =
  let a0 = Gc.allocated_bytes () in
  let continue_ = ref true in
  while !continue_ do
    Array.iter (drain_and_publish st) shards;
    let t_min = Array.fold_left Float.min infinity st.next_times in
    if t_min >= st.until then begin
      Array.iter (fun sh -> Engine.run sh.engine ~until:st.until) shards;
      continue_ := false
    end
    else begin
      st.horizon <- Float.min st.until (t_min +. st.la);
      st.windows <- st.windows + 1;
      Array.iter (fun sh -> Engine.run_window sh.engine ~horizon:st.horizon) shards
    end
  done;
  st.allocs.(0) <- Gc.allocated_bytes () -. a0

let run ?(mode = Auto) ~shards:n ~topo ~setup ~until () =
  if until < 0. then invalid_arg "Psim.run: negative until";
  let shard_of = Regions.partition topo ~shards:n in
  let la = if n = 1 then infinity else Regions.lookahead topo ~shard_of in
  let mail = Array.init n (fun _ -> Array.init n (fun _ -> Mailbox.create ())) in
  let shards =
    Array.init n (fun i ->
        let engine = Engine.create () in
        let net = Net.create engine topo in
        (* shard nets never share the caller's ambient trace/metrics —
           those are single-domain structures. Per-shard observability is
           the setup callback's to attach. *)
        Net.attach_obs net None;
        Net.attach_metrics net None;
        if n > 1 then begin
          let owned = Regions.ownership shard_of ~shard:i in
          Net.set_shard_hook net ~owned
            ~post:(fun ~at ~to_node ~from_node pkt ->
              Mailbox.push mail.(i).(shard_of.(to_node)) ~at ~to_node ~from_node pkt)
        end;
        { id = i; engine; net })
  in
  (* scenario setup — route installation, receiver registration, flow
     starts — always runs on the calling domain, before any worker
     spawns: no engine is live yet, so no synchronization is needed *)
  setup (Array.map (fun sh -> sh.net) shards);
  let st =
    {
      n;
      until;
      la;
      barrier = Barrier.create ~parties:n;
      next_times = Array.make n infinity;
      inbox = Array.init n (fun dst -> Array.init n (fun src -> mail.(src).(dst)));
      horizon = 0.;
      final = false;
      windows = 0;
      exchanged = Array.make n 0;
      allocs = Array.make n 0.;
      errors = Array.make n None;
    }
  in
  let mode_used =
    match mode with
    | _ when n = 1 -> Sequential
    | Sequential -> Sequential
    | Domains -> Domains
    | Auto -> if Domain.recommended_domain_count () >= n then Domains else Sequential
  in
  (match mode_used with
  | Sequential | Auto -> run_sequential st shards
  | Domains ->
    let spawned =
      Array.init (n - 1) (fun j ->
          let sh = shards.(j + 1) in
          Domain.spawn (fun () -> guarded_worker st sh))
    in
    guarded_worker st shards.(0);
    Array.iter Domain.join spawned;
    Array.iter (function Some e -> raise e | None -> ()) st.errors);
  {
    shards;
    shard_of;
    mode_used;
    windows = st.windows;
    exchanged = Array.fold_left ( + ) 0 st.exchanged;
    events = Array.fold_left (fun acc sh -> acc + Engine.steps sh.engine) 0 shards;
    alloc_bytes = Array.fold_left ( +. ) 0. st.allocs;
    lookahead = la;
  }

(* ---------------- result merging ----------------

   Ownership decomposition makes these sums exact, not approximate: a
   directed link's tx/drop counters are only ever touched in the net copy
   of the shard owning its sending node, and a node's drops only in its
   owner's copy, so summing across shards counts each exactly once. *)

let shard_events r = Array.map (fun sh -> Engine.steps sh.engine) r.shards

let imbalance r =
  let events = shard_events r in
  let total = Array.fold_left ( + ) 0 events in
  if total = 0 then 1.
  else
    float_of_int (Array.fold_left max 0 events)
    *. float_of_int (Array.length events) /. float_of_int total

let total_tx r =
  Array.fold_left (fun acc sh -> acc + Net.total_tx_packets sh.net) 0 r.shards

let drops_by_reason r =
  let merged = Hashtbl.create 16 in
  Array.iter
    (fun sh ->
      List.iter
        (fun (reason, count) ->
          Hashtbl.replace merged reason
            (count + (try Hashtbl.find merged reason with Not_found -> 0)))
        (Net.drops_by_reason sh.net))
    r.shards;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let link_tx_packets r ~from_ ~to_ =
  (* sender-owned: only the owner of [from_] ever exercised this link *)
  Net.link_tx_packets r.shards.(r.shard_of.(from_)).net ~from_ ~to_
