module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Topology = Ff_topology.Topology

type t = {
  net : Net.t;
  xfer_id : int;
  src_sw : int;
  dst_sw : int;
  max_retries : int;
  rng : Ff_util.Prng.t; (* retransmit jitter; seeded, so runs replay *)
  chunks_by_group : (int, Fec.chunk list) Hashtbl.t;
  total_groups : int;
  (* sender state *)
  acked : (int, unit) Hashtbl.t;
  retries : (int, int) Hashtbl.t;
  dead_rounds : (int, int) Hashtbl.t;
      (* consecutive rounds a group found no live route; a short streak is
         a flap to ride out, a long one is a partition to fail on *)
  mutable last_path : int list; (* chunk path currently installed *)
  mutable chunks_sent : int;
  mutable retransmitted_groups : int;
  mutable reroutes : int;
  mutable failed : bool;
  mutable failed_reason : string option;
  on_fail : string -> unit;
  (* receiver state *)
  received : (int * int, Fec.chunk) Hashtbl.t; (* (group, index) -> chunk *)
  decoded : (int, (string * float) list) Hashtbl.t;
  mutable fec_recoveries : int;
  mutable complete : bool;
  on_complete : (string * float) list -> unit;
}

(* Rounds in a row a group may find the destination dead or unreachable
   before the transfer gives up. 3 rounds at the base timeout rides out a
   sub-quarter-second flap yet reports a real partition in ~0.25 s — far
   sooner than burning all [max_retries] exponential-backoff rounds. *)
let dead_round_limit = 3

(* Groups of 4 data chunks of 8 entries each; retransmission backs off
   from an 80 ms base. *)
let group_size = 4
let per_chunk = 8
let retransmit_timeout = 0.08

(* The transfers of one net, by id, so that a single per-switch stage
   dispatches to them. Ids count from 1 per net: a run's ids, the chunk
   flow ids and the jitter seeds derived from them do not depend on what
   ran earlier in the process, and the table dies with its net. *)
type transfers = { mutable last_id : int; by_id : (int, t) Hashtbl.t }

type Net.ext += Transfers of transfers

let emit_phase t phase =
  Net.obs_emit t.net
    (Ff_obs.Event.State_transfer
       { xfer_id = t.xfer_id; src = t.src_sw; dst = t.dst_sw; phase;
         chunks = t.chunks_sent })

let group_complete t g =
  match Hashtbl.find_opt t.chunks_by_group g with
  | None -> false
  | Some members -> (
    let n = (List.hd members).Fec.of_group in
    let have_data =
      List.length
        (List.filter
           (fun i -> Hashtbl.mem t.received (g, i))
           (List.init n Fun.id))
    in
    let have_parity = Hashtbl.mem t.received (g, n) in
    have_data = n || (have_data = n - 1 && have_parity))

let try_decode_group t g =
  if (not (Hashtbl.mem t.decoded g)) && group_complete t g then begin
    let members =
      Hashtbl.fold (fun (gg, _) c acc -> if gg = g then c :: acc else acc) t.received []
    in
    match Fec.decode_group members with
    | Some entries ->
      let n = (List.hd members).Fec.of_group in
      let data_present =
        List.length (List.filter (fun c -> not c.Fec.parity) members)
      in
      if data_present < n then begin
        t.fec_recoveries <- t.fec_recoveries + 1;
        Net.obs_emit t.net
          (Ff_obs.Event.Fec_recovery { xfer_id = t.xfer_id; group = g })
      end;
      Hashtbl.replace t.decoded g entries;
      true
    | None -> false
  end
  else false

let send_ack t ~group =
  let ack =
    Packet.make ~src:t.dst_sw ~dst:t.src_sw ~flow:t.xfer_id
      ~payload:(Packet.State_ack { xfer_id = t.xfer_id; group })
      ()
  in
  Net.inject_at_switch t.net ~sw:t.dst_sw ack

let finish_if_done t =
  if (not t.complete) && Hashtbl.length t.decoded = t.total_groups then begin
    t.complete <- true;
    emit_phase t Ff_obs.Event.Xfer_complete;
    let all =
      List.concat_map
        (fun g -> Hashtbl.find t.decoded g)
        (List.init t.total_groups Fun.id)
    in
    t.on_complete all
  end

let on_chunk t (c : Fec.chunk) =
  if not (Hashtbl.mem t.received (c.Fec.group, c.Fec.index)) then begin
    Hashtbl.replace t.received (c.Fec.group, c.Fec.index) c;
    if try_decode_group t c.Fec.group then begin
      send_ack t ~group:c.Fec.group;
      finish_if_done t
    end
  end
  else if Hashtbl.mem t.decoded c.Fec.group then
    (* retransmission of an already-complete group: the ack was lost, re-ack *)
    send_ack t ~group:c.Fec.group

let transfer_stage registry =
  {
    Net.stage_name = "state-transfer";
    process =
      (fun ctx pkt ->
        let here = ctx.Net.sw.Net.sw_id in
        match pkt.Packet.payload with
        | Packet.State_chunk { xfer_id; group; index; of_group; parity; entries }
          when pkt.Packet.dst = here -> (
          (match Hashtbl.find_opt registry.by_id xfer_id with
          | Some t when t.dst_sw = here ->
            on_chunk t { Fec.group; index; of_group; parity; entries }
          | _ -> ());
          Net.Absorb)
        | Packet.State_ack { xfer_id; group } when pkt.Packet.dst = here -> (
          (match Hashtbl.find_opt registry.by_id xfer_id with
          | Some t when t.src_sw = here -> Hashtbl.replace t.acked group ()
          | _ -> ());
          Net.Absorb)
        | _ -> Net.Continue);
  }

(* The net's registry; the first transfer of a net puts the endpoint
   stage on every switch. *)
let transfers net =
  match Net.find_ext net (function Transfers x -> Some x | _ -> None) with
  | Some x -> x
  | None ->
    let x = { last_id = 0; by_id = Hashtbl.create 4 } in
    Net.add_ext net (Transfers x);
    List.iter (fun sw -> Net.add_stage net ~sw (transfer_stage x)) (Net.switch_ids net);
    x

let send_group t g =
  match Hashtbl.find_opt t.chunks_by_group g with
  | None -> ()
  | Some members ->
    List.iter
      (fun (c : Fec.chunk) ->
        let pkt =
          Packet.make ~src:t.src_sw ~dst:t.dst_sw ~flow:t.xfer_id
            ~size:(Packet.control_size + (16 * List.length c.Fec.entries))
            ~payload:
              (Packet.State_chunk
                 { xfer_id = t.xfer_id; group = c.Fec.group; index = c.Fec.index;
                   of_group = c.Fec.of_group; parity = c.Fec.parity; entries = c.Fec.entries })
            ()
        in
        t.chunks_sent <- t.chunks_sent + 1;
        Net.inject_at_switch t.net ~sw:t.src_sw pkt)
      members

let fail t reason =
  if not (t.failed || t.complete) then begin
    t.failed <- true;
    t.failed_reason <- Some reason;
    emit_phase t Ff_obs.Event.Xfer_failed;
    t.on_fail reason
  end

(* Recompute the chunk path (and the reverse ack path) over the live
   graph: retransmission rounds pick up healed links and route around
   fresh failures instead of resending into the hole that ate the first
   transmission. Returns false when no live route exists right now. *)
let reroute_live t =
  match Net.live_shortest_path t.net ~src:t.src_sw ~dst:t.dst_sw with
  | None -> false
  | Some p ->
    if p <> t.last_path then begin
      Net.install_path t.net ~dst:t.dst_sw p;
      (match Net.live_shortest_path t.net ~src:t.dst_sw ~dst:t.src_sw with
      | Some back -> Net.install_path t.net ~dst:t.src_sw back
      | None -> ());
      if t.last_path <> [] then begin
        t.reroutes <- t.reroutes + 1;
        Net.obs_emit t.net
          (Ff_obs.Event.Repair
             { subsystem = "transfer"; node = t.src_sw;
               info = Printf.sprintf "xfer %d rerouted" t.xfer_id })
      end;
      t.last_path <- p
    end;
    true

(* Exponential backoff, factor 2 capped at 8x base, plus seeded jitter so
   parallel groups (and parallel transfers) don't retransmit in lockstep
   with each other or with periodic congestion. *)
let backoff_delay t ~tries =
  let factor = Float.min (2. ** float_of_int tries) 8. in
  (retransmit_timeout *. factor) +. Ff_util.Prng.float t.rng (0.25 *. retransmit_timeout)

let rec watch_group t g =
  if (not t.failed) && (not t.complete) && not (Hashtbl.mem t.acked g) then begin
    let tries = try Hashtbl.find t.retries g with Not_found -> 0 in
    if tries >= t.max_retries then fail t "retries-exhausted"
    else if not (Net.switch_is_up t.net ~sw:t.dst_sw) then
      dead_round t g "destination-down"
    else if not (Net.switch_is_up t.net ~sw:t.src_sw) then
      dead_round t g "source-down"
    else if not (reroute_live t) then dead_round t g "no-path"
    else begin
      Hashtbl.replace t.dead_rounds g 0;
      Hashtbl.replace t.retries g (tries + 1);
      if tries > 0 then begin
        t.retransmitted_groups <- t.retransmitted_groups + 1;
        emit_phase t Ff_obs.Event.Xfer_retransmit
      end;
      send_group t g;
      Engine.after (Net.engine t.net) ~delay:(backoff_delay t ~tries) (fun () ->
          watch_group t g)
    end
  end

(* The group cannot be sent this round (dead destination / no live path):
   don't burn a retry on a guaranteed loss — probe again at the base
   timeout and fail the whole transfer promptly once the streak shows a
   real partition rather than a flap. *)
and dead_round t g reason =
  let streak = 1 + (try Hashtbl.find t.dead_rounds g with Not_found -> 0) in
  Hashtbl.replace t.dead_rounds g streak;
  if streak >= dead_round_limit then fail t reason
  else
    Engine.after (Net.engine t.net) ~delay:retransmit_timeout (fun () ->
        watch_group t g)

let send net ~src_sw ~dst_sw ~entries ?(fec = true) ?(max_retries = 10) ?(seed = 17)
    ?(on_fail = fun (_ : string) -> ()) ~on_complete () =
  let registry = transfers net in
  registry.last_id <- registry.last_id + 1;
  let xfer_id = registry.last_id in
  let chunks = Fec.encode ~group_size ~per_chunk entries in
  let chunks = if fec then chunks else Fec.data_chunks chunks in
  let by_group = Hashtbl.create 8 in
  List.iter
    (fun (c : Fec.chunk) ->
      Hashtbl.replace by_group c.Fec.group
        ((try Hashtbl.find by_group c.Fec.group with Not_found -> []) @ [ c ]))
    chunks;
  let total_groups = Fec.group_count chunks in
  let t =
    {
      net;
      xfer_id;
      src_sw;
      dst_sw;
      max_retries;
      rng = Ff_util.Prng.create ~seed:(seed + xfer_id);
      chunks_by_group = by_group;
      total_groups;
      acked = Hashtbl.create 8;
      retries = Hashtbl.create 8;
      dead_rounds = Hashtbl.create 8;
      last_path = [];
      chunks_sent = 0;
      retransmitted_groups = 0;
      reroutes = 0;
      failed = false;
      failed_reason = None;
      on_fail;
      received = Hashtbl.create 64;
      decoded = Hashtbl.create 8;
      fec_recoveries = 0;
      complete = total_groups = 0;
      on_complete;
    }
  in
  if t.complete then on_complete [];
  Hashtbl.replace registry.by_id xfer_id t;
  emit_phase t Ff_obs.Event.Xfer_start;
  (* a statically disconnected pair fails outright *)
  let topo = Net.topology net in
  if Topology.shortest_path topo ~src:src_sw ~dst:dst_sw = None
     || Topology.shortest_path topo ~src:dst_sw ~dst:src_sw = None
  then fail t "no-path"
  else
    (* routes come from the live graph per round (see [reroute_live]); a
       transient outage at send time is handled by the dead-round probe
       loop, not an instant failure *)
    List.iter (fun g -> watch_group t g) (List.init total_groups Fun.id);
  t

(* Sketch snapshots ride the generic entry format: one ["cell:<i>"] entry
   per non-zero cell plus a ["total"] entry, so the receiver's total is the
   sender's — not a per-cell re-sum (see Sketch.absorb). *)
let sketch_wire_entries (snap : Ff_dataplane.Sketch.snapshot) =
  ("total", snap.Ff_dataplane.Sketch.total)
  :: List.map
       (fun (i, v) -> (Printf.sprintf "cell:%d" i, v))
       snap.Ff_dataplane.Sketch.cells

(* The index [i] of a ["<prefix>:<i>"] entry key. *)
let key_index prefix k =
  let p = prefix ^ ":" in
  if String.starts_with ~prefix:p k then
    int_of_string_opt (String.sub k (String.length p) (String.length k - String.length p))
  else None

let sketch_snapshot_of_entries entries =
  let cells =
    List.filter_map (fun (k, v) -> Option.map (fun i -> (i, v)) (key_index "cell" k)) entries
  in
  let total = List.fold_left (fun acc (k, v) -> if k = "total" then acc +. v else acc) 0. entries in
  { Ff_dataplane.Sketch.cells; total }

let send_sketch net ~src_sw ~dst_sw ~sketch ~into =
  let entries = sketch_wire_entries (Ff_dataplane.Sketch.serialize sketch) in
  send net ~src_sw ~dst_sw ~entries
    ~on_complete:(fun entries ->
      Ff_dataplane.Sketch.absorb into (sketch_snapshot_of_entries entries))
    ()

(* Cuckoo snapshots carry exact members, so the wire format must be
   lossless: geometry rides as ["geom:*"] entries and each (bucket,
   fingerprint) pair packs into one float as [bucket * 2^fp_bits + fp]
   (both components are small ints, so the product is exact in a float).
   Entry keys are indexed only to survive the chunker's keying. *)
let cuckoo_wire_entries (snap : Ff_dataplane.Cuckoo.snapshot) =
  let open Ff_dataplane.Cuckoo in
  [ ("geom:buckets", float_of_int snap.ck_buckets);
    ("geom:slots", float_of_int snap.ck_slots);
    ("geom:fp_bits", float_of_int snap.ck_fp_bits);
    ("geom:seed", float_of_int snap.ck_seed) ]
  @ List.mapi
      (fun i (b, fp) ->
        (Printf.sprintf "fp:%d" i, float_of_int ((b lsl snap.ck_fp_bits) lor fp)))
      snap.ck_entries

let cuckoo_snapshot_of_entries entries =
  let geom k =
    match List.assoc_opt ("geom:" ^ k) entries with
    | Some v -> int_of_float v
    | None -> invalid_arg (Printf.sprintf "Transfer.cuckoo_snapshot_of_entries: missing geom:%s" k)
  in
  let fp_bits = geom "fp_bits" in
  let mask = (1 lsl fp_bits) - 1 in
  let packed =
    List.filter_map
      (fun (k, v) -> Option.map (fun i -> (i, int_of_float v)) (key_index "fp" k))
      entries
  in
  let ordered = List.sort (fun (a, _) (b, _) -> compare a b) packed in
  {
    Ff_dataplane.Cuckoo.ck_buckets = geom "buckets";
    ck_slots = geom "slots";
    ck_fp_bits = fp_bits;
    ck_seed = geom "seed";
    ck_entries = List.map (fun (_, p) -> (p lsr fp_bits, p land mask)) ordered;
  }

let send_cuckoo net ~src_sw ~dst_sw ~cuckoo ~into ~seed ~max_retries ~on_complete =
  let entries = cuckoo_wire_entries (Ff_dataplane.Cuckoo.serialize cuckoo) in
  send net ~src_sw ~dst_sw ~entries ~seed ~max_retries
    ~on_complete:(fun entries ->
      Ff_dataplane.Cuckoo.absorb into (cuckoo_snapshot_of_entries entries);
      on_complete ())
    ()

let chunks_sent t = t.chunks_sent
let retransmitted_groups t = t.retransmitted_groups
let fec_recoveries t = t.fec_recoveries
let reroutes t = t.reroutes
let complete t = t.complete
let failed t = t.failed
let failure_reason t = t.failed_reason
