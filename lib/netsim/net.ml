module Topology = Ff_topology.Topology
module Packet = Ff_dataplane.Packet

type decision =
  | Continue
  | Forward of int
  | Drop of string
  | Absorb

type switch = {
  sw_id : int;
  mutable stages : stage list;
  routes : int array; (* indexed by destination node id; -1 = no entry *)
  backup_routes : int array;
  mutable backup_count : int;
      (* live backup entries — keeps the no-backups case a single int
         test, as the Hashtbl.length = 0 check used to *)
  pair_routes : Ff_util.Int_table.t; (* keyed src * num_nodes + dst *)
  mutable up : bool;
  mutable flags : int;
      (* interned boolean switch state, one bit per [flag_mask] name *)
  mutable sctx : ctx option;
      (* the switch's reusable pipeline context (internal) *)
}

and ctx = { net : t; sw : switch; mutable in_port : int }

and stage = { stage_name : string; process : ctx -> Packet.t -> decision }

and host = {
  host_id : int;
  receivers : (int, Packet.t -> unit) Hashtbl.t;
  mutable fallback_rx : (Packet.t -> unit) option;
}

and dirlink = {
  link : Topology.link;
  from_node : int;
  to_node : int;
  mutable dl_index : int;
      (* position in [t.dirlinks] — the dense directed-link key the fluid
         solver's flat scratch arrays are indexed by *)
  mutable link_up : bool;
  busy : busy; (* single-float record: flat layout, unboxed writes *)
  tx_window : Ff_util.Stats.Window_counter.t;
  mutable drops : int;
  mutable tx_packets : int;
  mutable fluid_bps : float;
      (* analytic background load from the fluid tier, bits/s; 0. when no
         fluid population touches the link — and the packet hot path must
         then take exactly the pre-fluid arithmetic (bit-identity) *)
  (* registry handle resolved once per metrics attachment, not per packet *)
  mutable tx_bytes_ctr : Ff_obs.Metrics.Counter.t option;
}

and busy = { mutable busy_until : float }

and node_entry = Sw of switch | Ho of host

and t = {
  engine : Engine.t;
  topo : Topology.t;
  nodes : node_entry array;
  adj : dirlink array array;
      (* outgoing directed links indexed by source node, in
         [Topology.neighbors] order — the per-packet lookup structure *)
  dirlinks : dirlink array;
      (* the same links flattened in node-major order; [dl_index] points
         back here, giving O(1) by-index access for the fluid solver *)
  mutable drop_hook : (int -> unit) option;
      (* called with the directed-link index on every queue-overflow drop;
         the fluid tier uses it to dirty links for loss-coupled AIMD *)
  stage_cache : stage array array;
      (* per node id; rebuilt by add_stage/remove_stage so the per-packet
         pipeline walk reads an array, not cons cells *)
  drop_ctrs : Ff_obs.Metrics.Counter.t option array; (* per node id *)
  sw_peers : int list array;
      (* switch neighbors per node id, [Topology.neighbors] order — probe
         floods walk this list on every improved probe, so it is built once
         instead of filtered out of the topology per flood *)
  drop_reasons : (string, int ref) Hashtbl.t;
  mutable tracer : (trace_event -> unit) option;
  mutable obs : Ff_obs.Trace.t option;
  mutable metrics : Ff_obs.Metrics.t option;
  mutable xshard : xshard option;
      (* when this net is one shard of a partitioned simulation, arrivals
         at nodes the shard does not own are diverted to [post] instead of
         the local engine *)
  forwards : decision array;
      (* [Forward i] for every node id [i], built once: a stage that
         redirects a packet returns one of these instead of allocating *)
  flow_ids : int Atomic.t;
      (* per-net flow-id allocator. Process-wide allocation would make a
         net's flow ids — and therefore every hash keyed on them
         (HashPipe slots, Bloom bits, meter tables) — depend on how many
         flows *earlier* simulations in the same process created,
         breaking run-to-run determinism. Atomic because flows may be
         started while shard domains run. *)
  mutable exts : ext list; (* per-net state of the subsystems above *)
}

and ext = ..

and xshard = {
  owned : Bytes.t;
      (* owned.[node] <> '\000' iff this net's shard owns the node; dense
         byte vector so the per-hop test is one unsafe load *)
  outbox : Mailbox.t array;
      (* per node id: the mailbox toward the shard that owns the node *)
}

and trace_event = {
  time : float;
  node : int;
  uid : int;
  flow : int;
  kind : trace_kind;
}

and trace_kind =
  | Switch_arrival
  | Host_delivery
  | Packet_drop of string

let engine t = t.engine
let fresh_flow_id t = 1 + Atomic.fetch_and_add t.flow_ids 1
let find_ext t f = List.find_map f t.exts
let add_ext t e = t.exts <- e :: t.exts
let topology t = t.topo
let now t = Engine.now t.engine

let forward t next =
  if next >= 0 && next < Array.length t.forwards then Array.unsafe_get t.forwards next
  else Forward next

(* ---------------- interned switch flags ---------------- *)

(* Boolean switch state read on the per-packet path (mode gates, mostly)
   would pay a string hash per stage per hop if kept in a table. Flag names
   are interned process-wide into one-hot masks; the per-switch state is a
   single int, so the hot-path test is one [land]. *)
let flag_ids : (string, int) Hashtbl.t = Hashtbl.create 16

(* the intern table is process-wide state touched from every shard domain
   at install time; a Hashtbl resize racing a lookup corrupts it *)
let flag_ids_lock = Mutex.create ()

let flag_mask name =
  Mutex.protect flag_ids_lock (fun () ->
      match Hashtbl.find_opt flag_ids name with
      | Some m -> m
      | None ->
        let i = Hashtbl.length flag_ids in
        if i >= Sys.int_size - 1 then
          invalid_arg "Net.flag_mask: flag space exhausted";
        let m = 1 lsl i in
        Hashtbl.replace flag_ids name m;
        m)

let set_flag (sw : switch) ~mask on =
  sw.flags <- (if on then sw.flags lor mask else sw.flags land lnot mask)

let flag_on (sw : switch) ~mask = sw.flags land mask <> 0

(* ---------------- observability ---------------- *)

let attach_obs t tr = t.obs <- tr

let attach_metrics t m =
  t.metrics <- m;
  (* the cached handles point into the old registry: drop them *)
  Array.fill t.drop_ctrs 0 (Array.length t.drop_ctrs) None;
  Array.iter (fun links -> Array.iter (fun dl -> dl.tx_bytes_ctr <- None) links) t.adj

let metrics t = t.metrics

let obs_emit t event =
  match t.obs with
  | None -> ()
  | Some tr -> Ff_obs.Trace.emit tr ~time:(Engine.now t.engine) event

(* Hot-path callers check this before constructing an event value, so an
   unattached trace costs nothing — not even the event record. *)
let obs_active t = t.obs <> None

let switch t id =
  match t.nodes.(id) with
  | Sw s -> s
  | Ho _ -> invalid_arg (Printf.sprintf "Net.switch: node %d is a host" id)

let host t id =
  match t.nodes.(id) with
  | Ho h -> h
  | Sw _ -> invalid_arg (Printf.sprintf "Net.host: node %d is a switch" id)

let switch_ids t =
  Array.to_list t.nodes
  |> List.filter_map (function Sw s -> Some s.sw_id | Ho _ -> None)

let host_ids t =
  Array.to_list t.nodes
  |> List.filter_map (function Ho h -> Some h.host_id | Sw _ -> None)

(* one hash of [reason] per drop: the counter is bumped in place and only
   a reason's first drop inserts *)
let count_drop t reason =
  match Hashtbl.find t.drop_reasons reason with
  | n -> incr n
  | exception Not_found -> Hashtbl.add t.drop_reasons reason (ref 1)

let emit_trace t ~node ~(pkt : Packet.t) kind =
  match t.tracer with
  | None -> ()
  | Some f ->
    f { time = Engine.now t.engine; node; uid = pkt.Packet.uid; flow = pkt.Packet.flow; kind }

let drop_packet t ~node (pkt : Packet.t) reason =
  count_drop t reason;
  (* the [Packet_drop] argument itself allocates: build it only when traced *)
  (match t.tracer with None -> () | Some _ -> emit_trace t ~node ~pkt (Packet_drop reason));
  if obs_active t then obs_emit t (Ff_obs.Event.Drop { node; reason });
  match t.metrics with
  | None -> ()
  | Some m ->
    (* [node] can be a spoofed (out-of-range) source id on an access-link
       drop; such drops stay visible in drop_reasons and the trace *)
    if node >= 0 && node < Array.length t.drop_ctrs then begin
      let ctr =
        match t.drop_ctrs.(node) with
        | Some c -> c
        | None ->
          let c = Ff_obs.Metrics.counter m ~scope:(Ff_obs.Metrics.Switch node) "drops" in
          t.drop_ctrs.(node) <- Some c;
          c
      in
      Ff_obs.Metrics.Counter.incr ctr
    end

let drops_by_reason t =
  Hashtbl.fold (fun k v acc -> (k, !v) :: acc) t.drop_reasons []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let dirlink_opt t ~from_ ~to_ =
  if from_ < 0 || from_ >= Array.length t.adj then None
  else begin
    let links = t.adj.(from_) in
    let n = Array.length links in
    let rec go i =
      if i >= n then None
      else
        let dl = links.(i) in
        if dl.to_node = to_ then Some dl else go (i + 1)
    in
    go 0
  end

(* Open-coded [dirlink_opt]: this runs once per probe arrival (congestion-
   aware rerouting folds in the reverse link's utilization), where the
   [Some dl] wrapper would be a per-probe allocation. A plain loop and an
   open-coded [Float.min] keep it small enough to inline, so neither a
   [rec go] closure nor a boxed result is allocated per call. *)
let utilization t ~from_ ~to_ =
  if from_ < 0 || from_ >= Array.length t.adj then 0.
  else begin
    let links = t.adj.(from_) in
    let n = Array.length links in
    let i = ref 0 in
    while !i < n && (Array.unsafe_get links !i).to_node <> to_ do
      incr i
    done;
    if !i >= n then 0.
    else begin
      let dl = Array.unsafe_get links !i in
      let rate = Ff_util.Stats.Window_counter.rate dl.tx_window ~now:(now t) in
      (* fluid background load counts toward utilization — detectors see
         a fluid-tier flood exactly like a packet-tier one. [+. 0.] when
         no fluid load, which is bit-identical to the pre-fluid value. *)
      let u = ((rate *. 8.) +. dl.fluid_bps) /. dl.link.Topology.capacity in
      (* [Float.min 1. u], NaN and -0. included *)
      if u >= 1. then 1. else u
    end
  end

let link_drops t ~from_ ~to_ =
  match dirlink_opt t ~from_ ~to_ with None -> 0 | Some dl -> dl.drops

let link_tx_packets t ~from_ ~to_ =
  match dirlink_opt t ~from_ ~to_ with None -> 0 | Some dl -> dl.tx_packets

let fluid_load t ~from_ ~to_ =
  match dirlink_opt t ~from_ ~to_ with Some dl -> dl.fluid_bps | None -> 0.

let link_delay t ~from_ ~to_ =
  match dirlink_opt t ~from_ ~to_ with Some dl -> dl.link.Topology.delay | None -> 0.

(* ---------------- dense directed-link indexing ---------------- *)

let n_dirlinks t = Array.length t.dirlinks

let link_index t ~from_ ~to_ =
  match dirlink_opt t ~from_ ~to_ with Some dl -> dl.dl_index | None -> -1

let check_dirlink t what i =
  if i < 0 || i >= Array.length t.dirlinks then
    invalid_arg (Printf.sprintf "Net.%s: directed-link index %d out of range" what i)

let link_ends_i t i =
  check_dirlink t "link_ends_i" i;
  let dl = t.dirlinks.(i) in
  (dl.from_node, dl.to_node)

let link_capacity_i t i =
  check_dirlink t "link_capacity_i" i;
  t.dirlinks.(i).link.Topology.capacity

let link_packet_bps_i t i =
  check_dirlink t "link_packet_bps_i" i;
  Ff_util.Stats.Window_counter.rate t.dirlinks.(i).tx_window ~now:(now t) *. 8.

let set_fluid_load_i t i bps =
  check_dirlink t "set_fluid_load_i" i;
  t.dirlinks.(i).fluid_bps <- (if bps > 0. then bps else 0.)

let set_drop_hook t hook = t.drop_hook <- hook

let total_tx_packets t =
  Array.fold_left
    (fun acc links -> Array.fold_left (fun acc dl -> acc + dl.tx_packets) acc links)
    0 t.adj

let neighbors_of t sw_id = t.sw_peers.(sw_id)

let attached_hosts t ~sw =
  Topology.neighbors t.topo sw
  |> List.filter_map (fun (peer, _) ->
         match t.nodes.(peer) with Ho _ -> Some peer | Sw _ -> None)

let access_switch t ~host:h =
  match Topology.neighbors t.topo h with
  | [ (peer, _) ] -> peer
  | (peer, _) :: _ -> peer
  | [] -> invalid_arg "Net.access_switch: isolated host"

(* ---------------- transmission ---------------- *)

(* drop-tail queue per link direction, bytes: 30 ms at 10 Mb/s *)
let queue_limit_bytes = 37_500.

(* No legitimate host speaks the defense's control protocol: a mode, util
   or sync probe or a state-transfer packet arriving on a host port is
   forged, and one forged mode clear with a huge epoch would make every
   later genuine alarm stale. Traceroute and handshake payloads pass. *)
let host_control t ~from_ (pkt : Packet.t) =
  match pkt.payload with
  | Packet.Mode_probe _ | Packet.Util_probe _ | Packet.Sync_probe _ | Packet.State_chunk _
  | Packet.State_ack _ ->
    (match t.nodes.(from_) with Ho _ -> true | Sw _ -> false)
  | _ -> false

let rec transmit t dl (pkt : Packet.t) =
  let tnow = now t in
  let cap =
    (* capacity left for the packet tier once the fluid background load is
       subtracted, floored at 1% so a fluid-saturated link still drains (and
       overflows) rather than dividing by zero. The [> 0.] guard keeps the
       no-fluid arithmetic bit-identical to the pre-fluid engine: the else
       branch binds the raw capacity with no float ops applied. *)
    let c = dl.link.Topology.capacity in
    let f = dl.fluid_bps in
    if f > 0. then begin
      let avail = c -. f in
      let floor_ = 0.01 *. c in
      if avail > floor_ then avail else floor_
    end
    else c
  in
  (* open-coded max: [Float.max] is a cross-module call on the per-hop
     path, and its NaN handling is irrelevant for simulation clocks *)
  let waiting = dl.busy.busy_until -. tnow in
  let backlog_bytes = (if waiting > 0. then waiting else 0.) *. cap /. 8. in
  let size = float_of_int pkt.size in
  if not dl.link_up then drop_packet t ~node:dl.from_node pkt "link-down"
  else if backlog_bytes +. size > queue_limit_bytes then begin
    dl.drops <- dl.drops + 1;
    (match t.drop_hook with None -> () | Some f -> f dl.dl_index);
    drop_packet t ~node:dl.from_node pkt "queue-overflow"
  end
  else begin
    let start = if tnow > dl.busy.busy_until then tnow else dl.busy.busy_until in
    let tx_time = size *. 8. /. cap in
    dl.busy.busy_until <- start +. tx_time;
    dl.tx_packets <- dl.tx_packets + 1;
    Ff_util.Stats.Window_counter.add dl.tx_window ~now:tnow size;
    (match t.metrics with
    | None -> ()
    | Some m ->
      let ctr =
        match dl.tx_bytes_ctr with
        | Some c -> c
        | None ->
          let c =
            Ff_obs.Metrics.counter m
              ~scope:(Ff_obs.Metrics.Link (dl.from_node, dl.to_node))
              "tx_bytes"
          in
          dl.tx_bytes_ctr <- Some c;
          c
      in
      Ff_obs.Metrics.Counter.add ctr size);
    let arrival = dl.busy.busy_until +. dl.link.Topology.delay in
    match t.xshard with
    | None ->
      (* packet lane: the arrival is four unboxed heap columns, no closure *)
      Engine.schedule_packet t.engine ~at:arrival ~to_node:dl.to_node
        ~from_node:dl.from_node pkt
    | Some x ->
      if Bytes.unsafe_get x.owned dl.to_node <> '\000' then
        Engine.schedule_packet t.engine ~at:arrival ~to_node:dl.to_node
          ~from_node:dl.from_node pkt
      else
        (* conservative lookahead guarantees [arrival >= receiver's
           horizon]: the hop crosses a region boundary, whose link delay
           bounds the lookahead from below. [push] inlines, so the
           arrival time reaches the mailbox's float column unboxed. *)
        Mailbox.push (Array.unsafe_get x.outbox dl.to_node) ~at:arrival ~to_node:dl.to_node
          ~from_node:dl.from_node pkt
  end

and receive t ~at ~from_ pkt =
  match t.nodes.(at) with
  | Ho h ->
    (* A host answers traceroute probes that reach it (the "destination
       reached" reply); everything else goes to the registered receiver. *)
    (match pkt.Packet.payload with
    | Packet.Traceroute_probe { probe_id; probe_ttl; _ } ->
      let reply =
        Packet.make_control ~src:h.host_id ~dst:pkt.Packet.src ~flow:pkt.Packet.flow
          ~payload:(Packet.Traceroute_reply { probe_id; hop = probe_ttl; responder = h.host_id })
      in
      send_from_host t reply
    | _ ->
      emit_trace t ~node:at ~pkt Host_delivery;
      deliver_host h pkt)
  | Sw sw ->
    if sw.up then begin
      emit_trace t ~node:at ~pkt Switch_arrival;
      if host_control t ~from_ pkt then drop_packet t ~node:at pkt "host-control"
      else handle_at_switch t sw ~in_port:from_ pkt
    end
    else drop_packet t ~node:at pkt "switch-down"

and deliver_host h (pkt : Packet.t) =
  match Hashtbl.find h.receivers pkt.flow with
  | f -> f pkt
  | exception Not_found -> (match h.fallback_rx with Some f -> f pkt | None -> ())

and send_from_host t (pkt : Packet.t) = send_on_access_link t ~host:pkt.Packet.src pkt

and send_on_access_link t ~host pkt =
  (* the access link is the host's first adjacency (Topology.neighbors
     order), matching access_switch; a spoofed source id may be out of
     range entirely *)
  if host >= 0 && host < Array.length t.adj && Array.length t.adj.(host) > 0 then
    transmit t t.adj.(host).(0) pkt
  else drop_packet t ~node:host pkt "no-access-link"

and send_toward t sw next pkt =
  (* plain loop: a local [rec go] closure here cost a block per hop *)
  let links = t.adj.(sw.sw_id) in
  let n = Array.length links in
  let i = ref 0 in
  let found = ref false in
  while (not !found) && !i < n do
    let dl = Array.unsafe_get links !i in
    if dl.to_node = next then begin
      found := true;
      transmit t dl pkt
    end
    else incr i
  done;
  if not !found then drop_packet t ~node:sw.sw_id pkt "no-link"

(* fast reroute: skip a next hop that is a downed switch. 0 = entry whose
   next hop is down, 1 = sent. A top-level joint function rather than a
   local closure — this runs once per hop and a closure capturing
   [t]/[sw]/[pkt] would be a fresh heap block each time. *)
and forward_via t sw pkt next =
  match t.nodes.(next) with
  | Sw s when not s.up -> 0
  | _ ->
    send_toward t sw next pkt;
    1

and default_forward t sw (pkt : Packet.t) =
  (* pair, then primary, then backup — three dense probes, no hashing.
     -1 = no entry; spoofed packets can carry out-of-range src/dst ids,
     which the old Hashtbl keys absorbed silently, so range checks stand
     in for "not found". *)
  let n = Array.length t.nodes in
  let src = pkt.src and dst = pkt.dst in
  let dst_ok = dst >= 0 && dst < n in
  let pair =
    if Ff_util.Int_table.length sw.pair_routes = 0 then -1
    else if (not dst_ok) || src < 0 || src >= n then -1
    else
      let next = Ff_util.Int_table.get sw.pair_routes ((src * n) + dst) ~default:(-1) in
      if next < 0 then -1 else forward_via t sw pkt next
  in
  if pair <> 1 then begin
    let primary =
      if not dst_ok then -1
      else
        let next = Array.unsafe_get sw.routes dst in
        if next < 0 then -1 else forward_via t sw pkt next
    in
    if primary <> 1 then begin
      let backup =
        if sw.backup_count = 0 || not dst_ok then -1
        else
          let next = Array.unsafe_get sw.backup_routes dst in
          if next < 0 then -1 else forward_via t sw pkt next
      in
      if backup <> 1 then
        drop_packet t ~node:sw.sw_id pkt
          (if pair = -1 && primary = -1 && backup = -1 then "no-route" else "next-hop-down")
    end
  end

and switch_ctx t sw =
  match sw.sctx with
  | Some c -> c
  | None ->
    let c = { net = t; sw; in_port = -1 } in
    sw.sctx <- Some c;
    c

and handle_at_switch t sw ~in_port pkt =
  run_stages t sw (switch_ctx t sw) t.stage_cache.(sw.sw_id) ~in_port pkt 0

(* The stage loop is a top-level joint function: written as a local [rec
   run] closure inside [handle_at_switch] it captured the whole pipeline
   state — a fresh ~10-word block on every switch arrival. *)
and run_stages t sw ctx stages ~in_port pkt i =
  if i >= Array.length stages then default_forward t sw pkt
  else begin
    (* a stage can re-enter this switch's pipeline (ttl_stage routes its
       ICMP reply through handle_at_switch), clobbering the shared ctx —
       restore in_port before every stage call *)
    ctx.in_port <- in_port;
    match (Array.unsafe_get stages i).process ctx pkt with
    | Continue -> run_stages t sw ctx stages ~in_port pkt (i + 1)
    | Forward next -> send_toward t sw next pkt
    | Drop reason -> drop_packet t ~node:sw.sw_id pkt reason
    | Absorb -> ()
  end

(* The default first stage: TTL decrement and traceroute expiry. *)
let ttl_stage =
  {
    stage_name = "ttl";
    process =
      (fun ctx pkt ->
        pkt.Packet.ttl <- pkt.Packet.ttl - 1;
        if pkt.Packet.ttl > 0 then Continue
        else begin
          (match pkt.Packet.payload with
          | Packet.Traceroute_probe { probe_id; probe_ttl; responder } ->
            (* ICMP time-exceeded back to the prober, naming this switch
               unless topology obfuscation set the probe's [responder] *)
            let responder = if responder >= 0 then responder else ctx.sw.sw_id in
            let reply =
              Packet.make_control ~src:pkt.Packet.dst ~dst:pkt.Packet.src ~flow:pkt.Packet.flow
                ~payload:(Packet.Traceroute_reply { probe_id; hop = probe_ttl; responder })
            in
            handle_at_switch ctx.net ctx.sw ~in_port:(-1) reply
          | _ -> ());
          Drop "ttl-expired"
        end);
  }

let create engine topo =
  let num_nodes = Topology.num_nodes topo in
  let nodes =
    Array.init num_nodes (fun id ->
        match (Topology.node topo id).Topology.kind with
        | Topology.Switch ->
          Sw
            {
              sw_id = id;
              stages = [ ttl_stage ];
              routes = Array.make num_nodes (-1);
              backup_routes = Array.make num_nodes (-1);
              backup_count = 0;
              pair_routes = Ff_util.Int_table.create ~capacity:32 ();
              up = true;
              flags = 0;
              sctx = None;
            }
        | Topology.Host ->
          Ho { host_id = id; receivers = Hashtbl.create 16; fallback_rx = None })
  in
  let adj =
    Array.init num_nodes (fun id ->
        Topology.neighbors topo id
        |> List.map (fun (peer, (l : Topology.link)) ->
               {
                 link = l;
                 from_node = id;
                 to_node = peer;
                 dl_index = -1;
                 link_up = true;
                 busy = { busy_until = 0. };
                 tx_window = Ff_util.Stats.Window_counter.create ~width:0.2;
                 drops = 0;
                 tx_packets = 0;
                 fluid_bps = 0.;
                 tx_bytes_ctr = None;
               })
        |> Array.of_list)
  in
  let stage_cache =
    Array.map (function Sw s -> Array.of_list s.stages | Ho _ -> [||]) nodes
  in
  let dirlinks =
    let all = Array.concat (Array.to_list adj) in
    Array.iteri (fun i dl -> dl.dl_index <- i) all;
    all
  in
  let t =
    {
      engine;
      topo;
      nodes;
      adj;
      dirlinks;
      drop_hook = None;
      stage_cache;
      drop_ctrs = Array.make num_nodes None;
      sw_peers =
        Array.init num_nodes (fun id ->
            Topology.neighbors topo id
            |> List.filter_map (fun (peer, _) ->
                   match nodes.(peer) with Sw _ -> Some peer | Ho _ -> None));
      drop_reasons = Hashtbl.create 16;
      tracer = None;
      (* new networks report into whatever ambient sinks the harness set up *)
      obs = Ff_obs.Trace.ambient ();
      metrics = Ff_obs.Metrics.ambient ();
      xshard = None;
      forwards = Array.init num_nodes (fun i -> Forward i);
      flow_ids = Atomic.make 0;
      exts = [];
    }
  in
  (* hosts are directly reachable from their access switch *)
  Array.iter
    (function
      | Ho h ->
        let sw_id = access_switch t ~host:h.host_id in
        (match t.nodes.(sw_id) with
        | Sw sw -> sw.routes.(h.host_id) <- h.host_id
        | Ho _ -> ())
      | Sw _ -> ())
    nodes;
  (* this net owns the engine's packet lane (the repo runs one net per
     engine; a second create on the same engine would steal the lane) *)
  Engine.set_packet_handler engine (fun ~to_node ~from_node pkt ->
      receive t ~at:to_node ~from_:from_node pkt);
  t

(* ---------------- stage management ---------------- *)

let refresh_stage_cache t (s : switch) = t.stage_cache.(s.sw_id) <- Array.of_list s.stages

let add_stage ?(front = false) t ~sw stage =
  let s = switch t sw in
  let others = List.filter (fun st -> st.stage_name <> stage.stage_name) s.stages in
  s.stages <- (if front then stage :: others else others @ [ stage ]);
  refresh_stage_cache t s

let remove_stage t ~sw ~name =
  let s = switch t sw in
  s.stages <- List.filter (fun st -> st.stage_name <> name) s.stages;
  refresh_stage_cache t s

let has_stage t ~sw ~name =
  List.exists (fun st -> st.stage_name = name) (switch t sw).stages

(* ---------------- routing ---------------- *)

let check_node t what id =
  if id < 0 || id >= Array.length t.nodes then
    invalid_arg (Printf.sprintf "Net.%s: node %d out of range" what id)

let set_route t ~sw ~dst ~next_hop =
  check_node t "set_route" dst;
  (switch t sw).routes.(dst) <- next_hop

let pair_key t ~src ~dst = (src * Array.length t.nodes) + dst

let set_pair_route t ~sw ~src ~dst ~next_hop =
  check_node t "set_pair_route" src;
  check_node t "set_pair_route" dst;
  Ff_util.Int_table.set (switch t sw).pair_routes (pair_key t ~src ~dst) next_hop

let set_backup_route t ~sw ~dst ~next_hop =
  check_node t "set_backup_route" dst;
  let s = switch t sw in
  let prev = s.backup_routes.(dst) in
  if prev < 0 && next_hop >= 0 then s.backup_count <- s.backup_count + 1
  else if prev >= 0 && next_hop < 0 then s.backup_count <- s.backup_count - 1;
  s.backup_routes.(dst) <- next_hop

let dense_lookup routes dst =
  if dst < 0 || dst >= Array.length routes then None
  else
    let next = routes.(dst) in
    if next < 0 then None else Some next

let route_lookup t ~sw ~dst = dense_lookup (switch t sw).routes dst
let backup_route_lookup t ~sw ~dst = dense_lookup (switch t sw).backup_routes dst

let pair_route_lookup t ~sw ~src ~dst =
  let n = Array.length t.nodes in
  if src < 0 || src >= n || dst < 0 || dst >= n then None
  else
    let next =
      Ff_util.Int_table.get (switch t sw).pair_routes (pair_key t ~src ~dst) ~default:(-1)
    in
    if next < 0 then None else Some next

let route_entries t ~sw =
  let s = switch t sw in
  let acc = ref [] in
  for dst = Array.length s.routes - 1 downto 0 do
    if s.routes.(dst) >= 0 then acc := (dst, s.routes.(dst)) :: !acc
  done;
  !acc

let pair_route_entries t ~sw =
  let n = Array.length t.nodes in
  Ff_util.Int_table.fold
    (fun key next acc -> ((key / n, key mod n), next) :: acc)
    (switch t sw).pair_routes []

let clear_routes t ~sw =
  let s = switch t sw in
  Array.fill s.routes 0 (Array.length s.routes) (-1);
  Ff_util.Int_table.clear s.pair_routes;
  (* restore direct host attachment entries *)
  List.iter (fun h -> s.routes.(h) <- h) (attached_hosts t ~sw)

let iter_path_switches t path ~f =
  let rec go = function
    | [] | [ _ ] -> ()
    | a :: (b :: _ as rest) ->
      (match t.nodes.(a) with Sw _ -> f a b | Ho _ -> ());
      go rest
  in
  go path

let install_path t ~dst path =
  iter_path_switches t path ~f:(fun a b -> set_route t ~sw:a ~dst ~next_hop:b)

(* One Dijkstra per source host, installed in the per-pair order
   (destination outer, source inner): hosts never transit, so a source's
   tree holds its shortest path to every host. *)
let install_shortest_paths t =
  let hosts = Array.of_list (Topology.hosts t.topo) in
  let trees =
    Array.map (fun (src : Topology.node) -> Topology.shortest_paths_from t.topo ~src:src.id) hosts
  in
  Array.iter
    (fun (dst : Topology.node) ->
      Array.iteri
        (fun i (src : Topology.node) ->
          if src.id <> dst.id then
            match trees.(i) dst.id with Some p -> install_path t ~dst:dst.id p | None -> ())
        hosts)
    hosts

let install_pair_path t ~src ~dst path =
  iter_path_switches t path ~f:(fun a b -> set_pair_route t ~sw:a ~src ~dst ~next_hop:b)

let rec visited buf k v i = i < k && (buf.(i) = v || visited buf k v (i + 1))

let path_buffer t = Array.make (Array.length t.nodes + 2) 0

(* One step of the table walk behind [current_path]: [k] nodes are in
   [buf], one per hop taken, and the walk stands at [node]. Top-level, so
   that a walk builds no closure. *)
let rec walk_path t ~src ~dst buf k node =
  let n = Array.length t.nodes in
  if k > n + 1 then 0
  else if node = dst then begin
    buf.(k) <- node;
    k + 1
  end
  else
    match t.nodes.(node) with
    | Ho _ when node <> src -> 0
    | Ho _ ->
      let links = t.adj.(node) in
      if Array.length links = 0 then 0
      else begin
        buf.(k) <- node;
        walk_path t ~src ~dst buf (k + 1) links.(0).to_node
      end
    | Sw sw ->
      let dst_ok = dst >= 0 && dst < n in
      let pair =
        if Ff_util.Int_table.length sw.pair_routes = 0 || not dst_ok then -1
        else Ff_util.Int_table.get sw.pair_routes (pair_key t ~src ~dst) ~default:(-1)
      in
      let next = if pair >= 0 then pair else if dst_ok then sw.routes.(dst) else -1 in
      (* a next hop already walked is a loop *)
      if next < 0 || visited buf k next 0 then 0
      else begin
        buf.(k) <- node;
        walk_path t ~src ~dst buf (k + 1) next
      end

(* The count of nodes written, 0 on a loop, a missing entry or a host in
   the middle. *)
let path_into t ~src ~dst buf =
  if Array.length buf < Array.length t.nodes + 2 then
    invalid_arg "Net.path_into: buffer shorter than path_buffer";
  check_node t "path_into" src;
  walk_path t ~src ~dst buf 0 src

let current_path t ~src ~dst =
  let buf = path_buffer t in
  let k = path_into t ~src ~dst buf in
  if k = 0 then None
  else begin
    let p = ref [] in
    for i = k - 1 downto 0 do
      p := buf.(i) :: !p
    done;
    Some !p
  end

(* ---------------- traffic entry points ---------------- *)

let send_from_host = send_from_host

let send_from_host_via t ~via pkt = send_on_access_link t ~host:via pkt

let emit_from_switch t ~sw ~next pkt = send_toward t (switch t sw) next pkt

let inject_at_switch t ~sw pkt = handle_at_switch t (switch t sw) ~in_port:(-1) pkt

let flood_from_switch t ~sw ~except fresh =
  List.iter
    (fun peer -> if not (List.mem peer except) then emit_from_switch t ~sw ~next:peer (fresh ()))
    (neighbors_of t sw)

let set_switch_up t ~sw up = (switch t sw).up <- up

let set_link_up t ~a ~b up =
  match (dirlink_opt t ~from_:a ~to_:b, dirlink_opt t ~from_:b ~to_:a) with
  | Some d1, Some d2 ->
    d1.link_up <- up;
    d2.link_up <- up
  | _ -> invalid_arg "Net.set_link_up: nodes not adjacent"

let link_is_up t ~a ~b =
  match dirlink_opt t ~from_:a ~to_:b with
  | Some d -> d.link_up
  | None -> invalid_arg "Net.link_is_up: nodes not adjacent"

let switch_is_up t ~sw = (switch t sw).up

(* BFS over the live graph only: down switches and down links are treated
   as absent, and hosts never transit (only terminate). Control channels
   (state transfer, mode repair) use this to recompute paths mid-failure —
   the static [Topology.shortest_path] cannot see the failure model. *)
let live_shortest_path t ~src ~dst =
  let n = Array.length t.nodes in
  if src < 0 || src >= n || dst < 0 || dst >= n then None
  else begin
    let node_up id = match t.nodes.(id) with Sw s -> s.up | Ho _ -> true in
    if not (node_up src && node_up dst) then None
    else if src = dst then Some [ src ]
    else begin
      let prev = Array.make n (-2) in
      (* -2 = unvisited, -1 = BFS root *)
      prev.(src) <- -1;
      let q = Queue.create () in
      Queue.add src q;
      let found = ref false in
      while (not !found) && not (Queue.is_empty q) do
        let u = Queue.pop q in
        Array.iter
          (fun dl ->
            let v = dl.to_node in
            if prev.(v) = -2 && dl.link_up then
              if v = dst then begin
                prev.(v) <- u;
                found := true
              end
              else begin
                match t.nodes.(v) with
                | Sw s when s.up ->
                  prev.(v) <- u;
                  Queue.add v q
                | Sw _ | Ho _ -> ()
              end)
          t.adj.(u)
      done;
      if not !found then None
      else begin
        let rec build acc v = if v = src then src :: acc else build (v :: acc) prev.(v) in
        Some (build [] dst)
      end
    end
  end

(* ---------------- sharding ---------------- *)

let set_shard_hook t ~owned ~outbox =
  if Bytes.length owned <> Array.length t.nodes || Array.length outbox <> Array.length t.nodes
  then invalid_arg "Net.set_shard_hook: ownership or outbox length <> node count";
  t.xshard <- Some { owned; outbox }

let owns t node =
  match t.xshard with
  | None -> true
  | Some x -> node >= 0 && node < Bytes.length x.owned && Bytes.get x.owned node <> '\000'

let set_tracer t f = t.tracer <- f

let trace_flow t ~flow =
  let events = ref [] in
  set_tracer t
    (Some (fun ev -> if ev.flow = flow then events := ev :: !events));
  events
