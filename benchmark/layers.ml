(* Per-layer instruments for the traced run: a sampling wrapper around
   every switch stage, GC phase totals from Runtime_events, and component
   micro-timings. All of them reach the simulator from outside, through
   Net's public stage list and the libraries' public functions. *)

module Net = Ff_netsim.Net

(* ---------------- stage wrapper ---------------- *)

(* One accumulator per stage name. Integer fields only: a mutable float
   field in a mixed record would box on every store. *)
type acc = {
  a_id : int;
  mutable calls : int;
  mutable drops : int;
  mutable sampled : int;
  mutable self_ns : int;  (** summed over sampled calls *)
  mutable self_words : int;  (** minor words, summed over sampled calls *)
}

let span_capacity = 4096

(* One tracer per net: a sharded run gives each domain its own, so the
   wrapper's counters are never shared between domains. *)
type tracer = {
  accs : (string, acc) Hashtbl.t;
  mask : int;  (** call [c] of a stage is timed when [c land mask = 0] *)
  mutable depth : int;  (** timed wrapper calls in progress *)
  mutable child_ns : int;  (** time of timed calls nested in the current one *)
  mutable child_words : int;
  sp_stage : int array;  (** a thinned subset of sampled calls, kept as spans *)
  sp_start : int array;
  sp_dur : int array;
  mutable sp_len : int;
}

(* [sample_every] must be a power of two. *)
let create_tracer ?(sample_every = 16) () =
  {
    accs = Hashtbl.create 16;
    mask = sample_every - 1;
    depth = 0;
    child_ns = 0;
    child_words = 0;
    sp_stage = Array.make span_capacity 0;
    sp_start = Array.make span_capacity 0;
    sp_dur = Array.make span_capacity 0;
    sp_len = 0;
  }

(* Numbered instances (view-sync-<class>, nw-hh-counter-<id>) count as one
   stage. *)
let fold_name name =
  let n = String.length name in
  let i = ref n in
  while !i > 0 && name.[!i - 1] >= '0' && name.[!i - 1] <= '9' do decr i done;
  if !i < n && !i > 1 && name.[!i - 1] = '-' then String.sub name 0 (!i - 1) else name

let acc_for tr name =
  match Hashtbl.find_opt tr.accs name with
  | Some a -> a
  | None ->
    let a =
      { a_id = Hashtbl.length tr.accs; calls = 0; drops = 0; sampled = 0; self_ns = 0;
        self_words = 0 }
    in
    Hashtbl.replace tr.accs name a;
    a

let[@inline] minor_words () = int_of_float (Gc.minor_words ())

(* The wrapper allocates nothing per call. Unsampled calls cost a counter
   bump and a branch. A sampled call reads the clock and the minor-word
   counter around the inner stage and charges the stage its self time:
   a stage can re-enter the switch pipeline (ttl answers a traceroute
   through it), so while a timed call is in progress every nested call is
   timed too and its time is taken out of the outer one. *)
let wrap tr (st : Net.stage) =
  let acc = acc_for tr (fold_name st.Net.stage_name) in
  let inner = st.Net.process in
  let mask = tr.mask in
  let process ctx pkt =
    let c = acc.calls in
    acc.calls <- c + 1;
    let sampled = c land mask = 0 in
    if (not sampled) && tr.depth = 0 then begin
      let d = inner ctx pkt in
      (match d with Net.Drop _ -> acc.drops <- acc.drops + 1 | _ -> ());
      d
    end
    else begin
      let saved_ns = tr.child_ns and saved_words = tr.child_words in
      tr.child_ns <- 0;
      tr.child_words <- 0;
      tr.depth <- tr.depth + 1;
      let w0 = minor_words () in
      let t0 = Clock.now_ns () in
      let d = inner ctx pkt in
      let t1 = Clock.now_ns () in
      let w1 = minor_words () in
      tr.depth <- tr.depth - 1;
      let el = t1 - t0 and wl = w1 - w0 in
      if sampled then begin
        acc.sampled <- acc.sampled + 1;
        acc.self_ns <- acc.self_ns + el - tr.child_ns;
        acc.self_words <- acc.self_words + wl - tr.child_words;
        (* keep every 256th sample as a span, up to the buffer size *)
        if acc.sampled land 255 = 1 && tr.sp_len < span_capacity then begin
          tr.sp_stage.(tr.sp_len) <- acc.a_id;
          tr.sp_start.(tr.sp_len) <- t0;
          tr.sp_dur.(tr.sp_len) <- el - tr.child_ns;
          tr.sp_len <- tr.sp_len + 1
        end
      end;
      tr.child_ns <- saved_ns + el;
      tr.child_words <- saved_words + wl;
      (match d with Net.Drop _ -> acc.drops <- acc.drops + 1 | _ -> ());
      d
    end
  in
  { st with Net.process }

(* Replace every switch's stages by wrapped copies, in their original
   order. Stages a booster adds later (a state transfer mid-run) stay
   unwrapped. *)
let wrap_net tr net =
  List.iter
    (fun sw ->
      let stages = (Net.switch net sw).Net.stages in
      List.iter (fun (st : Net.stage) -> Net.remove_stage net ~sw ~name:st.Net.stage_name) stages;
      List.iter (fun st -> Net.add_stage net ~sw (wrap tr st)) stages)
    (Net.switch_ids net)

(* Per-stage totals, merged over tracers (one per shard). *)
type stage_stats = {
  s_calls : int;
  s_drops : int;
  s_sampled : int;
  s_self_ns : int;
  s_self_words : int;
}

let stage_totals tracers =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun tr ->
      Hashtbl.iter
        (fun name a ->
          let prev =
            Option.value (Hashtbl.find_opt tbl name)
              ~default:{ s_calls = 0; s_drops = 0; s_sampled = 0; s_self_ns = 0; s_self_words = 0 }
          in
          Hashtbl.replace tbl name
            {
              s_calls = prev.s_calls + a.calls;
              s_drops = prev.s_drops + a.drops;
              s_sampled = prev.s_sampled + a.sampled;
              s_self_ns = prev.s_self_ns + a.self_ns;
              s_self_words = prev.s_self_words + a.self_words;
            })
        tr.accs)
    tracers;
  tbl

let stage_spans tr =
  let names = Array.make (Hashtbl.length tr.accs) "" in
  Hashtbl.iter (fun name a -> names.(a.a_id) <- name) tr.accs;
  List.init tr.sp_len (fun i -> (names.(tr.sp_stage.(i)), tr.sp_start.(i), tr.sp_dur.(i)))

(* The cost the wrapper itself adds inside a timed call, found by timing
   a stage that does nothing: ns and minor words per timed call. It is
   subtracted from every stage's per-call figures. *)
let calibrate () =
  let calls = 200_000 in
  let net = Net.create (Ff_netsim.Engine.create ()) (Ff_topology.Topology.fat_tree ~k:2 ()) in
  let pkt =
    Ff_dataplane.Packet.make ~src:0 ~dst:1 ~flow:0 ~birth:0. ~payload:Ff_dataplane.Packet.Data ()
  in
  let ctx = { Net.net; sw = Net.switch net (List.hd (Net.switch_ids net)); in_port = -1 } in
  let noop = { Net.stage_name = "noop"; process = (fun _ _ -> Net.Continue) } in
  let batch () =
    let tr = create_tracer ~sample_every:1 () in
    let st = wrap tr noop in
    for _ = 1 to calls do ignore (st.Net.process ctx pkt) done;
    let a = acc_for tr "noop" in
    (float_of_int a.self_ns /. float_of_int a.sampled,
     float_of_int a.self_words /. float_of_int a.sampled)
  in
  let runs = List.init 5 (fun _ -> batch ()) in
  (Stats.median (List.map fst runs), Stats.median (List.map snd runs))

(* ---------------- GC phases (Runtime_events) ---------------- *)

(* Minor collections and major slices, summed over every domain. The
   runtime's ring buffer is polled at the end of each major cycle (a GC
   alarm) and at the end of the measured span, so it does not wrap
   during a run; lost events are counted and reported. *)
type gc_phases = { mutable minor_ns : int; mutable major_ns : int; mutable lost : int }

let phases = { minor_ns = 0; major_ns = 0; lost = 0 }
let open_phase : (int * int, int) Hashtbl.t = Hashtbl.create 16
let poll_lock = Mutex.create ()

let phase_code = function
  | Runtime_events.EV_MINOR -> 0
  | Runtime_events.EV_MAJOR_SLICE -> 1
  | _ -> -1

let callbacks =
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  let runtime_begin dom t phase =
    let k = phase_code phase in
    if k >= 0 then Hashtbl.replace open_phase (dom, k) (ts t)
  in
  let runtime_end dom t phase =
    let k = phase_code phase in
    if k >= 0 then
      match Hashtbl.find_opt open_phase (dom, k) with
      | None -> ()
      | Some t0 ->
        Hashtbl.remove open_phase (dom, k);
        let d = ts t - t0 in
        if k = 0 then phases.minor_ns <- phases.minor_ns + d
        else phases.major_ns <- phases.major_ns + d
  in
  let lost_events _ n = phases.lost <- phases.lost + n in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

let cursor = ref None

let poll () =
  match !cursor with
  | None -> ()
  | Some c -> Mutex.protect poll_lock (fun () -> ignore (Runtime_events.read_poll c callbacks None))

let alarm = ref None

(* Start recording (the first call turns Runtime_events on for the rest
   of the process) and zero the totals. *)
let gc_begin () =
  if !cursor = None then begin
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)
  end
  else Runtime_events.resume ();
  poll ();
  Hashtbl.reset open_phase;
  phases.minor_ns <- 0;
  phases.major_ns <- 0;
  phases.lost <- 0;
  if !alarm = None then alarm := Some (Gc.create_alarm poll)

(* Stop recording; returns (minor s, major s, lost events). *)
let gc_end () =
  poll ();
  Option.iter Gc.delete_alarm !alarm;
  alarm := None;
  Runtime_events.pause ();
  (float_of_int phases.minor_ns *. 1e-9, float_of_int phases.major_ns *. 1e-9, phases.lost)

(* ---------------- component micro-timings ---------------- *)

module Cuckoo = Ff_dataplane.Cuckoo

(* Steady state at half occupancy: each round inserts a batch of fresh
   keys, looks up a batch of resident ones and deletes the oldest batch,
   each phase timed on its own. Keys come from a fixed sequence, so the
   work is identical on every run. *)
let cuckoo_ops ~capacity ~rounds =
  let f = Cuckoo.create ~seed:7 ~capacity () in
  let slots = Cuckoo.capacity f in
  let live = slots / 2 in
  let batch = max 1 (live / 8) in
  let key i = ((i + 1) * 0x9E3779B1) land 0x3FFFFFFF in
  for i = 0 to live - 1 do ignore (Cuckoo.insert f (key i)) done;
  let next = ref live and oldest = ref 0 in
  let ins = ref 0 and mem = ref 0 and del = ref 0 in
  let kicks0 = Cuckoo.kicks f in
  for _ = 1 to rounds do
    let t0 = Clock.now_ns () in
    for i = !next to !next + batch - 1 do ignore (Cuckoo.insert f (key i)) done;
    let t1 = Clock.now_ns () in
    next := !next + batch;
    for i = !next - live to !next - live + batch - 1 do ignore (Cuckoo.member f (key i)) done;
    let t2 = Clock.now_ns () in
    for i = !oldest to !oldest + batch - 1 do ignore (Cuckoo.delete f (key i)) done;
    let t3 = Clock.now_ns () in
    oldest := !oldest + batch;
    ins := !ins + (t1 - t0);
    mem := !mem + (t2 - t1);
    del := !del + (t3 - t2)
  done;
  let ops = float_of_int (rounds * batch) in
  [
    ("cuckoo.insert_ns", float_of_int !ins /. ops);
    ("cuckoo.member_ns", float_of_int !mem /. ops);
    ("cuckoo.delete_ns", float_of_int !del /. ops);
    ("cuckoo.kicks_per_insert", float_of_int (Cuckoo.kicks f - kicks0) /. ops);
  ]

module Topology = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Fluid = Ff_fluid.Fluid
module Hybrid = Ff_fluid.Hybrid

let isp_net ?(cores = 12) () =
  let topo = Topology.isp ~cores ~access_per_core:2 ~hosts_per_access:4 () in
  let net = Net.create (Engine.create ()) topo in
  let hosts =
    Array.of_list (List.map (fun (n : Topology.node) -> n.Topology.id) (Topology.hosts topo))
  in
  (net, hosts)

(* One incremental re-solve with a single dirty link, over a 500-class
   population (the solver's steady state between rate events). *)
let fluid_recompute ~iters =
  let net, hosts = isp_net ~cores:4 () in
  Fastflex.Scenario.install_all_routes net;
  let nh = Array.length hosts in
  let fl = Fluid.create net () in
  for i = 0 to 499 do
    let src = hosts.(i mod nh) and dst = hosts.(((i * 7) + 1) mod nh) in
    if src <> dst then
      ignore
        (Fluid.add fl ~src ~dst
           (if i mod 3 = 0 then Fluid.Adaptive { rtt = 0.02; max_rate = 1e6 }
            else Fluid.Constant { rate = 25_000. }))
  done;
  Fluid.recompute fl;
  let li = Net.link_index net ~from_:hosts.(0) ~to_:(List.hd (Net.neighbors_of net hosts.(0))) in
  let t0 = Clock.now_ns () in
  for _ = 1 to iters do
    Fluid.mark_link_dirty fl li;
    Fluid.recompute fl
  done;
  ("fluid.recompute_us", float_of_int (Clock.now_ns () - t0) /. float_of_int iters /. 1e3)

(* Shortest-path route trees toward every host of the default ISP
   topology: the routing part of the fluid workload's set-up. *)
let routes ~reps =
  let net, _ = isp_net () in
  let times =
    List.init reps (fun _ ->
        let t0 = Clock.now_ns () in
        Fastflex.Scenario.install_all_routes net;
        float_of_int (Clock.now_ns () - t0) /. 1e6)
  in
  ("setup.routes_ms", Stats.median times)

(* Admitting flows into the hybrid tier: the part of that set-up that
   grows with the flow population. *)
let hybrid_add_flow ~flows =
  let net, hosts = isp_net () in
  Fastflex.Scenario.install_all_routes net;
  let nh = Array.length hosts in
  let h = Hybrid.create net () in
  let t0 = Clock.now_ns () in
  for i = 0 to flows - 1 do
    let src = hosts.(i mod nh) and dst = hosts.(((i * 13) + 5) mod nh) in
    let dst = if dst = src then hosts.((i + 1) mod nh) else dst in
    ignore (Hybrid.add_flow h ~src ~dst (Hybrid.Cbr { rate_pps = 0.5; packet_size = 1000 }))
  done;
  ("hybrid.add_flow_ns", float_of_int (Clock.now_ns () - t0) /. float_of_int flows)

let components ~small =
  if small then
    cuckoo_ops ~capacity:4096 ~rounds:4
    @ [ fluid_recompute ~iters:20; routes ~reps:1; hybrid_add_flow ~flows:1000 ]
  else
    cuckoo_ops ~capacity:65536 ~rounds:64
    @ [ fluid_recompute ~iters:2000; routes ~reps:5; hybrid_add_flow ~flows:100_000 ]
