module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Window_counter = Ff_util.Stats.Window_counter
module Int_table = Ff_util.Int_table

type alarm = { switch : int; attack : Packet.attack_kind }

type t = {
  net : Net.t;
  sw : int;
  watched : (int * int) list;
  min_age : float;
  clear_hold : float;
  (* Per-flow state as dense columns, one row per flow seen, in
     first-seen order: [update_flow] runs on every data packet and [check]
     scans every row each period, so neither hashes a key or chases a
     record. *)
  rows : Int_table.t; (* flow id -> row *)
  mutable n_rows : int;
  mutable r_first_seen : float array;
  mutable r_last_seen : float array;
  mutable r_rate : float array; (* bits/s over the last completed window *)
  mutable r_window_start : float array;
  mutable r_window_bytes : float array;
  mutable r_dst : int array;
  mutable r_suspicious : Bytes.t;
  suspicious_srcs : (int, unit) Hashtbl.t;
  dst_fanout : int array; (* dst node -> live flows toward it *)
  (* Offered-load tracking (pre-mitigation): bytes whose *default* route
     crosses a watched egress link, counted in the detector stage — i.e.
     before the dropper polices or the reroute steers them. Hysteresis on
     the transmitted utilization alone would flap: mitigation suppresses
     the very signal that raised the alarm. Indexed by next-hop node id
     via [watched_idx] (-1 = not watched / not our egress). *)
  watched_idx : int array;
  offered_ctr : Window_counter.t array;
  offered_cap : float array;
  (* Randomized-threshold hardening: the effective alarm threshold is
     redrawn from [high_threshold - jitter, high_threshold] every
     [jitter_period] seconds, so a threshold-hugging adversary cannot learn a
     stable safe operating point. jitter = 0. keeps the detector
     bit-identical to the unhardened one. *)
  threshold_jitter : float;
  rng : Ff_util.Prng.t;
  mutable high_eff : float;
  mutable low_eff : float;
  mutable next_draw : float;
  mutable alarmed : bool;
  mutable calm_since : float option;
  mutable marks : int;
  on_alarm : alarm -> unit;
  on_clear : alarm -> unit;
}

(* Per-flow rate over fixed windows: bursty TCP arrivals make per-packet
   instantaneous estimates useless (intra-burst gaps dominate), so the rate
   is bytes over a half-second measurement window. *)
let rate_window = 0.5

let offered_window = 1.0

(* Alarm above 0.85 offered utilization of the watched links; the
   all-clear needs it below 0.80 and suspicious traffic under 0.1 of the
   watched capacity. A flow is suspect below 1.5 Mb/s with at least 8 live
   flows converging on its destination (the Crossfire fan-in). A jittered
   threshold is redrawn every 2 s. *)
let high_threshold = 0.85
let low_threshold = high_threshold -. 0.05
let clear_fraction = 0.1
let suspicious_rate = 1_500_000.
let dst_flows_min = 8
let jitter_period = 2.0

let grow_rows t =
  let cap = 2 * Array.length t.r_dst in
  let grow a x =
    let b = Array.make cap x in
    Array.blit a 0 b 0 t.n_rows;
    b
  in
  t.r_first_seen <- grow t.r_first_seen 0.;
  t.r_last_seen <- grow t.r_last_seen 0.;
  t.r_rate <- grow t.r_rate 0.;
  t.r_window_start <- grow t.r_window_start 0.;
  t.r_window_bytes <- grow t.r_window_bytes 0.;
  t.r_dst <- grow t.r_dst 0;
  t.r_suspicious <- Bytes.extend t.r_suspicious 0 (cap - Bytes.length t.r_suspicious)

let add_row t now (pkt : Packet.t) =
  let r = t.n_rows in
  if r = Array.length t.r_dst then grow_rows t;
  t.n_rows <- r + 1;
  Int_table.set t.rows pkt.flow r;
  t.r_first_seen.(r) <- now;
  t.r_rate.(r) <- 0.;
  t.r_window_start.(r) <- now;
  t.r_window_bytes.(r) <- 0.;
  t.r_dst.(r) <- pkt.dst;
  Bytes.set t.r_suspicious r '\000';
  r

(* The flow's row, updated with [pkt]. Flow ids are positive
   ([Net.fresh_flow_id]), the non-negative keys [Int_table] takes. *)
let update_flow t (pkt : Packet.t) =
  let now = Net.now t.net in
  let r = Int_table.get t.rows pkt.flow ~default:(-1) in
  let r = if r >= 0 then r else add_row t now pkt in
  let bytes = t.r_window_bytes.(r) +. float_of_int pkt.size in
  let elapsed = now -. t.r_window_start.(r) in
  if elapsed >= rate_window then begin
    t.r_rate.(r) <- bytes *. 8. /. elapsed;
    t.r_window_start.(r) <- now;
    t.r_window_bytes.(r) <- 0.
  end
  else t.r_window_bytes.(r) <- bytes;
  t.r_last_seen.(r) <- now;
  r

let is_suspicious t r = Bytes.get t.r_suspicious r <> '\000'

(* a destination outside the node range (a spoofed id, dropped no-route
   after the stages) has no fan-in *)
let fanout t dst =
  if dst >= 0 && dst < Array.length t.dst_fanout then t.dst_fanout.(dst) else 0

let classify t r (pkt : Packet.t) =
  (* The Crossfire signature (paper 4.1): persistent, individually low-rate
     flows, many of them converging on the same destination — legitimate
     flows congested down to a low rate do not share the fan-in. *)
  let age = Net.now t.net -. t.r_first_seen.(r) in
  let rate = t.r_rate.(r) in
  if
    age >= t.min_age && rate > 0. && rate < suspicious_rate
    && fanout t t.r_dst.(r) >= dst_flows_min
  then begin
    Bytes.set t.r_suspicious r '\001';
    Hashtbl.replace t.suspicious_srcs pkt.src ()
  end;
  if is_suspicious t r then begin
    pkt.Packet.suspicious <- true;
    t.marks <- t.marks + 1
  end

(* Classification runs when this detector has raised its own alarm OR when
   the distributed "classify" mode reached this switch (an alarm elsewhere,
   propagated by mode probes): upstream switches with path diversity must
   mark flows even though their own links are calm. *)
let classify_key = Common.mode_key Common.mode_classify
let classifying t ctx = t.alarmed || Common.mode_on ctx.Net.sw classify_key

let count_offered t (ctx : Net.ctx) (pkt : Packet.t) =
  let routes = ctx.Net.sw.Net.routes in
  if pkt.dst >= 0 && pkt.dst < Array.length routes then begin
    let nh = Array.unsafe_get routes pkt.dst in
    if nh >= 0 then begin
      let wi = Array.unsafe_get t.watched_idx nh in
      if wi >= 0 then
        Window_counter.add t.offered_ctr.(wi) ~now:(Net.now t.net) (float_of_int pkt.size *. 8.)
    end
  end

let stage t =
  {
    Net.stage_name = "lfa-detector";
    process =
      (fun ctx pkt ->
        (match pkt.Packet.payload with
        | Packet.Data ->
          count_offered t ctx pkt;
          let r = update_flow t pkt in
          if classifying t ctx then classify t r pkt
        | Packet.Traceroute_probe _ ->
          (* a suspicious source's reconnaissance probes are forwarded like
             its data (Crossfire probes are TTL-limited data packets), so
             mark them too — mitigation steers them with the flows *)
          if classifying t ctx && Hashtbl.mem t.suspicious_srcs pkt.Packet.src then
            pkt.Packet.suspicious <- true
        | _ -> ());
        Net.Continue);
  }

let watched_utilization t =
  List.fold_left
    (fun acc (from_, to_) -> Float.max acc (Net.utilization t.net ~from_ ~to_))
    0. t.watched

(* Max over watched egress links of offered load / capacity: what the
   traffic *asks* of the link on its default route, whether or not
   mitigation is currently shedding it. *)
let offered_utilization t =
  let now = Net.now t.net in
  let acc = ref 0. in
  for i = 0 to Array.length t.offered_ctr - 1 do
    let u = Window_counter.rate t.offered_ctr.(i) ~now /. t.offered_cap.(i) in
    if u > !acc then acc := u
  done;
  !acc

let watched_capacity t =
  List.fold_left
    (fun acc (from_, to_) ->
      match Ff_topology.Topology.find_link (Net.topology t.net) from_ to_ with
      | Some l -> acc +. l.Ff_topology.Topology.capacity
      | None -> acc)
    0. t.watched

(* summed in row order *)
let suspicious_aggregate_rate t now =
  let acc = ref 0. in
  for r = 0 to t.n_rows - 1 do
    if is_suspicious t r && now -. t.r_last_seen.(r) < 1.0 then acc := !acc +. t.r_rate.(r)
  done;
  !acc

let refresh_fanout t now =
  Array.fill t.dst_fanout 0 (Array.length t.dst_fanout) 0;
  for r = 0 to t.n_rows - 1 do
    let dst = t.r_dst.(r) in
    if now -. t.r_last_seen.(r) < 2.0 && dst >= 0 && dst < Array.length t.dst_fanout then
      t.dst_fanout.(dst) <- t.dst_fanout.(dst) + 1
  done

let redraw_thresholds t now =
  if t.threshold_jitter > 0. && now >= t.next_draw then begin
    t.high_eff <- high_threshold -. Ff_util.Prng.float t.rng t.threshold_jitter;
    t.low_eff <- Float.min low_threshold (t.high_eff -. 0.03);
    t.next_draw <- now +. jitter_period
  end

let check t () =
  let now = Net.now t.net in
  refresh_fanout t now;
  redraw_thresholds t now;
  let util = watched_utilization t in
  let offered = offered_utilization t in
  (* Offered load drives both edges of the hysteresis: the alarm rises
     when either the link is congested or the demand routed over it would
     congest it; it clears only when the *demand* has subsided below
     [low_eff] — transmitted utilization falls the moment the dropper
     bites, which says nothing about the attacker. *)
  let driving = Float.max util offered in
  if not t.alarmed then begin
    if driving >= t.high_eff then begin
      t.alarmed <- true;
      t.calm_since <- None;
      t.on_alarm { switch = t.sw; attack = Packet.Lfa }
    end
  end
  else begin
    (* the attack has subsided when the suspicious flows themselves stop,
       not when mitigation hides the congestion *)
    let susp = suspicious_aggregate_rate t now in
    let calm = susp < clear_fraction *. watched_capacity t && driving < t.low_eff in
    match (calm, t.calm_since) with
    | false, _ -> t.calm_since <- None
    | true, None -> t.calm_since <- Some now
    | true, Some since ->
      if now -. since >= t.clear_hold then begin
        t.alarmed <- false;
        t.calm_since <- None;
        Bytes.fill t.r_suspicious 0 t.n_rows '\000';
        Hashtbl.reset t.suspicious_srcs;
        t.on_clear { switch = t.sw; attack = Packet.Lfa }
      end
  end

let install net ~sw ~watched ~check_period ~threshold_jitter ~seed ~min_age ~clear_hold
    ~on_alarm ~on_clear =
  let n_nodes = Array.length (Net.switch net sw).Net.routes in
  let watched_idx = Array.make n_nodes (-1) in
  let egress = List.filter (fun (from_, _) -> from_ = sw) watched in
  let offered_ctr =
    Array.of_list (List.map (fun _ -> Window_counter.create ~width:offered_window) egress)
  in
  let offered_cap = Array.make (List.length egress) 1. in
  List.iteri
    (fun i (from_, to_) ->
      if to_ >= 0 && to_ < n_nodes then watched_idx.(to_) <- i;
      (match Ff_topology.Topology.find_link (Net.topology net) from_ to_ with
      | Some l -> offered_cap.(i) <- Float.max 1. l.Ff_topology.Topology.capacity
      | None -> ()))
    egress;
  let t =
    {
      net;
      sw;
      watched;
      min_age;
      clear_hold;
      rows = Int_table.create ~capacity:256 ();
      n_rows = 0;
      r_first_seen = Array.make 64 0.;
      r_last_seen = Array.make 64 0.;
      r_rate = Array.make 64 0.;
      r_window_start = Array.make 64 0.;
      r_window_bytes = Array.make 64 0.;
      r_dst = Array.make 64 0;
      r_suspicious = Bytes.make 64 '\000';
      suspicious_srcs = Hashtbl.create 32;
      dst_fanout = Array.make n_nodes 0;
      watched_idx;
      offered_ctr;
      offered_cap;
      threshold_jitter;
      rng = Ff_util.Prng.create ~seed:(seed lxor (sw * 0x9E3779B9));
      high_eff = high_threshold;
      low_eff = low_threshold;
      next_draw = 0.;
      alarmed = false;
      calm_since = None;
      marks = 0;
      on_alarm;
      on_clear;
    }
  in
  Net.add_stage net ~sw (stage t);
  Engine.every (Net.engine net) ~period:check_period (check t);
  t

let alarmed t = t.alarmed

let suspicious_flows t =
  Int_table.fold (fun f r acc -> if is_suspicious t r then f :: acc else acc) t.rows []
  |> List.sort compare

let is_suspicious_source t s = Hashtbl.mem t.suspicious_srcs s

let tracked_flows t = t.n_rows
let marks t = t.marks
