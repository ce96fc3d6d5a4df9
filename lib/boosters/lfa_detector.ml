module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Window_counter = Ff_util.Stats.Window_counter

(* All fields float so the record gets OCaml's flat-float layout: the
   mutable stores in [update_flow] run on every data packet at every
   detector switch, and a mixed record would box a fresh float per store.
   [dst] carries an int node id, [suspicious] is a 0./1. flag. *)
type flow_rec = {
  first_seen : float;
  mutable last_seen : float;
  mutable rate : float; (* bits/s over the last completed window *)
  mutable window_start : float;
  mutable window_bytes : float;
  dst : float;
  mutable suspicious : float;
}

type alarm = { switch : int; attack : Packet.attack_kind }

type t = {
  net : Net.t;
  sw : int;
  watched : (int * int) list;
  min_age : float;
  clear_hold : float;
  flows : (int, flow_rec) Hashtbl.t;
  suspicious_srcs : (int, unit) Hashtbl.t;
  dst_fanout : (int, int) Hashtbl.t; (* dst -> live flows toward it *)
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

let update_flow t now (pkt : Packet.t) =
  let rec_ =
    match Hashtbl.find t.flows pkt.flow with
    | r -> r
    | exception Not_found ->
      let r =
        { first_seen = now; last_seen = now; rate = 0.; window_start = now; window_bytes = 0.;
          dst = float_of_int pkt.dst; suspicious = 0. }
      in
      Hashtbl.replace t.flows pkt.flow r;
      r
  in
  rec_.window_bytes <- rec_.window_bytes +. float_of_int pkt.size;
  let elapsed = now -. rec_.window_start in
  if elapsed >= rate_window then begin
    rec_.rate <- rec_.window_bytes *. 8. /. elapsed;
    rec_.window_start <- now;
    rec_.window_bytes <- 0.
  end;
  rec_.last_seen <- now;
  rec_

let classify t now rec_ (pkt : Packet.t) =
  (* The Crossfire signature (paper 4.1): persistent, individually low-rate
     flows, many of them converging on the same destination — legitimate
     flows congested down to a low rate do not share the fan-in. *)
  let age = now -. rec_.first_seen in
  let fanout = try Hashtbl.find t.dst_fanout (int_of_float rec_.dst) with Not_found -> 0 in
  if
    age >= t.min_age && rec_.rate > 0. && rec_.rate < suspicious_rate
    && fanout >= dst_flows_min
  then begin
    rec_.suspicious <- 1.;
    Hashtbl.replace t.suspicious_srcs pkt.src ()
  end;
  if rec_.suspicious > 0. then begin
    pkt.Packet.suspicious <- true;
    t.marks <- t.marks + 1
  end

(* Classification runs when this detector has raised its own alarm OR when
   the distributed "classify" mode reached this switch (an alarm elsewhere,
   propagated by mode probes): upstream switches with path diversity must
   mark flows even though their own links are calm. *)
let classify_key = Common.mode_key Common.mode_classify
let classifying t ctx = t.alarmed || Common.mode_on ctx.Net.sw classify_key

let count_offered t (ctx : Net.ctx) (pkt : Packet.t) now =
  let routes = ctx.Net.sw.Net.routes in
  if pkt.dst >= 0 && pkt.dst < Array.length routes then begin
    let nh = Array.unsafe_get routes pkt.dst in
    if nh >= 0 then begin
      let wi = Array.unsafe_get t.watched_idx nh in
      if wi >= 0 then
        Window_counter.add t.offered_ctr.(wi) ~now (float_of_int pkt.size *. 8.)
    end
  end

let stage t =
  {
    Net.stage_name = "lfa-detector";
    process =
      (fun ctx pkt ->
        (match pkt.Packet.payload with
        | Packet.Data ->
          let tnow = Net.now ctx.Net.net in
          count_offered t ctx pkt tnow;
          let rec_ = update_flow t tnow pkt in
          if classifying t ctx then classify t tnow rec_ pkt
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

let suspicious_aggregate_rate t now =
  Hashtbl.fold
    (fun _ r acc ->
      if r.suspicious > 0. && now -. r.last_seen < 1.0 then acc +. r.rate else acc)
    t.flows 0.

let refresh_fanout t now =
  Hashtbl.reset t.dst_fanout;
  Hashtbl.iter
    (fun _ r ->
      if now -. r.last_seen < 2.0 then begin
        let dst = int_of_float r.dst in
        Hashtbl.replace t.dst_fanout dst
          (1 + (try Hashtbl.find t.dst_fanout dst with Not_found -> 0))
      end)
    t.flows

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
        Hashtbl.iter (fun _ r -> r.suspicious <- 0.) t.flows;
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
      flows = Hashtbl.create 256;
      suspicious_srcs = Hashtbl.create 32;
      dst_fanout = Hashtbl.create 32;
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
  Hashtbl.fold (fun f r acc -> if r.suspicious > 0. then f :: acc else acc) t.flows []
  |> List.sort compare

let is_suspicious_source t s = Hashtbl.mem t.suspicious_srcs s

let tracked_flows t = Hashtbl.length t.flows
let marks t = t.marks
