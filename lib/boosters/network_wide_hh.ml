module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Sync = Ff_modes.Sync

let instances = ref 0

(* Check every 0.5 s and sync every 0.25 s; a destination above 6 Mb/s
   network-wide is an offender, and entries under 100 kb/s stay local. *)
let check_period = 0.5
let sync_period = 0.25
let threshold_bps = 6_000_000.
let sync_threshold_bps = 100_000.

type t = {
  id : int;
  net : Net.t;
  ingresses : int list;
  counters : (int * int, Ff_util.Stats.Window_counter.t) Hashtbl.t; (* (sw, dst) *)
  mutable sync : Sync.t option;
  mutable offenders : int list;
  mutable alarmed : bool;
  on_alarm : Lfa_detector.alarm -> unit;
  on_clear : Lfa_detector.alarm -> unit;
}

let counter t sw dst =
  match Hashtbl.find_opt t.counters (sw, dst) with
  | Some c -> c
  | None ->
    let c = Ff_util.Stats.Window_counter.create ~width:1.0 in
    Hashtbl.replace t.counters (sw, dst) c;
    c

let local_rate t ~sw ~dst =
  match Hashtbl.find_opt t.counters (sw, dst) with
  | None -> 0.
  | Some c -> Ff_util.Stats.Window_counter.rate c ~now:(Net.now t.net) *. 8.

let local_view t ~sw =
  Hashtbl.fold
    (fun (s, dst) _ acc -> if s = sw then (dst, local_rate t ~sw ~dst) :: acc else acc)
    t.counters []

let counting_stage t =
  {
    Net.stage_name = Printf.sprintf "nw-hh-counter-%d" t.id;
    process =
      (fun ctx pkt ->
        (match pkt.Packet.payload with
        | Packet.Data ->
          let sw = ctx.Net.sw.Net.sw_id in
          (* count at the flow's ingress only, to avoid double counting *)
          if
            List.mem sw t.ingresses
            && Net.access_switch t.net ~host:pkt.Packet.src = sw
          then
            Ff_util.Stats.Window_counter.add (counter t sw pkt.Packet.dst) ~now:(Net.now t.net)
              (float_of_int pkt.Packet.size)
        | _ -> ());
        Net.Continue);
  }

let check t () =
  match t.sync with
  | None -> ()
  | Some sync ->
    (* any ingress's global view suffices; take the union for robustness *)
    let over = Hashtbl.create 8 in
    List.iter
      (fun sw ->
        List.iter
          (fun (dst, rate) -> if rate >= threshold_bps then Hashtbl.replace over dst ())
          (Sync.global_view sync ~sw))
      t.ingresses;
    t.offenders <- List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) over []);
    let detector = match t.ingresses with sw :: _ -> sw | [] -> 0 in
    match (t.offenders, t.alarmed) with
    | _ :: _, false ->
      t.alarmed <- true;
      t.on_alarm { Lfa_detector.switch = detector; attack = Packet.Volumetric }
    | [], true ->
      t.alarmed <- false;
      t.on_clear { Lfa_detector.switch = detector; attack = Packet.Volumetric }
    | _ -> ()

let install net ~ingresses ~on_alarm ~on_clear =
  incr instances;
  let t =
    {
      id = !instances;
      net;
      ingresses;
      counters = Hashtbl.create 64;
      sync = None;
      offenders = [];
      alarmed = false;
      on_alarm;
      on_clear;
    }
  in
  List.iter (fun sw -> Net.add_stage net ~sw (counting_stage t)) ingresses;
  let sync =
    Sync.create net ~participants:ingresses ~period:sync_period
      ~local_view:(fun ~sw -> local_view t ~sw)
      ~threshold:sync_threshold_bps ~probe_class:(100 + t.id) ()
  in
  t.sync <- Some sync;
  Engine.every (Net.engine net) ~period:check_period (check t);
  t

let global_rate t ~sw ~dst =
  match t.sync with None -> 0. | Some sync -> Sync.global_value sync ~sw ~key:dst

let offenders t = t.offenders
let alarmed t = t.alarmed

let sync_probes t = match t.sync with None -> 0 | Some s -> Sync.probes_sent s
