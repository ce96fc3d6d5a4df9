module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Sync = Ff_modes.Sync

(* Check every 0.5 s and sync every 0.25 s; a destination above 6 Mb/s
   network-wide is an offender, and entries under 100 kb/s stay local. *)
let check_period = 0.5
let sync_period = 0.25
let threshold_bps = 6_000_000.
let sync_threshold_bps = 100_000.

type t = {
  ingresses : int list;
  rates : Common.local_rates; (* per (ingress, dst) *)
  sync : Sync.t;
  mutable offenders : int list;
  mutable raised : int list; (* ingresses whose alarm is up *)
}

let local_rate t ~sw ~dst = Common.local_rate t.rates ~sw ~key:dst

let counting_stage net ~id ~ingresses rates =
  {
    Net.stage_name = Printf.sprintf "nw-hh-counter-%d" id;
    process =
      (fun ctx pkt ->
        (match pkt.Packet.payload with
        | Packet.Data ->
          let sw = ctx.Net.sw.Net.sw_id in
          (* count at the flow's ingress only, to avoid double counting *)
          if List.mem sw ingresses && Net.access_switch net ~host:pkt.Packet.src = sw then
            Common.count rates ~sw ~key:pkt.Packet.dst (float_of_int pkt.Packet.size)
        | _ -> ());
        Net.Continue);
  }

(* Each ingress judges its own global view and raises or clears its own
   alarm, so the mode region forms around every ingress the flood enters
   by; the deployment's sink counts the raises per attack class. *)
let check t ~on_alarm ~on_clear () =
  let over (dst, rate) = if rate >= threshold_bps then Some dst else None in
  let views =
    List.map (fun sw -> (sw, List.filter_map over (Sync.global_view t.sync ~sw))) t.ingresses
  in
  t.offenders <- List.sort_uniq compare (List.concat_map snd views);
  List.iter
    (fun (sw, offenders) ->
      let alarm = { Lfa_detector.switch = sw; attack = Packet.Volumetric } in
      match (offenders, List.mem sw t.raised) with
      | _ :: _, false ->
        t.raised <- sw :: t.raised;
        on_alarm alarm
      | [], true ->
        t.raised <- List.filter (( <> ) sw) t.raised;
        on_clear alarm
      | _ -> ())
    views

let install net ~id ~ingresses ~on_alarm ~on_clear =
  let rates = Common.local_rates net in
  List.iter (fun sw -> Net.add_stage net ~sw (counting_stage net ~id ~ingresses rates)) ingresses;
  let sync =
    Sync.create net ~participants:ingresses ~period:sync_period
      ~local_view:(Common.local_view rates) ~threshold:sync_threshold_bps
      ~probe_class:(100 + id) ()
  in
  let t = { ingresses; rates; sync; offenders = []; raised = [] } in
  Engine.every (Net.engine net) ~period:check_period (check t ~on_alarm ~on_clear);
  t

let global_rate t ~sw ~dst = Sync.global_value t.sync ~sw ~key:dst
let offenders t = t.offenders
let alarmed t = t.raised <> []
let sync_probes t = Sync.probes_sent t.sync
