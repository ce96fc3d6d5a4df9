module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet
module Sync = Ff_modes.Sync

type t = {
  net : Net.t;
  participants : int list;
  rng : Ff_util.Prng.t;
  limits : (int, float) Hashtbl.t; (* tenant -> bps *)
  tenants : (int, int) Hashtbl.t; (* src host -> tenant *)
  local : Common.local_rates; (* per (participant, tenant) *)
  sync : Sync.t;
  mutable dropped : int;
}

let local_rate t ~sw ~tenant = Common.local_rate t.local ~sw ~key:tenant

let global_rate t ~sw ~tenant =
  let remote = Sync.remote_contribution t.sync ~sw ~key:tenant in
  remote +. local_rate t ~sw ~tenant

(* Policing drops with probability [1 - limit/global], so the aggregate
   converges to the limit wherever the tenant enters. *)
let stage t =
  let mode_key = Common.mode_key Common.mode_grl in
  let police ctx pkt tenant =
    let sw = ctx.Net.sw.Net.sw_id in
    Common.count t.local ~sw ~key:tenant (float_of_int pkt.Packet.size);
    match Hashtbl.find_opt t.limits tenant with
    | Some limit when Common.mode_on ctx.Net.sw mode_key ->
      let global = global_rate t ~sw ~tenant in
      if global > limit && Ff_util.Prng.float t.rng 1. < 1. -. (limit /. global) then begin
        t.dropped <- t.dropped + 1;
        Net.Drop "global-rate-limit"
      end
      else Net.Continue
    | _ -> Net.Continue
  in
  {
    Net.stage_name = "global-rate-limit";
    process =
      (fun ctx pkt ->
        let sw = ctx.Net.sw.Net.sw_id in
        match (pkt.Packet.payload, Hashtbl.find_opt t.tenants pkt.Packet.src) with
        | Packet.Data, Some tenant
          when List.mem sw t.participants && Net.access_switch t.net ~host:pkt.Packet.src = sw ->
          police ctx pkt tenant
        | _ -> Net.Continue);
  }

let install net ~participants ~tenants ~limits =
  let local = Common.local_rates net in
  (* probe class 0 is this booster's; the other sync services use theirs *)
  let sync =
    Sync.create net ~participants ~period:0.2 ~local_view:(Common.local_view local) ~probe_class:0 ()
  in
  let t =
    {
      net;
      participants;
      rng = Ff_util.Prng.create ~seed:7;
      limits = Hashtbl.of_seq (List.to_seq limits);
      tenants = Hashtbl.of_seq (List.to_seq tenants);
      local;
      sync;
      dropped = 0;
    }
  in
  List.iter (fun sw -> Net.add_stage net ~sw (stage t)) (Net.switch_ids net);
  t

let dropped t = t.dropped
let sync_probes t = Sync.probes_sent t.sync
