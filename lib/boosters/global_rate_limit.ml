module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet
module Sync = Ff_modes.Sync
module Window_counter = Ff_util.Stats.Window_counter

type t = {
  net : Net.t;
  participants : int list;
  rng : Ff_util.Prng.t;
  limits : (int, float) Hashtbl.t; (* tenant -> bps *)
  tenants : (int, int) Hashtbl.t; (* src host -> tenant *)
  local : (int, (int, Window_counter.t) Hashtbl.t) Hashtbl.t; (* sw -> tenant -> bytes window *)
  sync : Sync.t;
  mutable dropped : int;
}

let local_counter local sw tenant =
  let per_sw =
    match Hashtbl.find_opt local sw with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace local sw h;
      h
  in
  match Hashtbl.find_opt per_sw tenant with
  | Some c -> c
  | None ->
    let c = Window_counter.create ~width:1.0 in
    Hashtbl.replace per_sw tenant c;
    c

let rate net local ~sw ~tenant =
  Window_counter.rate (local_counter local sw tenant) ~now:(Net.now net) *. 8.

(* The rates a participant advertises: every tenant it has counted. *)
let local_view net local ~sw =
  match Hashtbl.find_opt local sw with
  | None -> []
  | Some per_sw ->
    Hashtbl.fold (fun tenant _ acc -> (tenant, rate net local ~sw ~tenant) :: acc) per_sw []

let local_rate t ~sw ~tenant = rate t.net t.local ~sw ~tenant

let global_rate t ~sw ~tenant =
  let remote = Sync.remote_contribution t.sync ~sw ~key:tenant in
  remote +. local_rate t ~sw ~tenant

let stage t =
  let mode_key = Common.mode_key Common.mode_grl in
  {
    Net.stage_name = "global-rate-limit";
    process =
      (fun ctx pkt ->
        let sw = ctx.Net.sw.Net.sw_id in
        match pkt.Packet.payload with
        | Packet.Data -> (
          match Hashtbl.find_opt t.tenants pkt.Packet.src with
          | Some tenant when List.mem sw t.participants
                             && Net.access_switch t.net ~host:pkt.Packet.src = sw -> (
            Window_counter.add (local_counter t.local sw tenant) ~now:(Net.now t.net)
              (float_of_int pkt.Packet.size);
            match Hashtbl.find_opt t.limits tenant with
            | Some limit when Common.mode_on ctx.Net.sw mode_key ->
              let global = global_rate t ~sw ~tenant in
              if global > limit then begin
                let drop_p = 1. -. (limit /. global) in
                if Ff_util.Prng.float t.rng 1. < drop_p then begin
                  t.dropped <- t.dropped + 1;
                  Net.Drop "global-rate-limit"
                end
                else Net.Continue
              end
              else Net.Continue
            | _ -> Net.Continue)
          | _ -> Net.Continue)
        | _ -> Net.Continue);
  }

let install net ~participants =
  let local = Hashtbl.create 16 in
  (* probe class 0 is this booster's; the other sync services use theirs *)
  let sync =
    Sync.create net ~participants ~period:0.2
      ~local_view:(fun ~sw -> local_view net local ~sw)
      ~probe_class:0 ()
  in
  let t =
    {
      net;
      participants;
      rng = Ff_util.Prng.create ~seed:7;
      limits = Hashtbl.create 8;
      tenants = Hashtbl.create 32;
      local;
      sync;
      dropped = 0;
    }
  in
  List.iter (fun sw -> Net.add_stage net ~sw (stage t)) (Net.switch_ids net);
  t

let set_limit t ~tenant limit = Hashtbl.replace t.limits tenant limit
let assign t ~src ~tenant = Hashtbl.replace t.tenants src tenant
let dropped t = t.dropped
let sync_probes t = Sync.probes_sent t.sync
