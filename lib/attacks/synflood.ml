module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet

(* A SYN flood is not a bandwidth attack: each packet is a 64-byte SYN
   opening a *new* connection (fresh flow id every time), aimed at the
   victim's accept backlog rather than its links. Bots never answer the
   SYN-ACK — spoofed sources make sure they could not even if they wanted
   to — so every accepted SYN pins a half-open slot until the server
   times it out. *)

type bot = {
  b_net : Net.t;
  b_via : int;  (* emitting host *)
  b_victim : int;
  b_spoof : int array;  (* claimed sources, cycled; [|b_via|] when honest *)
  b_ttl : int;
  mutable b_sent : int;
}

type t = { bots : bot list }

let burst_len = 64

let send_tick b =
  let claimed = b.b_spoof.(b.b_sent mod Array.length b.b_spoof) in
  let pkt =
    Packet.make ~size:Packet.control_size ~ttl:b.b_ttl ~payload:Packet.Syn ~src:claimed
      ~dst:b.b_victim ~flow:(Flow.fresh_flow_id b.b_net) ()
  in
  b.b_sent <- b.b_sent + 1;
  Net.send_from_host_via b.b_net ~via:b.b_via pkt

let arm b ~start ~rate_pps =
  let period = 1. /. rate_pps in
  let rec go ~start =
    Engine.schedule_burst (Net.engine b.b_net) ~start ~period ~count:burst_len (fun k ->
        send_tick b;
        if k = burst_len - 1 then go ~start:(Net.now b.b_net +. period);
        true)
  in
  go ~start

(* Spoofed SYNs carry initial TTL 48, visibly short of the simulator's
   default 64. *)
let launch net ~bots ~victim ~syn_rate_pps ?(start = 0.) ?(spoof_as = []) () =
  let bot_list =
    List.map
      (fun via ->
        let spoof, ttl =
          match spoof_as with
          | [] -> ([| via |], 64)
          | claims -> (Array.of_list claims, 48)
        in
        { b_net = net; b_via = via; b_victim = victim; b_spoof = spoof; b_ttl = ttl; b_sent = 0 })
      bots
  in
  List.iter (fun b -> arm b ~start ~rate_pps:syn_rate_pps) bot_list;
  { bots = bot_list }

let syns_sent t = List.fold_left (fun acc b -> acc + b.b_sent) 0 t.bots
