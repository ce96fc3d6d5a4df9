module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet

type t = {
  virtual_path : src:int -> dst:int -> int list option;
  mutable obfuscated : int;
}

let stage t =
  let mode_key = Common.mode_key Common.mode_obfuscate in
  {
    Net.stage_name = "obfuscator";
    process =
      (fun ctx pkt ->
        (match pkt.Packet.payload with
        | Packet.Traceroute_probe ({ probe_ttl; _ } as probe)
          when pkt.Packet.ttl = 1 && Common.mode_on ctx.Net.sw mode_key -> (
          (* the probe dies here: pre-compute the virtual responder the TTL
             stage will put in the time-exceeded reply *)
          match t.virtual_path ~src:pkt.Packet.src ~dst:pkt.Packet.dst with
          | Some path when List.length path > probe_ttl ->
            probe.responder <- List.nth path probe_ttl;
            t.obfuscated <- t.obfuscated + 1
          | _ -> ())
        | _ -> ());
        Net.Continue);
  }

let install net ~virtual_path =
  let t = { virtual_path; obfuscated = 0 } in
  List.iter (fun sw -> Net.add_stage ~front:true net ~sw (stage t)) (Net.switch_ids net);
  t

let obfuscated_replies t = t.obfuscated

