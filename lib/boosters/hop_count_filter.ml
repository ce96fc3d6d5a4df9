module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet

(* A packet whose TTL is more than 2 hops off its source's fingerprint is
   spoofed; in-tolerance packets move the fingerprint by an EWMA of
   weight 0.3. *)
let tolerance = 2.
let learning_weight = 0.3

type t = {
  expected : (int, float) Hashtbl.t; (* src -> EWMA of arriving TTL *)
  mutable filtered : int;
}

let stage t =
  let mode_key = Common.mode_key Common.mode_hcf in
  {
    Net.stage_name = "hop-count-filter";
    process =
      (fun ctx pkt ->
        match pkt.Packet.payload with
        | Packet.Data -> (
          let ttl = float_of_int pkt.Packet.ttl in
          match Hashtbl.find_opt t.expected pkt.Packet.src with
          | None ->
            Hashtbl.replace t.expected pkt.Packet.src ttl;
            Net.Continue
          | Some exp_ttl ->
            let deviates = Float.abs (ttl -. exp_ttl) > tolerance in
            if deviates then
              if Common.mode_on ctx.Net.sw mode_key then begin
                t.filtered <- t.filtered + 1;
                Net.Drop "hcf-spoofed"
              end
              else Net.Continue
            else begin
              (* reinforcement-only learning (NetHCF's defense against
                 poisoning): deviating packets never move the estimate, so
                 a spoofed flood cannot drag a source's fingerprint toward
                 itself and get the legitimate owner filtered; slow
                 in-tolerance path changes still track *)
              Hashtbl.replace t.expected pkt.Packet.src
                ((learning_weight *. ttl) +. ((1. -. learning_weight) *. exp_ttl));
              Net.Continue
            end)
        | _ -> Net.Continue);
  }

let install net ~sw =
  let t = { expected = Hashtbl.create 64; filtered = 0 } in
  Net.add_stage net ~sw (stage t);
  t

let filtered t = t.filtered
let learned_sources t = Hashtbl.length t.expected
