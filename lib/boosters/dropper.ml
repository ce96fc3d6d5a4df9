module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet
module Meter = Ff_dataplane.Register.Meter

(* Each suspicious flow's token bucket holds 12 kB. *)
let burst = 12_000.

type t = {
  rate_limit : float; (* bits/s *)
  drop_prob : float;
  rng : Ff_util.Prng.t;
  meters : (int, Meter.t) Hashtbl.t;
  mutable dropped : int;
}

let meter t flow =
  match Hashtbl.find t.meters flow with
  | m -> m
  | exception Not_found ->
    let m = Meter.create ~rate:(t.rate_limit /. 8.) ~burst in
    Hashtbl.replace t.meters flow m;
    m

let stage t =
  let mode_key = Common.mode_key Common.mode_drop in
  {
    Net.stage_name = "dropper";
    process =
      (fun ctx pkt ->
        match pkt.Packet.payload with
        | Packet.Data when pkt.Packet.suspicious && Common.mode_on ctx.Net.sw mode_key ->
          let m = meter t pkt.Packet.flow in
          if not (Meter.allow m ~now:(Net.now ctx.Net.net) ~bytes:(float_of_int pkt.Packet.size)) then begin
            t.dropped <- t.dropped + 1;
            Net.Drop "suspicious-rate-limit"
          end
          else if t.drop_prob > 0. && Ff_util.Prng.float t.rng 1. < t.drop_prob then begin
            t.dropped <- t.dropped + 1;
            Net.Drop "illusion-of-success"
          end
          else Net.Continue
        | _ -> Net.Continue);
  }

let install net ~sw ~rate_limit ~drop_prob =
  let t =
    {
      rate_limit;
      drop_prob;
      rng = Ff_util.Prng.create ~seed:(42 + sw);
      meters = Hashtbl.create 64;
      dropped = 0;
    }
  in
  Net.add_stage net ~sw (stage t);
  t

let dropped t = t.dropped
let metered_flows t = Hashtbl.length t.meters
