module Flow = Ff_netsim.Flow

type t = { flows : Flow.Cbr.t list }

(* Spoofed packets carry initial TTL 48, visibly short of the simulator's
   default 64. *)
let launch net ~bots ~victim ~rate_pps_per_bot ?(start = 0.) ?(spoof_as = []) () =
  let flows =
    List.mapi
      (fun i bot ->
        match spoof_as with
        | [] ->
          Flow.Cbr.start net ~src:bot ~dst:victim ~rate_pps:rate_pps_per_bot ~at:start ()
        | claims ->
          let claimed = List.nth claims (i mod List.length claims) in
          Flow.Cbr.start net ~src:claimed ~dst:victim ~rate_pps:rate_pps_per_bot ~at:start
            ~ttl:48 ~via:bot ())
      bots
  in
  { flows }

let flows t = t.flows

let packets_sent t = List.fold_left (fun acc f -> acc + Flow.Cbr.sent_packets f) 0 t.flows

let stop_now t = List.iter Flow.Cbr.stop_now t.flows
