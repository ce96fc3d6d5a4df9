type attack_kind = Lfa | Volumetric | Pulsing | Recon | Synflood

let attack_kind_to_string = function
  | Lfa -> "lfa"
  | Volumetric -> "volumetric"
  | Pulsing -> "pulsing"
  | Recon -> "recon"
  | Synflood -> "synflood"

let all_attack_kinds = [ Lfa; Volumetric; Pulsing; Recon; Synflood ]

type payload =
  | Data
  | Ack of { acked : int }
  | Traceroute_probe of { probe_id : int; probe_ttl : int; mutable responder : int }
  | Traceroute_reply of { probe_id : int; hop : int; responder : int }
  | Util_probe of { dst : int; round : int; max_util : float; hops : int }
  | Mode_probe of { attack : attack_kind; epoch : int; origin : int; activate : bool;
                    region_ttl : int }
  | Sync_probe of { origin : int; round : int; entries : (int * float) list }
  | State_chunk of { xfer_id : int; group : int; index : int; of_group : int; parity : bool;
                     entries : (string * float) list }
  | State_ack of { xfer_id : int; group : int }
  | Syn
  | Syn_ack of { cookie : int }
  | Handshake_ack of { cookie : int }
  | Fin

type t = {
  uid : int;
  src : int;
  dst : int;
  flow : int;
  size : int;
  seq : int;
  payload : payload;
  mutable ttl : int;
  mutable suspicious : bool;
}

(* Atomic: packets are created on every shard of the parallel engine
   concurrently; a plain ref would race (and hand out duplicate uids).
   One fetch-and-add per packet *creation* (not per hop) keeps this off
   the per-hop path. *)
let next_uid = Atomic.make 0
let created () = Atomic.get next_uid
let fresh_uid () = 1 + Atomic.fetch_and_add next_uid 1

let control_size = 64

let make ?size ?(seq = 0) ?(ttl = 64) ?(payload = Data) ?birth:_ ~src ~dst ~flow () =
  let size =
    match size with
    | Some s -> s
    | None -> (match payload with Data -> 1000 | _ -> control_size)
  in
  { uid = fresh_uid (); src; dst; flow; size; seq; payload; ttl; suspicious = false }

(* Hot-path constructors: [make]'s optional arguments cost a [Some] block
   per supplied argument at every call site (no flambda to elide them), so
   the per-packet senders use these fixed-shape variants. Each is exactly
   [make] with the corresponding arguments — same uid draw, same defaults. *)

let make_data ~size ~seq ~ttl ~src ~dst ~flow =
  { uid = fresh_uid (); src; dst; flow; size; seq; payload = Data; ttl; suspicious = false }

let make_ack ~acked ~src ~dst ~flow =
  { uid = fresh_uid (); src; dst; flow; size = control_size; seq = 0; payload = Ack { acked };
    ttl = 64; suspicious = false }

let make_control ~payload ~src ~dst ~flow =
  let size = match payload with Data -> 1000 | _ -> control_size in
  { uid = fresh_uid (); src; dst; flow; size; seq = 0; payload; ttl = 64; suspicious = false }

let is_control p =
  match p.payload with Data | Ack _ | Syn | Syn_ack _ | Handshake_ack _ | Fin -> false | _ -> true
