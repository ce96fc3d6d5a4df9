module Topology = Ff_topology.Topology

type pkt = { p_src : int; p_dst : int; p_flow : int; p_size : int; mutable p_ttl : int }

type dlink = {
  l_to : int;
  l_cap : float;
  l_delay : float;
  mutable l_busy : float;
  mutable l_up : bool;
  mutable l_tx : int;
}

type sw = {
  mutable s_up : bool;
  mutable s_routes : (int * int) list; (* dst -> next hop *)
  mutable s_backups : (int * int) list;
  mutable s_pairs : ((int * int) * int) list; (* (src, dst) -> next hop *)
}

type ev = Thunk of (unit -> unit) | Arrival of { a_to : int; a_pkt : pkt }

type t = {
  topo : Topology.t;
  adj : dlink array array; (* Topology.neighbors order, as in Net *)
  sws : sw option array; (* None for hosts *)
  mutable q : ev Oracle.Queue.t;
  mutable time : float;
  mutable drops : (string * int) list;
  mutable delivered : (int * float list) list; (* flow -> times, newest first *)
}

let create topo =
  let n = Topology.num_nodes topo in
  let adj =
    Array.init n (fun id ->
        Topology.neighbors topo id
        |> List.map (fun (peer, (l : Topology.link)) ->
               {
                 l_to = peer;
                 l_cap = l.Topology.capacity;
                 l_delay = l.Topology.delay;
                 l_busy = 0.;
                 l_up = true;
                 l_tx = 0;
               })
        |> Array.of_list)
  in
  let sws =
    Array.init n (fun id ->
        match (Topology.node topo id).Topology.kind with
        | Topology.Switch -> Some { s_up = true; s_routes = []; s_backups = []; s_pairs = [] }
        | Topology.Host -> None)
  in
  let t = { topo; adj; sws; q = Oracle.Queue.empty; time = 0.; drops = []; delivered = [] } in
  (* hosts are directly reachable from their access switch *)
  Array.iteri
    (fun id sw ->
      match sw with
      | Some _ -> ()
      | None -> (
        match Topology.neighbors topo id with
        | (peer, _) :: _ -> (
          match t.sws.(peer) with
          | Some s -> s.s_routes <- (id, id) :: s.s_routes
          | None -> ())
        | [] -> ()))
    sws;
  t

let switch t sw =
  match t.sws.(sw) with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Simnet: node %d is not a switch" sw)

let set_assoc l k v = (k, v) :: List.remove_assoc k l

let set_route t ~sw ~dst ~next_hop =
  let s = switch t sw in
  s.s_routes <- set_assoc s.s_routes dst next_hop

let set_backup_route t ~sw ~dst ~next_hop =
  let s = switch t sw in
  s.s_backups <- set_assoc s.s_backups dst next_hop

let set_pair_route t ~sw ~src ~dst ~next_hop =
  let s = switch t sw in
  s.s_pairs <- set_assoc s.s_pairs (src, dst) next_hop

let install_path t ~dst path =
  let rec go = function
    | [] | [ _ ] -> ()
    | a :: (b :: _ as rest) ->
      (match t.sws.(a) with Some _ -> set_route t ~sw:a ~dst ~next_hop:b | None -> ());
      go rest
  in
  go path

let dlink_opt t ~from_ ~to_ =
  let links = t.adj.(from_) in
  let found = ref None in
  Array.iter (fun dl -> if dl.l_to = to_ then found := Some dl) links;
  !found

let set_link_up t ~a ~b up =
  match (dlink_opt t ~from_:a ~to_:b, dlink_opt t ~from_:b ~to_:a) with
  | Some ab, Some ba ->
    ab.l_up <- up;
    ba.l_up <- up
  | _ -> invalid_arg (Printf.sprintf "Simnet.set_link_up: %d and %d not adjacent" a b)

let set_switch_up t ~sw up = (switch t sw).s_up <- up

let drop t reason =
  let n = match List.assoc_opt reason t.drops with Some n -> n | None -> 0 in
  t.drops <- set_assoc t.drops reason (n + 1)

let push t ~at ev = t.q <- Oracle.Queue.push t.q ~at ev

let schedule t ~at f =
  if at < t.time then invalid_arg "Simnet.schedule: past"
  else push t ~at (Thunk f)

(* The link model, expression for expression the same as [Net.transmit]:
   any rewrite that changes the float result by one ULP fails the
   differential. *)
let transmit t dl pkt =
  let tnow = t.time in
  let cap = dl.l_cap in
  let waiting = dl.l_busy -. tnow in
  let backlog_bytes = (if waiting > 0. then waiting else 0.) *. cap /. 8. in
  let size = float_of_int pkt.p_size in
  if not dl.l_up then drop t "link-down"
  else if backlog_bytes +. size > Ff_netsim.Net.queue_limit_bytes then drop t "queue-overflow"
  else begin
    let start = if tnow > dl.l_busy then tnow else dl.l_busy in
    let tx_time = size *. 8. /. cap in
    dl.l_busy <- start +. tx_time;
    dl.l_tx <- dl.l_tx + 1;
    let arrival = dl.l_busy +. dl.l_delay in
    push t ~at:arrival (Arrival { a_to = dl.l_to; a_pkt = pkt })
  end

let send_toward t sw next pkt =
  match dlink_opt t ~from_:sw ~to_:next with
  | Some dl -> transmit t dl pkt
  | None -> drop t "no-link"

(* 0 = entry exists but next hop is a down switch, 1 = sent *)
let forward_via t sw pkt next =
  match t.sws.(next) with
  | Some s when not s.s_up -> 0
  | _ ->
    send_toward t sw next pkt;
    1

let default_forward t sw_id (s : sw) pkt =
  let n = Topology.num_nodes t.topo in
  let src = pkt.p_src and dst = pkt.p_dst in
  let dst_ok = dst >= 0 && dst < n in
  let lookup l k = match List.assoc_opt k l with Some next when next >= 0 -> next | _ -> -1 in
  let pair =
    if s.s_pairs = [] then -1
    else if (not dst_ok) || src < 0 || src >= n then -1
    else
      let next = lookup s.s_pairs (src, dst) in
      if next < 0 then -1 else forward_via t sw_id pkt next
  in
  if pair <> 1 then begin
    let primary =
      if not dst_ok then -1
      else
        let next = lookup s.s_routes dst in
        if next < 0 then -1 else forward_via t sw_id pkt next
    in
    if primary <> 1 then begin
      let backup =
        if s.s_backups = [] || not dst_ok then -1
        else
          let next = lookup s.s_backups dst in
          if next < 0 then -1 else forward_via t sw_id pkt next
      in
      if backup <> 1 then
        drop t (if pair = -1 && primary = -1 && backup = -1 then "no-route" else "next-hop-down")
    end
  end

let receive t ~at pkt =
  match t.sws.(at) with
  | None ->
    (* host: record the delivery instant *)
    let times =
      match List.assoc_opt pkt.p_flow t.delivered with Some l -> l | None -> []
    in
    t.delivered <- set_assoc t.delivered pkt.p_flow (t.time :: times)
  | Some s ->
    if not s.s_up then drop t "switch-down"
    else begin
      (* the default ttl stage, then table forwarding *)
      pkt.p_ttl <- pkt.p_ttl - 1;
      if pkt.p_ttl <= 0 then drop t "ttl-expired" else default_forward t at s pkt
    end

let send_from_host t ~src ~dst ~flow ~size ~ttl =
  let pkt = { p_src = src; p_dst = dst; p_flow = flow; p_size = size; p_ttl = ttl } in
  if src >= 0 && src < Array.length t.adj && Array.length t.adj.(src) > 0 then
    transmit t t.adj.(src).(0) pkt
  else drop t "no-access-link"

let run t ~until =
  let continue_ = ref true in
  while !continue_ do
    match Oracle.Queue.pop t.q with
    | Some ((at, _seq, ev), rest) when at <= until ->
      t.q <- rest;
      t.time <- at;
      (match ev with Thunk f -> f () | Arrival { a_to; a_pkt } -> receive t ~at:a_to a_pkt)
    | _ -> continue_ := false
  done;
  t.time <- until

let deliveries t ~flow =
  match List.assoc_opt flow t.delivered with Some l -> List.rev l | None -> []

let drops_by_reason t = List.sort compare t.drops

let link_tx t ~from_ ~to_ = match dlink_opt t ~from_ ~to_ with Some dl -> dl.l_tx | None -> 0
