module Topology = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow

(* A deterministic CBR scenario over an arbitrary topology, shared by the
   perf benchmark, the CLI and the differential tests. Every host sends
   one constant-rate flow to a partner host across the topology; route
   trees are computed once per destination (one BFS each, not one per
   pair) and installed identically on every net copy.

   Flow start offsets are staggered by an interval incommensurate with
   the sending period so no two distinct events ever fall at exactly the
   same instant: same-time ties between a cross-shard arrival and a local
   event are the one case where the sharded tie rule may order differently
   from a single sequential engine, so the differential workload simply
   avoids creating them. *)

type t = {
  topo : Topology.t;
  pairs : (int * int) array; (* slot -> (src host, dst host) *)
  rate_pps : float;
  duration : float; (* senders stop here *)
  until : float; (* simulate to here (drain slack for in-flight) *)
  route_entries : (int * int * int) list; (* (switch, dst host, next hop) *)
}

type counters = {
  delivered : int array; (* per slot *)
  time_sum : float array; (* sum of delivery times per slot *)
}

let make ?(rate_pps = 2_000.) ?(duration = 0.5) topo =
  let hosts =
    Topology.hosts topo |> List.map (fun (nd : Topology.node) -> nd.Topology.id)
    |> Array.of_list
  in
  let h = Array.length hosts in
  if h < 2 then invalid_arg "Workload.make: need at least two hosts";
  (* partner at half the host list away: in a fat tree that pairs hosts
     across pods, maximizing core (and shard-boundary) crossings *)
  let pairs = Array.init h (fun i -> (hosts.(i), hosts.((i + (h / 2)) mod h))) in
  let dsts = Array.to_list (Array.map snd pairs) |> List.sort_uniq Int.compare in
  let route_entries =
    List.fold_left
      (fun acc dst ->
        let acc = ref acc in
        Topology.route_tree topo ~dst (fun ~sw ~next_hop -> acc := (sw, dst, next_hop) :: !acc);
        !acc)
      [] dsts
  in
  {
    topo;
    pairs;
    rate_pps;
    duration;
    until = duration +. 0.05;
    route_entries;
  }

let fat_tree ?(k = 8) ?rate_pps ?duration () = make ?rate_pps ?duration (Topology.fat_tree ~k ())

let n_flows t = Array.length t.pairs
let until t = t.until
let topo t = t.topo

let fresh_counters t =
  let n = Array.length t.pairs in
  { delivered = Array.make n 0; time_sum = Array.make n 0. }

let install_routes t net =
  List.iter
    (fun (sw, dst, next_hop) -> Net.set_route net ~sw ~dst ~next_hop)
    t.route_entries

(* 1.7e-5 vs millisecond-scale periods: offsets differences are never an
   integer multiple of any sending period in play, so two flows' events
   never coincide (see the module comment) *)
let start_offset slot = 1e-4 +. (float_of_int slot *. 1.7e-5)

let start t counters nets =
  let owning h =
    let rec go i =
      if i >= Array.length nets then invalid_arg "Workload.start: unowned host"
      else if Net.owns nets.(i) h then nets.(i)
      else go (i + 1)
    in
    go 0
  in
  Array.iteri
    (fun slot (src, dst) ->
      let src_net = owning src in
      let cbr =
        Flow.Cbr.start src_net ~src ~dst ~rate_pps:t.rate_pps
          ~at:(start_offset slot) ~stop:t.duration ()
      in
      (* deliveries happen on the net owning [dst]; replace whatever
         receiver [Cbr.start] put on the (possibly different) source-side
         copy with a counting one on the owning copy *)
      let dst_net = owning dst in
      Hashtbl.replace (Net.host dst_net dst).Net.receivers (Flow.Cbr.flow_id cbr)
        (fun (_ : Ff_dataplane.Packet.t) ->
          counters.delivered.(slot) <- counters.delivered.(slot) + 1;
          counters.time_sum.(slot) <- counters.time_sum.(slot) +. Net.now dst_net))
    t.pairs

let setup t counters nets =
  Array.iter (fun net -> install_routes t net) nets;
  start t counters nets

(* Plain single-engine reference run (no Psim, no windows): what the
   differential property compares every sharded configuration against. *)
let run_reference t =
  let engine = Engine.create () in
  let net = Net.create engine t.topo in
  Net.attach_obs net None;
  Net.attach_metrics net None;
  let counters = fresh_counters t in
  setup t counters [| net |];
  Engine.run engine ~until:t.until;
  (counters, net)

let total_delivered c = Array.fold_left ( + ) 0 c.delivered
