module Topology = Ff_topology.Topology

(* Weight-balanced greedy-growth partition.

   Work in a packet simulation follows the hosts: every flow's first and
   last hops run on the shard owning its endpoints. So a switch weighs 1
   plus the hosts it serves (hosts whose first neighbor it is), and each
   region is grown to its share of the remaining weight, not of the
   switch count — a count-balanced split of a fat-tree puts most edge
   switches, and so most hosts, on one shard.

   Growth is greedy rather than breadth-first. A region is seeded at the
   lowest-id unassigned switch with the fewest unassigned switch
   neighbors (a periphery switch: an edge switch in a fat-tree), then
   repeatedly takes the frontier switch with the best gain — links into
   the region minus links to unassigned switches — ties broken by lowest
   id. Preferring switches whose neighbors are already inside keeps the
   region compact (whole pods before stray cores), which keeps the
   cross-shard traffic the parallel engine must exchange low. Seeds, gains
   and ties depend only on the topology, so the result is a pure function
   of it, as the deterministic cross-shard tie rule requires. *)
let partition topo ~shards =
  let n = Topology.num_nodes topo in
  let n_sw = List.length (Topology.switches topo) in
  if shards < 1 then invalid_arg "Regions.partition: shards < 1";
  if shards > n_sw then
    invalid_arg
      (Printf.sprintf "Regions.partition: %d shards > %d switches" shards n_sw);
  let is_switch = Array.make n false in
  List.iter
    (fun (nd : Topology.node) -> is_switch.(nd.Topology.id) <- nd.Topology.kind = Topology.Switch)
    (Topology.nodes topo);
  let switch_peers =
    Array.init n (fun v ->
        if is_switch.(v) then
          List.filter_map
            (fun (peer, _) -> if is_switch.(peer) then Some peer else None)
            (Topology.neighbors topo v)
        else [])
  in
  (* hosts follow their first neighbor (matching [Net.access_switch]) *)
  let access h = match Topology.neighbors topo h with (peer, _) :: _ -> Some peer | [] -> None in
  let weight = Array.map (fun sw -> if sw then 1 else 0) is_switch in
  List.iter
    (fun (nd : Topology.node) ->
      match access nd.Topology.id with
      | Some sw when is_switch.(sw) -> weight.(sw) <- weight.(sw) + 1
      | _ -> ())
    (Topology.hosts topo);
  let shard_of = Array.make n (-1) in
  (* per unassigned switch: links into the region being grown, and links
     to switches not yet in any region *)
  let inside = Array.make n 0 in
  let outside = Array.map List.length switch_peers in
  let free = ref n_sw and rest = ref (Array.fold_left ( + ) 0 weight) in
  let take s u =
    shard_of.(u) <- s;
    decr free;
    rest := !rest - weight.(u);
    List.iter
      (fun v ->
        outside.(v) <- outside.(v) - 1;
        if shard_of.(v) < 0 then inside.(v) <- inside.(v) + 1)
      switch_peers.(u);
    weight.(u)
  in
  (* the unassigned switch with the highest score, lowest id among equals;
     [-1] when none qualifies *)
  let best ~frontier score =
    let pick = ref (-1) in
    for v = 0 to n - 1 do
      if is_switch.(v) && shard_of.(v) < 0 && ((not frontier) || inside.(v) > 0)
         && (!pick < 0 || score v > score !pick)
      then pick := v
    done;
    !pick
  in
  let seed () = best ~frontier:false (fun v -> -outside.(v)) in
  for s = 0 to shards - 1 do
    Array.fill inside 0 n 0;
    (* share of the remaining weight, rounded up; the last region takes
       everything, and every later region keeps at least one switch *)
    let target = (!rest + (shards - s - 1)) / (shards - s) in
    let taken = ref (take s (seed ())) in
    while !taken < target && !free > shards - s - 1 do
      let u =
        match best ~frontier:true (fun v -> inside.(v) - outside.(v)) with
        | -1 -> seed () (* frontier exhausted: continue in another component *)
        | u -> u
      in
      taken := !taken + take s u
    done
  done;
  (* hosts join their access switch's region; isolated hosts (or hosts
     behind another host) land in region 0 *)
  List.iter
    (fun (nd : Topology.node) ->
      let id = nd.Topology.id in
      shard_of.(id) <-
        (match access id with Some sw when is_switch.(sw) -> shard_of.(sw) | _ -> 0))
    (Topology.hosts topo);
  shard_of

let lookahead topo ~shard_of =
  let la =
    List.fold_left
      (fun acc (l : Topology.link) ->
        if shard_of.(l.Topology.a) <> shard_of.(l.Topology.b) then begin
          if l.Topology.delay <= 0. then
            invalid_arg
              (Printf.sprintf
                 "Regions.lookahead: cross-region link %d-%d has zero delay \
                  (no conservative window possible)"
                 l.Topology.a l.Topology.b);
          Float.min acc l.Topology.delay
        end
        else acc)
      infinity (Topology.links topo)
  in
  la

let ownership shard_of ~shard =
  let n = Array.length shard_of in
  let b = Bytes.make n '\000' in
  for i = 0 to n - 1 do
    if shard_of.(i) = shard then Bytes.set b i '\001'
  done;
  b

let sizes shard_of ~shards =
  let counts = Array.make shards 0 in
  Array.iter (fun s -> if s >= 0 then counts.(s) <- counts.(s) + 1) shard_of;
  counts

let cross_links topo ~shard_of =
  List.filter
    (fun (l : Topology.link) -> shard_of.(l.Topology.a) <> shard_of.(l.Topology.b))
    (Topology.links topo)
