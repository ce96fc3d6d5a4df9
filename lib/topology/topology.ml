type node_kind = Host | Switch

type node = { id : int; kind : node_kind; name : string }

type link = {
  link_id : int;
  a : int;
  b : int;
  capacity : float;
  delay : float;
}

type t = {
  mutable nodes_rev : node list;
  mutable links_rev : link list;
  mutable nnodes : int;
  mutable nlinks : int;
  (* dense by id, capacity >= nnodes / nlinks *)
  mutable node_arr : node array;
  mutable link_arr : link array;
  mutable adjacency : (int * link) list array;
  by_name : (string, int) Hashtbl.t;
}

let create () =
  {
    nodes_rev = [];
    links_rev = [];
    nnodes = 0;
    nlinks = 0;
    node_arr = [||];
    link_arr = [||];
    adjacency = [||];
    by_name = Hashtbl.create 64;
  }

(* [a] grown to hold index [i], new slots filled with [x] *)
let grow a i x =
  if i < Array.length a then a
  else Array.init (max 8 (2 * Array.length a)) (fun k -> if k < Array.length a then a.(k) else x)

let add_node t ~kind ~name =
  if Hashtbl.mem t.by_name name then invalid_arg ("Topology.add_node: duplicate name " ^ name);
  let id = t.nnodes in
  let n = { id; kind; name } in
  t.nnodes <- id + 1;
  t.nodes_rev <- n :: t.nodes_rev;
  t.node_arr <- grow t.node_arr id n;
  t.node_arr.(id) <- n;
  t.adjacency <- grow t.adjacency id [];
  t.adjacency.(id) <- [];
  Hashtbl.replace t.by_name name id;
  id

let adj t n = if n >= 0 && n < t.nnodes then t.adjacency.(n) else []

let find_link t a b =
  List.find_map (fun (peer, l) -> if peer = b then Some l else None) (adj t a)

(* the capacity of a link no builder sizes otherwise, b/s *)
let link_capacity = 10_000_000.

let add_link t ?(capacity = link_capacity) ?(delay = 0.001) a b =
  if a = b then invalid_arg "Topology.add_link: self loop";
  if a < 0 || a >= t.nnodes || b < 0 || b >= t.nnodes then
    invalid_arg "Topology.add_link: unknown node";
  if find_link t a b <> None then invalid_arg "Topology.add_link: duplicate link";
  let link_id = t.nlinks in
  t.nlinks <- link_id + 1;
  let l = { link_id; a; b; capacity; delay } in
  t.links_rev <- l :: t.links_rev;
  t.link_arr <- grow t.link_arr link_id l;
  t.link_arr.(link_id) <- l;
  t.adjacency.(a) <- (b, l) :: t.adjacency.(a);
  t.adjacency.(b) <- (a, l) :: t.adjacency.(b);
  link_id

let nodes t = List.rev t.nodes_rev
let links t = List.rev t.links_rev
let num_nodes t = t.nnodes
let num_links t = t.nlinks

let node t id =
  if id < 0 || id >= t.nnodes then invalid_arg "Topology.node: bad id";
  t.node_arr.(id)

let link t id =
  if id < 0 || id >= t.nlinks then invalid_arg "Topology.link: bad id";
  t.link_arr.(id)

let hosts t = List.filter (fun n -> n.kind = Host) (nodes t)
let switches t = List.filter (fun n -> n.kind = Switch) (nodes t)

let neighbors t n = List.rev (adj t n)

let link_other_end l n =
  if l.a = n then l.b
  else begin
    assert (l.b = n);
    l.a
  end

let node_by_name t name = node t (Hashtbl.find t.by_name name)

let degree t n = List.length (adj t n)

type path = int list

let path_links t p =
  let rec go = function
    | [] | [ _ ] -> []
    | a :: (b :: _ as rest) ->
      (match find_link t a b with
      | Some l -> l :: go rest
      | None -> invalid_arg "Topology.path_links: non-adjacent nodes")
  in
  go p

let path_delay t p = List.fold_left (fun acc l -> acc +. l.delay) 0. (path_links t p)

(* The one shortest-path loop: breadth-first over hop count, the only
   path metric. Fills [dist]/[prev] (all infinity/-1 on entry) from [src]
   over the whole graph; hosts are never used as transit (only as
   endpoints), and [stop] is not expanded either (-1 expands every switch).
   A node is queued once, when first reached, so [queue] holds at most
   every node. *)
let bfs_tree t ~src ~stop ~node_banned ~link_banned dist prev =
  let queue = Array.make t.nnodes 0 in
  let head = ref 0 and tail = ref 1 in
  dist.(src) <- 0.;
  queue.(0) <- src;
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    if u <> stop && (u = src || t.node_arr.(u).kind = Switch) then begin
      let nd = dist.(u) +. 1. in
      let rest = ref t.adjacency.(u) in
      while !rest != [] do
        match !rest with
        | (v, l) :: tl ->
          rest := tl;
          if dist.(v) = infinity && not (link_banned l.link_id || node_banned v) then begin
            dist.(v) <- nd;
            prev.(v) <- u;
            queue.(!tail) <- v;
            incr tail
          end
        | [] -> ()
      done
    end
  done

let tree_path ~src prev v =
  let rec build acc v = if v = src then src :: acc else build (v :: acc) prev.(v) in
  build [] v

let bfs_path t ~src ~dst ~node_banned ~link_banned =
  let n = t.nnodes in
  if src < 0 || src >= n || dst < 0 || dst >= n then invalid_arg "Topology.shortest_path";
  let dist = Array.make n infinity and prev = Array.make n (-1) in
  bfs_tree t ~src ~stop:dst ~node_banned ~link_banned dist prev;
  if dist.(dst) = infinity then None else Some (tree_path ~src prev dst, dist.(dst))

let never (_ : int) = false

let shortest_path_excluding t ~src ~dst ~banned_nodes ~banned_links =
  bfs_path t ~src ~dst
    ~node_banned:(fun v -> Hashtbl.mem banned_nodes v)
    ~link_banned:(fun l -> Hashtbl.mem banned_links l)

let shortest_path t ~src ~dst =
  Option.map fst (bfs_path t ~src ~dst ~node_banned:never ~link_banned:never)

(* Leaving [dst] unexpanded cannot change its own path: expanding it only
   reaches nodes farther than it, and a prev entry is written only when its
   node is first reached. So one tree serves every destination. *)
let shortest_paths_from t ~src =
  let n = t.nnodes in
  if src < 0 || src >= n then invalid_arg "Topology.shortest_paths_from";
  let dist = Array.make n infinity and prev = Array.make n (-1) in
  bfs_tree t ~src ~stop:(-1) ~node_banned:never ~link_banned:never dist prev;
  fun dst ->
    if dst < 0 || dst >= n then invalid_arg "Topology.shortest_paths_from";
    if dist.(dst) = infinity then None else Some (tree_path ~src prev dst)

(* Yen's k-shortest loop-free paths. *)
let k_shortest_paths ?(k = 4) t ~src ~dst =
  match shortest_path t ~src ~dst with
  | None -> []
  | Some first ->
    let accepted = ref [ first ] in
    let candidates = ref [] in
    let add_candidate p =
      if not (List.mem p !candidates) && not (List.mem p !accepted) then
        candidates := p :: !candidates
    in
    let rec iterate () =
      if List.length !accepted >= k then ()
      else begin
        let last = List.hd (List.rev !accepted) in
        let last_arr = Array.of_list last in
        (* spur from every node of the previous accepted path except dst *)
        for i = 0 to Array.length last_arr - 2 do
          let spur = last_arr.(i) in
          let root = Array.to_list (Array.sub last_arr 0 (i + 1)) in
          let banned_links = Hashtbl.create 8 in
          let banned_nodes = Hashtbl.create 8 in
          (* ban links used by accepted paths sharing this root *)
          List.iter
            (fun p ->
              let parr = Array.of_list p in
              if Array.length parr > i + 1 && Array.sub parr 0 (i + 1) = Array.sub last_arr 0 (i + 1)
              then
                match find_link t parr.(i) parr.(i + 1) with
                | Some l -> Hashtbl.replace banned_links l.link_id ()
                | None -> ())
            !accepted;
          (* ban root nodes except the spur itself *)
          List.iteri (fun j v -> if j < i then Hashtbl.replace banned_nodes v ()) root;
          match shortest_path_excluding t ~src:spur ~dst ~banned_nodes ~banned_links with
          | Some (tail, _) -> add_candidate (root @ List.tl tail)
          | None -> ()
        done;
        match !candidates with
        | [] -> ()
        | cs ->
          let best =
            List.fold_left
              (fun acc p ->
                match acc with
                | None -> Some p
                | Some q -> if List.length p < List.length q then Some p else acc)
              None cs
          in
          (match best with
          | None -> ()
          | Some p ->
            candidates := List.filter (fun q -> q <> p) !candidates;
            accepted := !accepted @ [ p ];
            iterate ())
      end
    in
    iterate ();
    !accepted

(* a pure function of the topology: every caller gets the same tree *)
let route_tree t ~dst f =
  match neighbors t dst with
  | [] -> ()
  | (asw, _) :: _ ->
    let seen = Array.make t.nnodes false in
    seen.(asw) <- true;
    let q = Queue.create () in
    Queue.add asw q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun (peer, _) ->
          if (not seen.(peer)) && t.node_arr.(peer).kind = Switch then begin
            seen.(peer) <- true;
            (* a packet at [peer] moves toward [u], one hop closer *)
            f ~sw:peer ~next_hop:u;
            Queue.add peer q
          end)
        (neighbors t u)
    done

let is_connected t =
  if t.nnodes = 0 then true
  else begin
    let seen = Array.make t.nnodes false in
    let rec dfs u =
      if not seen.(u) then begin
        seen.(u) <- true;
        List.iter (fun (v, _) -> dfs v) (adj t u)
      end
    in
    dfs 0;
    Array.for_all Fun.id seen
  end

let edge_betweenness t =
  let counts = Hashtbl.create (max 1 t.nlinks) in
  List.iter (fun l -> Hashtbl.replace counts l.link_id 0.) (links t);
  let hs = hosts t in
  List.iter
    (fun h1 ->
      List.iter
        (fun h2 ->
          if h1.id < h2.id then
            (* split the pair's weight across equal-cost shortest paths
               (ECMP-style), so parallel critical links both register *)
            match k_shortest_paths ~k:4 t ~src:h1.id ~dst:h2.id with
            | [] -> ()
            | (first :: _) as paths ->
              let short_len = List.length first in
              let equal_cost = List.filter (fun p -> List.length p = short_len) paths in
              let share = 1. /. float_of_int (List.length equal_cost) in
              List.iter
                (fun p ->
                  List.iter
                    (fun l ->
                      Hashtbl.replace counts l.link_id
                        (Hashtbl.find counts l.link_id +. share))
                    (path_links t p))
                equal_cost)
        hs)
    hs;
  counts

let critical_links t ~n =
  let counts = edge_betweenness t in
  let core_links =
    List.filter
      (fun l -> (node t l.a).kind = Switch && (node t l.b).kind = Switch)
      (links t)
  in
  (* attack cost scales with capacity: the attractive targets are links
     many paths cross relative to how much traffic it takes to flood them *)
  let value l = Hashtbl.find counts l.link_id /. l.capacity in
  let sorted = List.sort (fun l1 l2 -> compare (value l2) (value l1)) core_links in
  List.filteri (fun i _ -> i < n) sorted

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

let linear ~n () =
  assert (n >= 1);
  let t = create () in
  let h0 = add_node t ~kind:Host ~name:"h0" in
  let sw = Array.init n (fun i -> add_node t ~kind:Switch ~name:(Printf.sprintf "s%d" i)) in
  let h1 = add_node t ~kind:Host ~name:"h1" in
  ignore (add_link t h0 sw.(0));
  for i = 0 to n - 2 do
    ignore (add_link t sw.(i) sw.(i + 1))
  done;
  ignore (add_link t sw.(n - 1) h1);
  t

let ring ~n () =
  assert (n >= 3);
  let t = create () in
  let sw = Array.init n (fun i -> add_node t ~kind:Switch ~name:(Printf.sprintf "s%d" i)) in
  for i = 0 to n - 1 do
    ignore (add_link t sw.(i) sw.((i + 1) mod n))
  done;
  Array.iteri
    (fun i s ->
      let h = add_node t ~kind:Host ~name:(Printf.sprintf "h%d" i) in
      ignore (add_link t ~capacity:(2. *. link_capacity) h s))
    sw;
  t

let dumbbell ?(capacity = link_capacity) ?(bottleneck = link_capacity) ~pairs () =
  assert (pairs >= 1);
  let t = create () in
  let sl = add_node t ~kind:Switch ~name:"left" in
  let sr = add_node t ~kind:Switch ~name:"right" in
  ignore (add_link t ~capacity:bottleneck sl sr);
  for i = 0 to pairs - 1 do
    let snd_h = add_node t ~kind:Host ~name:(Printf.sprintf "src%d" i) in
    let rcv_h = add_node t ~kind:Host ~name:(Printf.sprintf "dst%d" i) in
    ignore (add_link t ~capacity snd_h sl);
    ignore (add_link t ~capacity rcv_h sr)
  done;
  t

let fat_tree ~k () =
  if k < 2 || k mod 2 <> 0 then invalid_arg "Topology.fat_tree: k must be even and >= 2";
  let t = create () in
  let half = k / 2 in
  let cores =
    Array.init (half * half) (fun i -> add_node t ~kind:Switch ~name:(Printf.sprintf "core%d" i))
  in
  for pod = 0 to k - 1 do
    let aggs =
      Array.init half (fun i ->
          add_node t ~kind:Switch ~name:(Printf.sprintf "agg%d_%d" pod i))
    in
    let edges =
      Array.init half (fun i ->
          add_node t ~kind:Switch ~name:(Printf.sprintf "edge%d_%d" pod i))
    in
    Array.iteri
      (fun ai agg ->
        Array.iter (fun e -> ignore (add_link t agg e)) edges;
        for ci = 0 to half - 1 do
          ignore (add_link t agg cores.((ai * half) + ci))
        done)
      aggs;
    Array.iteri
      (fun ei edge ->
        for hi = 0 to half - 1 do
          let h = add_node t ~kind:Host ~name:(Printf.sprintf "h%d_%d_%d" pod ei hi) in
          ignore (add_link t h edge)
        done)
      edges
  done;
  t

let abilene () =
  let t = create () in
  let names =
    [| "seattle"; "sunnyvale"; "losangeles"; "denver"; "kansascity"; "houston"; "chicago";
       "indianapolis"; "atlanta"; "washington"; "newyork" |]
  in
  let sw = Array.map (fun n -> add_node t ~kind:Switch ~name:n) names in
  let edges =
    [ (0, 1); (0, 3); (1, 2); (1, 3); (2, 5); (3, 4); (4, 5); (4, 7); (5, 8); (6, 7); (6, 10);
      (7, 8); (8, 9); (9, 10) ]
  in
  List.iter (fun (a, b) -> ignore (add_link t ~delay:0.005 sw.(a) sw.(b))) edges;
  Array.iteri
    (fun i s ->
      let h = add_node t ~kind:Host ~name:(Printf.sprintf "h_%s" names.(i)) in
      ignore (add_link t ~capacity:(4. *. link_capacity) h s))
    sw;
  t

let waxman ~n ~seed () =
  assert (n >= 2);
  (* link probability alpha * exp (-d / (beta * dmax)) *)
  let alpha = 0.6 and beta = 0.4 in
  let rec attempt try_seed =
    let rng = Ff_util.Prng.create ~seed:try_seed in
    let t = create () in
    let sw = Array.init n (fun i -> add_node t ~kind:Switch ~name:(Printf.sprintf "s%d" i)) in
    let xy = Array.init n (fun _ -> (Ff_util.Prng.float rng 1., Ff_util.Prng.float rng 1.)) in
    let dist i j =
      let xi, yi = xy.(i) and xj, yj = xy.(j) in
      sqrt (((xi -. xj) ** 2.) +. ((yi -. yj) ** 2.))
    in
    let dmax = sqrt 2. in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let p = alpha *. exp (-.dist i j /. (beta *. dmax)) in
        if Ff_util.Prng.float rng 1. < p then ignore (add_link t sw.(i) sw.(j))
      done
    done;
    if is_connected t then begin
      Array.iteri
        (fun i s ->
          let h = add_node t ~kind:Host ~name:(Printf.sprintf "h%d" i) in
          ignore (add_link t ~capacity:(2. *. link_capacity) h s))
        sw;
      t
    end
    else attempt (try_seed + 1)
  in
  attempt seed

let isp ?(cores = 12) ?(access_per_core = 2) ?(hosts_per_access = 4) () =
  assert (cores >= 3 && access_per_core >= 1 && hosts_per_access >= 1);
  let core_capacity = 2_000_000_000. and access_capacity = 1_000_000_000. in
  let host_capacity = 400_000_000. in
  let t = create () in
  let core =
    Array.init cores (fun i -> add_node t ~kind:Switch ~name:(Printf.sprintf "core%d" i))
  in
  let core_link a b = ignore (add_link t ~capacity:core_capacity ~delay:0.002 core.(a) core.(b)) in
  for i = 0 to cores - 1 do
    core_link i ((i + 1) mod cores)
  done;
  (* chords keep core paths short so no single PoP carries much transit *)
  if cores > 4 then
    for i = 0 to cores - 1 do
      if i mod 2 = 0 then core_link i ((i + 2) mod cores)
    done;
  if cores >= 8 then
    for i = 0 to (cores / 2) - 1 do
      if i mod 2 = 0 then core_link i ((i + (cores / 2)) mod cores)
    done;
  for i = 0 to cores - 1 do
    for j = 0 to access_per_core - 1 do
      let a = add_node t ~kind:Switch ~name:(Printf.sprintf "a%d_%d" i j) in
      ignore (add_link t ~capacity:access_capacity ~delay:0.0005 core.(i) a);
      for k = 0 to hosts_per_access - 1 do
        let h = add_node t ~kind:Host ~name:(Printf.sprintf "h%d_%d_%d" i j k) in
        ignore (add_link t ~capacity:host_capacity ~delay:0.0001 a h)
      done
    done
  done;
  t

module Fig2 = struct
  type landmarks = {
    topo : t;
    normal_sources : int list;
    bot_sources : int list;
    victim : int;
    decoys : int list;
    critical : link list;
    agg : int;
    victim_agg : int;
    detour : int list;
  }

  let build ?(bots = 4) ?(normals = 4) () =
    let core_capacity = 10_000_000. and detour_capacity = 20_000_000. in
    let edge_capacity = 40_000_000. in
    let t = create () in
    let sw name = add_node t ~kind:Switch ~name in
    let e1 = sw "e1" and e2 = sw "e2" in
    let agg = sw "agg" in
    let m1 = sw "m1" and m2 = sw "m2" in
    let vagg = sw "vagg" in
    let d1 = sw "d1" and d2 = sw "d2" in
    let ve1 = sw "ve1" and ve2 = sw "ve2" in
    let core a b = ignore (add_link t ~capacity:core_capacity ~delay:0.002 a b) in
    let edge a b = ignore (add_link t ~capacity:edge_capacity ~delay:0.001 a b) in
    edge e1 agg;
    edge e2 agg;
    (* the two critical links *)
    core agg m1;
    core agg m2;
    core m1 vagg;
    core m2 vagg;
    (* the longer (but better-provisioned) detour path *)
    ignore (add_link t ~capacity:detour_capacity ~delay:0.006 agg d1);
    ignore (add_link t ~capacity:detour_capacity ~delay:0.006 d1 d2);
    ignore (add_link t ~capacity:detour_capacity ~delay:0.006 d2 vagg);
    edge vagg ve1;
    edge vagg ve2;
    let host name s =
      let h = add_node t ~kind:Host ~name in
      ignore (add_link t ~capacity:edge_capacity ~delay:0.0005 h s);
      h
    in
    let normal_sources =
      List.init normals (fun i -> host (Printf.sprintf "n%d" i) (if i mod 2 = 0 then e1 else e2))
    in
    let bot_sources =
      List.init bots (fun i -> host (Printf.sprintf "b%d" i) (if i mod 2 = 0 then e1 else e2))
    in
    let victim = host "victim" ve1 in
    let decoys = [ host "decoy1" ve1; host "decoy2" ve2 ] in
    let critical =
      [ Option.get (find_link t agg m1); Option.get (find_link t agg m2) ]
    in
    { topo = t; normal_sources; bot_sources; victim; decoys; critical; agg; victim_agg = vagg;
      detour = [ d1; d2 ] }
end
