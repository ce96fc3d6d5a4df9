(* Tests for Ff_topology: graph construction, builders, path algorithms. *)

module T = Ff_topology.Topology

let test_build_basic () =
  let t = T.create () in
  let a = T.add_node t ~kind:T.Switch ~name:"a" in
  let b = T.add_node t ~kind:T.Switch ~name:"b" in
  let h = T.add_node t ~kind:T.Host ~name:"h" in
  let l = T.add_link t ~capacity:1e6 ~delay:0.01 a b in
  ignore (T.add_link t h a);
  Alcotest.(check int) "nodes" 3 (T.num_nodes t);
  Alcotest.(check int) "links" 2 (T.num_links t);
  Alcotest.(check int) "degree a" 2 (T.degree t a);
  let link = T.link t l in
  Alcotest.(check (float 0.)) "capacity" 1e6 link.T.capacity;
  Alcotest.(check int) "other end" b (T.link_other_end link a);
  Alcotest.(check bool) "find_link symmetric" true
    (T.find_link t b a = Some link)

let test_reject_self_loop () =
  let t = T.create () in
  let a = T.add_node t ~kind:T.Switch ~name:"a" in
  Alcotest.check_raises "self loop" (Invalid_argument "Topology.add_link: self loop") (fun () ->
      ignore (T.add_link t a a))

let test_reject_duplicate_link () =
  let t = T.create () in
  let a = T.add_node t ~kind:T.Switch ~name:"a" in
  let b = T.add_node t ~kind:T.Switch ~name:"b" in
  ignore (T.add_link t a b);
  Alcotest.check_raises "duplicate" (Invalid_argument "Topology.add_link: duplicate link")
    (fun () -> ignore (T.add_link t b a))

let test_reject_duplicate_name () =
  let t = T.create () in
  ignore (T.add_node t ~kind:T.Switch ~name:"a");
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Topology.add_node: duplicate name a") (fun () ->
      ignore (T.add_node t ~kind:T.Host ~name:"a"))

let test_linear_builder () =
  let t = T.linear ~n:3 () in
  Alcotest.(check int) "nodes" 5 (T.num_nodes t);
  Alcotest.(check int) "links" 4 (T.num_links t);
  let h0 = (T.node_by_name t "h0").T.id and h1 = (T.node_by_name t "h1").T.id in
  match T.shortest_path t ~src:h0 ~dst:h1 with
  | Some p -> Alcotest.(check int) "path length" 5 (List.length p)
  | None -> Alcotest.fail "no path"

let test_ring_builder () =
  let t = T.ring ~n:6 () in
  Alcotest.(check int) "switches" 6 (List.length (T.switches t));
  Alcotest.(check int) "hosts" 6 (List.length (T.hosts t));
  Alcotest.(check bool) "connected" true (T.is_connected t)

let test_dumbbell_builder () =
  let t = T.dumbbell ~pairs:3 () in
  Alcotest.(check int) "hosts" 6 (List.length (T.hosts t));
  Alcotest.(check int) "switches" 2 (List.length (T.switches t))

let test_fat_tree_builder () =
  let t = T.fat_tree ~k:4 () in
  (* k=4: 4 cores, 8 aggs, 8 edges, 16 hosts *)
  Alcotest.(check int) "switches" 20 (List.length (T.switches t));
  Alcotest.(check int) "hosts" 16 (List.length (T.hosts t));
  Alcotest.(check bool) "connected" true (T.is_connected t);
  (* any two hosts in different pods are <= 6 hops apart *)
  let hosts = T.hosts t in
  let h1 = List.hd hosts and h2 = List.nth hosts (List.length hosts - 1) in
  match T.shortest_path t ~src:h1.T.id ~dst:h2.T.id with
  | Some p -> Alcotest.(check bool) "diameter" true (List.length p <= 7)
  | None -> Alcotest.fail "no path in fat tree"

let test_fat_tree_odd_k () =
  Alcotest.check_raises "odd k"
    (Invalid_argument "Topology.fat_tree: k must be even and >= 2") (fun () ->
      ignore (T.fat_tree ~k:3 ()))

let test_abilene_builder () =
  let t = T.abilene () in
  Alcotest.(check int) "switches" 11 (List.length (T.switches t));
  Alcotest.(check int) "hosts" 11 (List.length (T.hosts t));
  Alcotest.(check bool) "connected" true (T.is_connected t)

let test_waxman_connected () =
  for seed = 1 to 5 do
    let t = T.waxman ~n:12 ~seed () in
    Alcotest.(check bool) "connected" true (T.is_connected t)
  done

let test_hosts_not_transit () =
  (* two switches joined only through a host must not be connected for
     routing purposes *)
  let t = T.create () in
  let s1 = T.add_node t ~kind:T.Switch ~name:"s1" in
  let s2 = T.add_node t ~kind:T.Switch ~name:"s2" in
  let h = T.add_node t ~kind:T.Host ~name:"h" in
  ignore (T.add_link t s1 h);
  ignore (T.add_link t h s2);
  Alcotest.(check (option (list int))) "no transit through host" None
    (T.shortest_path t ~src:s1 ~dst:s2)

let test_hop_count_ignores_delay () =
  let t = T.create () in
  let a = T.add_node t ~kind:T.Switch ~name:"a" in
  let b = T.add_node t ~kind:T.Switch ~name:"b" in
  let c = T.add_node t ~kind:T.Switch ~name:"c" in
  ignore (T.add_link t ~delay:0.010 a b);
  ignore (T.add_link t ~delay:0.001 a c);
  ignore (T.add_link t ~delay:0.001 c b);
  (* the direct link wins on hop count although the 2-hop detour is
     faster *)
  Alcotest.(check (option (list int))) "hops" (Some [ a; b ]) (T.shortest_path t ~src:a ~dst:b)

let test_k_shortest_paths () =
  let lm = T.Fig2.build () in
  let t = lm.T.Fig2.topo in
  let src = List.hd lm.T.Fig2.normal_sources in
  let paths = T.k_shortest_paths ~k:4 t ~src ~dst:lm.T.Fig2.victim in
  Alcotest.(check bool) "at least 3 distinct paths" true (List.length paths >= 3);
  (* increasing length *)
  let lens = List.map List.length paths in
  Alcotest.(check (list int)) "sorted by length" (List.sort compare lens) lens;
  (* all loop-free and valid *)
  List.iter
    (fun p ->
      Alcotest.(check int) "no repeated node" (List.length p)
        (List.length (List.sort_uniq compare p));
      ignore (T.path_links t p))
    paths;
  (* all distinct *)
  Alcotest.(check int) "distinct" (List.length paths)
    (List.length (List.sort_uniq compare paths))

let test_path_helpers () =
  let t = T.linear ~n:2 () in
  let h0 = (T.node_by_name t "h0").T.id in
  let h1 = (T.node_by_name t "h1").T.id in
  let p = Option.get (T.shortest_path t ~src:h0 ~dst:h1) in
  Alcotest.(check int) "links on path" 3 (List.length (T.path_links t p));
  Alcotest.(check bool) "positive delay" true (T.path_delay t p > 0.)

let test_path_links_invalid () =
  let t = T.linear ~n:3 () in
  Alcotest.check_raises "non adjacent"
    (Invalid_argument "Topology.path_links: non-adjacent nodes") (fun () ->
      ignore (T.path_links t [ 0; 4 ]))

let test_critical_links_fig2 () =
  let lm = T.Fig2.build () in
  let t = lm.T.Fig2.topo in
  (* the attacker's metric must rank the two designed critical links at the
     top among agg-adjacent core links *)
  let crit = T.critical_links t ~n:4 in
  let designed = List.map (fun l -> l.T.link_id) lm.T.Fig2.critical in
  let found = List.map (fun l -> l.T.link_id) crit in
  List.iter
    (fun d ->
      Alcotest.(check bool) "designed critical link is ranked high" true (List.mem d found))
    designed

let test_fig2_landmarks () =
  let lm = T.Fig2.build ~bots:6 ~normals:3 () in
  Alcotest.(check int) "bots" 6 (List.length lm.T.Fig2.bot_sources);
  Alcotest.(check int) "normals" 3 (List.length lm.T.Fig2.normal_sources);
  Alcotest.(check int) "decoys" 2 (List.length lm.T.Fig2.decoys);
  Alcotest.(check int) "two critical links" 2 (List.length lm.T.Fig2.critical);
  Alcotest.(check bool) "connected" true (T.is_connected lm.T.Fig2.topo)

let test_edge_betweenness_positive () =
  let t = T.dumbbell ~pairs:2 () in
  let counts = T.edge_betweenness t in
  (* the bottleneck link carries all 4x3/2=6... at least the 4 cross pairs *)
  let bottleneck = Option.get (T.find_link t 0 1) in
  let c = Hashtbl.find counts bottleneck.T.link_id in
  Alcotest.(check bool) "bottleneck is busiest" true (c >= 4.)

let prop_waxman_paths_valid =
  QCheck.Test.make ~name:"waxman shortest paths are adjacency-valid" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let t = T.waxman ~n:8 ~seed () in
      let hosts = T.hosts t in
      List.for_all
        (fun (h1 : T.node) ->
          List.for_all
            (fun (h2 : T.node) ->
              h1.T.id = h2.T.id
              ||
              match T.shortest_path t ~src:h1.T.id ~dst:h2.T.id with
              | None -> false
              | Some p -> (
                try
                  ignore (T.path_links t p);
                  List.hd p = h1.T.id && List.nth p (List.length p - 1) = h2.T.id
                with _ -> false))
            hosts)
        hosts)

let prop_yen_first_is_shortest =
  QCheck.Test.make ~name:"yen's first path equals dijkstra's" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let t = T.waxman ~n:8 ~seed () in
      let hosts = T.hosts t in
      let h1 = List.hd hosts and h2 = List.nth hosts (List.length hosts - 1) in
      match (T.shortest_path t ~src:h1.T.id ~dst:h2.T.id,
             T.k_shortest_paths ~k:3 t ~src:h1.T.id ~dst:h2.T.id) with
      | Some sp, yp :: _ -> List.length sp = List.length yp
      | None, [] -> true
      | _ -> false)

let () =
  let qcheck =
    List.map Test_seed.to_alcotest [ prop_waxman_paths_valid; prop_yen_first_is_shortest ]
  in
  Alcotest.run "ff_topology"
    [
      ( "construction",
        [
          Alcotest.test_case "basic" `Quick test_build_basic;
          Alcotest.test_case "reject self loop" `Quick test_reject_self_loop;
          Alcotest.test_case "reject duplicate link" `Quick test_reject_duplicate_link;
          Alcotest.test_case "reject duplicate name" `Quick test_reject_duplicate_name;
        ] );
      ( "builders",
        [
          Alcotest.test_case "linear" `Quick test_linear_builder;
          Alcotest.test_case "ring" `Quick test_ring_builder;
          Alcotest.test_case "dumbbell" `Quick test_dumbbell_builder;
          Alcotest.test_case "fat tree" `Quick test_fat_tree_builder;
          Alcotest.test_case "fat tree odd k" `Quick test_fat_tree_odd_k;
          Alcotest.test_case "abilene" `Quick test_abilene_builder;
          Alcotest.test_case "waxman connected" `Quick test_waxman_connected;
          Alcotest.test_case "fig2 landmarks" `Quick test_fig2_landmarks;
        ] );
      ( "paths",
        [
          Alcotest.test_case "hosts not transit" `Quick test_hosts_not_transit;
          Alcotest.test_case "hop count ignores delay" `Quick test_hop_count_ignores_delay;
          Alcotest.test_case "k shortest paths" `Quick test_k_shortest_paths;
          Alcotest.test_case "path helpers" `Quick test_path_helpers;
          Alcotest.test_case "invalid path rejected" `Quick test_path_links_invalid;
        ] );
      ( "betweenness",
        [
          Alcotest.test_case "critical links in fig2" `Quick test_critical_links_fig2;
          Alcotest.test_case "bottleneck betweenness" `Quick test_edge_betweenness_positive;
        ] );
      ("properties", qcheck);
    ]
