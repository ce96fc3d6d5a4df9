(* Tests for Ff_oracle: the reference queue and routing semantics. *)

module T = Ff_topology.Topology
module Oracle = Ff_oracle.Oracle

(* ---------------- Oracle.Queue ---------------- *)

let test_queue_order () =
  let q = Oracle.Queue.empty in
  let q = Oracle.Queue.push q ~at:2.0 "a" in
  let q = Oracle.Queue.push q ~at:1.0 "b" in
  let q = Oracle.Queue.push q ~at:2.0 "c" in
  let q = Oracle.Queue.push q ~at:1.0 "d" in
  let rec drain q acc =
    match Oracle.Queue.pop q with
    | None -> List.rev acc
    | Some ((_, _, x), q) -> drain q (x :: acc)
  in
  (* time-major order, FIFO among equal times *)
  Alcotest.(check (list string)) "order" [ "b"; "d"; "a"; "c" ] (drain q []);
  Alcotest.(check bool) "empty" true (Oracle.Queue.is_empty Oracle.Queue.empty);
  Alcotest.(check int) "length" 4 (Oracle.Queue.length q)

(* ---------------- Oracle.Routing ---------------- *)

let builders =
  [
    ("linear", T.linear ~n:4 ());
    ("ring", T.ring ~n:6 ());
    ("dumbbell", T.dumbbell ~pairs:3 ());
    ("abilene", T.abilene ());
  ]

let test_routing_matches_dijkstra () =
  List.iter
    (fun (name, t) ->
      let hosts = T.hosts t in
      List.iter
        (fun (h1 : T.node) ->
          List.iter
            (fun (h2 : T.node) ->
              if h1.T.id <> h2.T.id then
                let fast = T.shortest_path t ~src:h1.T.id ~dst:h2.T.id in
                let slow = Oracle.Routing.shortest_path t ~src:h1.T.id ~dst:h2.T.id in
                match (fast, slow) with
                | None, None -> ()
                | Some p, Some q ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s %d->%d length" name h1.T.id h2.T.id)
                    (List.length p) (List.length q);
                  (* the oracle path must itself be adjacency-valid *)
                  ignore (T.path_links t q);
                  Alcotest.(check int) "starts at src" h1.T.id (List.hd q);
                  Alcotest.(check int) "ends at dst" h2.T.id (List.nth q (List.length q - 1))
                | _ ->
                  Alcotest.failf "%s %d->%d: dijkstra and oracle disagree on reachability"
                    name h1.T.id h2.T.id)
            hosts)
        hosts)
    builders

let test_routing_region_ring () =
  let t = T.ring ~n:6 () in
  let sw = List.map (fun (n : T.node) -> n.T.id) (T.switches t) in
  let origin = List.hd sw in
  let region = Oracle.Routing.region t ~origin ~ttl:2 in
  (* a ring of 6: ttl 2 reaches everything except the antipode *)
  Alcotest.(check int) "region size" 5 (List.length region);
  Alcotest.(check bool) "origin included" true (List.mem origin region);
  let far =
    List.filter (fun s -> Oracle.Routing.switch_distance t ~from_:origin ~to_:s = Some 3) sw
  in
  List.iter
    (fun s -> Alcotest.(check bool) "antipode excluded" false (List.mem s region))
    far

let test_routing_hosts_never_transit () =
  let t = T.create () in
  let s1 = T.add_node t ~kind:T.Switch ~name:"s1" in
  let s2 = T.add_node t ~kind:T.Switch ~name:"s2" in
  let h = T.add_node t ~kind:T.Host ~name:"h" in
  ignore (T.add_link t s1 h);
  ignore (T.add_link t h s2);
  Alcotest.(check (option (list int))) "no transit through host" None
    (Oracle.Routing.shortest_path t ~src:s1 ~dst:s2)

let () =
  Alcotest.run "ff_oracle"
    [
      ("queue", [ Alcotest.test_case "time-seq order" `Quick test_queue_order ]);
      ( "routing",
        [
          Alcotest.test_case "matches dijkstra on builders" `Quick test_routing_matches_dijkstra;
          Alcotest.test_case "region on a ring" `Quick test_routing_region_ring;
          Alcotest.test_case "hosts never transit" `Quick test_routing_hosts_never_transit;
        ] );
    ]
