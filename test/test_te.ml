(* Tests for Ff_te: traffic matrix, min-max solver, SDN controller. *)

module T = Ff_topology.Topology
module TM = Ff_te.Traffic_matrix
module Solver = Ff_te.Solver
module Controller = Ff_te.Controller
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net

let test_matrix_basics () =
  let m = TM.empty () in
  TM.set m ~src:1 ~dst:2 100.;
  TM.add m ~src:1 ~dst:2 50.;
  Alcotest.(check (float 0.)) "accumulated" 150. (TM.get m ~src:1 ~dst:2);
  Alcotest.(check (float 0.)) "unknown pair" 0. (TM.get m ~src:9 ~dst:9);
  TM.set m ~src:3 ~dst:4 300.;
  Alcotest.(check int) "pairs" 2 (TM.num_pairs m);
  Alcotest.(check (float 0.)) "total" 450. (TM.total m);
  (* sorted by decreasing demand *)
  (match TM.pairs m with
  | (s, d, v) :: _ ->
    Alcotest.(check (pair int int)) "largest first" (3, 4) (s, d);
    Alcotest.(check (float 0.)) "value" 300. v
  | [] -> Alcotest.fail "empty");
  let m2 = TM.scale m 2. in
  Alcotest.(check (float 0.)) "scaled" 900. (TM.total m2);
  let merged = TM.merge m m2 in
  Alcotest.(check (float 0.)) "merged" 1350. (TM.total merged)

let test_matrix_rejects_negative () =
  let m = TM.empty () in
  Alcotest.check_raises "negative" (Invalid_argument "Traffic_matrix.set: negative demand")
    (fun () -> TM.set m ~src:1 ~dst:2 (-5.))

let test_matrix_zero_removes () =
  let m = TM.empty () in
  TM.set m ~src:1 ~dst:2 10.;
  TM.set m ~src:1 ~dst:2 0.;
  Alcotest.(check int) "removed" 0 (TM.num_pairs m)

(* Fig2: four equal demands to the victim must split 2/2 over the critical
   links when k = 2. *)
let test_solver_balances () =
  let lm = T.Fig2.build () in
  let topo = lm.T.Fig2.topo in
  let m = TM.empty () in
  List.iter
    (fun n -> TM.set m ~src:n ~dst:lm.T.Fig2.victim 2_000_000.)
    lm.T.Fig2.normal_sources;
  let plan = Solver.solve ~k:2 topo m in
  Alcotest.(check int) "all demands routed" 4 (List.length plan.Solver.routes);
  (* max utilization: 2 x 2 Mb/s / 10 Mb/s = 0.4 *)
  Alcotest.(check (float 1e-6)) "balanced max util" 0.4 plan.Solver.max_util;
  (* both critical links loaded equally *)
  let load l = List.assoc l.T.link_id plan.Solver.link_load in
  match lm.T.Fig2.critical with
  | [ c1; c2 ] ->
    Alcotest.(check (float 1.)) "equal split" (load c1) (load c2)
  | _ -> Alcotest.fail "expected two critical links"

let test_solver_uses_detour_under_load () =
  let lm = T.Fig2.build () in
  let topo = lm.T.Fig2.topo in
  let m = TM.empty () in
  (* 6 x 4 Mb/s = 24 Mb/s cannot fit on 2 x 10 Mb/s: k=4 must use the detour *)
  List.iteri
    (fun i n ->
      TM.set m ~src:n ~dst:lm.T.Fig2.victim (4_000_000. +. float_of_int i))
    (lm.T.Fig2.normal_sources @ lm.T.Fig2.bot_sources |> List.filteri (fun i _ -> i < 6));
  let plan = Solver.solve ~k:4 topo m in
  Alcotest.(check bool) "max util under 1" true (plan.Solver.max_util < 1.);
  let detour_link = Option.get (T.find_link topo lm.T.Fig2.agg (List.hd lm.T.Fig2.detour)) in
  let detour_load = List.assoc detour_link.T.link_id plan.Solver.link_load in
  Alcotest.(check bool) "detour carries load" true (detour_load > 0.)

let test_solver_utilization_of () =
  let lm = T.Fig2.build () in
  let topo = lm.T.Fig2.topo in
  let m = TM.empty () in
  List.iter (fun n -> TM.set m ~src:n ~dst:lm.T.Fig2.victim 2_000_000.) lm.T.Fig2.normal_sources;
  let plan = Solver.solve ~k:2 topo m in
  Alcotest.(check (float 1e-9)) "consistent evaluation" plan.Solver.max_util
    (Solver.utilization_of topo m plan.Solver.routes)

let test_solver_install () =
  let lm = T.Fig2.build () in
  let topo = lm.T.Fig2.topo in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let m = TM.empty () in
  let src = List.hd lm.T.Fig2.normal_sources in
  TM.set m ~src ~dst:lm.T.Fig2.victim 1_000_000.;
  let plan = Solver.solve topo m in
  Solver.install net plan;
  match Solver.plan_path plan ~src ~dst:lm.T.Fig2.victim with
  | Some path ->
    let first_switch = List.nth path 1 in
    Alcotest.(check bool) "pair route installed" true
      (Net.pair_route_lookup net ~sw:first_switch ~src ~dst:lm.T.Fig2.victim <> None)
  | None -> Alcotest.fail "plan has no path"

let test_install_prefix_based () =
  let lm = T.Fig2.build () in
  let topo = lm.T.Fig2.topo in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let src = List.hd lm.T.Fig2.normal_sources in
  let m = TM.empty () in
  TM.set m ~src ~dst:lm.T.Fig2.victim 1_000_000.;
  let plan = Solver.solve ~k:2 topo m in
  Solver.install_prefix_based net plan;
  (* the decoy behind the victim's edge switch inherits the same next hop *)
  let sibling =
    List.find
      (fun d -> Net.access_switch net ~host:d = Net.access_switch net ~host:lm.T.Fig2.victim)
      lm.T.Fig2.decoys
  in
  let path = Option.get (Solver.plan_path plan ~src ~dst:lm.T.Fig2.victim) in
  let first_switch = List.nth path 1 in
  Alcotest.(check (option int)) "sibling routed like the victim"
    (Net.pair_route_lookup net ~sw:first_switch ~src ~dst:lm.T.Fig2.victim)
    (Net.pair_route_lookup net ~sw:first_switch ~src ~dst:sibling)

let test_estimator_measures_rates () =
  let lm = T.Fig2.build () in
  let topo = lm.T.Fig2.topo in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  (* shortest-path routes for all pairs *)
  Net.install_shortest_paths net;
  let est = Ff_te.Estimator.install net in
  let src = List.hd lm.T.Fig2.normal_sources in
  (* 100 pps x 1000 B = 800 kb/s *)
  ignore (Ff_netsim.Flow.Cbr.start net ~src ~dst:lm.T.Fig2.victim ~rate_pps:100. ());
  Engine.run engine ~until:5.;
  let r = Ff_te.Estimator.rate est ~src ~dst:lm.T.Fig2.victim in
  Alcotest.(check bool) "rate within 15%" true (Float.abs (r -. 800_000.) < 120_000.);
  Alcotest.(check int) "one pair seen" 1 (Ff_te.Estimator.pairs_seen est);
  let m = Ff_te.Estimator.matrix est in
  Alcotest.(check bool) "matrix populated" true (TM.get m ~src ~dst:lm.T.Fig2.victim > 0.)

let test_estimator_no_double_counting () =
  (* telemetry on every switch along the path must still count once *)
  let topo = T.linear ~n:4 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h0 = (T.node_by_name topo "h0").T.id in
  let h1 = (T.node_by_name topo "h1").T.id in
  (match T.shortest_path topo ~src:h0 ~dst:h1 with
  | Some p ->
    Net.install_path net ~dst:h1 p;
    Net.install_path net ~dst:h0 (List.rev p)
  | None -> Alcotest.fail "no path");
  let est = Ff_te.Estimator.install net in
  ignore (Ff_netsim.Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:100. ());
  Engine.run engine ~until:5.;
  let r = Ff_te.Estimator.rate est ~src:h0 ~dst:h1 in
  Alcotest.(check bool) "counted once despite 4 telemetry switches" true
    (r < 1_000_000. && r > 600_000.)

let test_controller_period_and_delay () =
  let lm = T.Fig2.build () in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  let m = TM.empty () in
  TM.set m ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim 1_000_000.;
  let c = Controller.start net ~period:10. ~delay:0.5 ~estimate:(fun () -> m) in
  let observed = ref [] in
  Controller.on_reconfig c (fun at -> observed := at :: !observed);
  Engine.run engine ~until:35.;
  Alcotest.(check int) "three reconfigs in 35 s" 3 (Controller.reconfig_count c);
  Alcotest.(check (list (float 1e-6))) "installation delayed by the control loop"
    [ 10.5; 20.5; 30.5 ] (Controller.reconfig_times c);
  Alcotest.(check bool) "plan exposed" true (Controller.last_plan c <> None)

let () =
  Alcotest.run "ff_te"
    [
      ( "matrix",
        [
          Alcotest.test_case "basics" `Quick test_matrix_basics;
          Alcotest.test_case "rejects negative" `Quick test_matrix_rejects_negative;
          Alcotest.test_case "zero removes" `Quick test_matrix_zero_removes;
        ] );
      ( "solver",
        [
          Alcotest.test_case "balances equal demands" `Quick test_solver_balances;
          Alcotest.test_case "uses detour under load" `Quick test_solver_uses_detour_under_load;
          Alcotest.test_case "utilization_of consistent" `Quick test_solver_utilization_of;
          Alcotest.test_case "install writes pair routes" `Quick test_solver_install;
          Alcotest.test_case "prefix-based install" `Quick test_install_prefix_based;
        ] );
      ( "estimator",
        [
          Alcotest.test_case "measures rates" `Quick test_estimator_measures_rates;
          Alcotest.test_case "no double counting" `Quick test_estimator_no_double_counting;
        ] );
      ( "controller",
        [ Alcotest.test_case "period and delay" `Quick test_controller_period_and_delay ] );
    ]
