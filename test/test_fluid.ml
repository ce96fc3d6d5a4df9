(* Tests for the hybrid fluid/packet simulation tier: the max-min solver,
   analytic delivery, fluid<->packet coupling, demote/promote conservation,
   and the differential properties anchoring the hybrid engine to the pure
   packet engine. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Monitor = Ff_netsim.Monitor
module Fluid = Ff_fluid.Fluid
module Hybrid = Ff_fluid.Hybrid
module Scenario = Fastflex.Scenario
module Prng = Ff_util.Prng

let deep = match Sys.getenv_opt "DEEP" with Some ("1" | "true") -> true | _ -> false

let make_net topo =
  let engine = Engine.create () in
  let net = Net.create engine topo in
  Scenario.install_all_routes net;
  (engine, net)

(* dumbbell host ids: nodes are (left, right) switches then pairs of
   (sender, receiver) hosts, so sender i = 2 + 2i, receiver i = 3 + 2i *)
let db_src i = 2 + (2 * i)
let db_dst i = 3 + (2 * i)

(* ---------------- solver ---------------- *)

let test_solver_maxmin_dumbbell () =
  (* 3 constant classes over a 10 Mb/s bottleneck: demands 2, 8, 8 Mb/s.
     Max-min: the 2 Mb/s class is served in full, the rest split the
     remainder -> 4 Mb/s each. *)
  let topo = T.dumbbell ~pairs:3 ~bottleneck:10_000_000. () in
  let _, net = make_net topo in
  let fl = Fluid.create net () in
  let f1 = Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0) (Fluid.Constant { rate = 2e6 }) in
  let f2 = Fluid.add fl ~src:(db_src 1) ~dst:(db_dst 1) (Fluid.Constant { rate = 8e6 }) in
  let f3 = Fluid.add fl ~src:(db_src 2) ~dst:(db_dst 2) (Fluid.Constant { rate = 8e6 }) in
  Fluid.recompute fl;
  Alcotest.(check (float 1.)) "small demand served" 2e6 (Fluid.rate fl f1);
  Alcotest.(check (float 1.)) "fair share 1" 4e6 (Fluid.rate fl f2);
  Alcotest.(check (float 1.)) "fair share 2" 4e6 (Fluid.rate fl f3);
  Alcotest.(check (float 1.)) "bottleneck load" 10e6 (Net.fluid_load net ~from_:0 ~to_:1);
  Alcotest.(check (float 0.001)) "utilization folds fluid" 1.
    (Net.utilization net ~from_:0 ~to_:1)

let test_solver_multi_member_class () =
  (* 5 flows of one class against 1 of another over the same bottleneck:
     per-flow max-min shares are equal, so the 5-member class gets 5x the
     aggregate of the single-member class. *)
  let topo = T.dumbbell ~pairs:2 ~bottleneck:6_000_000. () in
  let _, net = make_net topo in
  let fl = Fluid.create net () in
  let fives =
    List.init 5 (fun _ ->
        Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0) (Fluid.Constant { rate = 5e6 }))
  in
  let one = Fluid.add fl ~src:(db_src 1) ~dst:(db_dst 1) (Fluid.Constant { rate = 5e6 }) in
  Fluid.recompute fl;
  List.iter
    (fun f -> Alcotest.(check (float 1.)) "per-flow share" 1e6 (Fluid.rate fl f))
    (one :: fives);
  Alcotest.(check int) "two classes" 2 (Fluid.classes fl)

let test_fluid_delivery () =
  (* analytic accrual: a single unconstrained 1 Mb/s flow delivers
     exactly rate x time (no packetization slack) *)
  let topo = T.dumbbell ~pairs:1 () in
  let engine, net = make_net topo in
  let fl = Fluid.create net () in
  let f = Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0) (Fluid.Constant { rate = 1e6 }) in
  Engine.run engine ~until:8.;
  Alcotest.(check (float 1.)) "delivered = rate*t/8" 1e6 (Fluid.delivered_bytes fl f);
  Alcotest.(check (float 1.)) "population total" 1e6 (Fluid.total_delivered_bytes fl);
  Alcotest.(check (float 10.)) "hop bytes = delivered * 3 links" 3e6 (Fluid.hop_bytes fl);
  Alcotest.(check bool) "solver ran periodically" true (Fluid.rate_events fl > 10)

let test_fluid_displaces_packets () =
  (* a fluid flood near capacity squeezes the packet tier's transmit
     capacity down to the floor -> queue overflow drops *)
  let topo = T.dumbbell ~pairs:2 ~bottleneck:1_000_000. () in
  let engine, net = make_net topo in
  let fl = Fluid.create net () in
  let _flood =
    Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0) (Fluid.Constant { rate = 5e6 })
  in
  let _cbr =
    Flow.Cbr.start net ~src:(db_src 1) ~dst:(db_dst 1) ~rate_pps:60. ~at:0.
      ~packet_size:1000 ()
  in
  Engine.run engine ~until:6.;
  Alcotest.(check bool) "bottleneck drops under fluid load" true
    (Net.link_drops net ~from_:0 ~to_:1 > 0);
  Alcotest.(check bool) "utilization saturated" true
    (Net.utilization net ~from_:0 ~to_:1 > 0.95)

let test_aimd_ramp () =
  (* an adaptive class alone on a big link ramps toward its window cap;
     a constant class arriving mid-run knocks its share down *)
  let topo = T.dumbbell ~pairs:2 ~bottleneck:10_000_000. () in
  let engine, net = make_net topo in
  let fl = Fluid.create net ~update_period:0.1 () in
  let f =
    Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0)
      (Fluid.Adaptive { rtt = 0.05; max_rate = 8e6 })
  in
  Engine.run engine ~until:4.;
  let ramped = Fluid.rate fl f in
  Alcotest.(check bool) "ramped up" true (ramped > 1e6);
  Alcotest.(check bool) "capped" true (ramped <= 8e6 +. 1.);
  let _squeeze =
    Fluid.add fl ~src:(db_src 1) ~dst:(db_dst 1) (Fluid.Constant { rate = 10e6 })
  in
  Engine.run engine ~until:8.;
  Alcotest.(check bool) "share under contention below solo ramp" true
    (Fluid.rate fl f < ramped)

(* ---------------- monitor probes (flow-kind-agnostic goodput) ------------ *)

let test_counter_probe () =
  let topo = T.dumbbell ~pairs:1 () in
  let engine, net = make_net topo in
  let fl = Fluid.create net () in
  let f = Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0) (Fluid.Constant { rate = 8e5 }) in
  let series =
    Monitor.aggregate_goodput net
      ~probes:[ Monitor.counter_probe (fun () -> Fluid.delivered_bytes fl f) ]
      ~period:0.5 ~name:"fluid" ()
  in
  Engine.run engine ~until:10.;
  let pts = Ff_util.Series.points series in
  Alcotest.(check bool) "sampled" true (List.length pts > 10);
  (* steady state: every non-first sample sees 100 kB/s *)
  let _, last = List.nth pts (List.length pts - 1) in
  Alcotest.(check (float 100.)) "steady goodput" 1e5 last

let test_cbr_probe () =
  let topo = T.dumbbell ~pairs:1 () in
  let engine, net = make_net topo in
  let cbr =
    Flow.Cbr.start net ~src:(db_src 0) ~dst:(db_dst 0) ~rate_pps:100. ~at:0.
      ~packet_size:1000 ()
  in
  let series =
    Monitor.aggregate_goodput net ~probes:[ Monitor.cbr_probe cbr ] ~period:1. ~name:"cbr" ()
  in
  Engine.run engine ~until:10.;
  let pts = Ff_util.Series.points series in
  let _, last = List.nth pts (List.length pts - 1) in
  Alcotest.(check (float 5_000.)) "cbr goodput ~100 kB/s" 1e5 last

(* ---------------- hybrid demote/promote ---------------- *)

let test_demote_promote_conservation () =
  let topo = T.dumbbell ~pairs:1 () in
  let engine, net = make_net topo in
  let hy = Hybrid.create ~update_period:0.1 net () in
  let m =
    Hybrid.add_flow hy ~src:(db_src 0) ~dst:(db_dst 0)
      (Hybrid.Cbr { rate_pps = 100.; packet_size = 1000 })
  in
  (* node 0 (left switch) is on the path: hot during [2,4] and [6,8] *)
  List.iter
    (fun at -> Engine.schedule engine ~at (fun () -> Hybrid.mark_hot hy ~node:0))
    [ 2.; 6. ];
  List.iter
    (fun at -> Engine.schedule engine ~at (fun () -> Hybrid.clear_hot hy ~node:0))
    [ 4.; 8. ];
  Engine.run engine ~until:10.;
  Alcotest.(check int) "two demotions" 2 (Hybrid.demotions hy);
  Alcotest.(check int) "two promotions" 2 (Hybrid.promotions hy);
  Alcotest.(check bool) "ends promoted" true (not (Hybrid.is_demoted hy m));
  (* 100 kB/s x 10 s across four tier switches, conserved within a few
     packets of in-flight slack at each switchover *)
  let delivered = Hybrid.delivered_bytes hy m in
  Alcotest.(check bool)
    (Printf.sprintf "conserved across round-trips (got %.0f)" delivered)
    true
    (delivered > 0.97e6 && delivered < 1.01e6)

let test_hybrid_scenario_smoke () =
  let r =
    (* only 3 bot PoPs exist at cores:6, so each aggregate carries more
       volume to keep the flood above the 0.85 utilization threshold *)
    Scenario.run_lfa_fluid ~flows:2_000 ~duration:10. ~cores:6 ~attack_start:2.
      ~attack_stop:6. ~roll_at:4. ~flow_rate_bps:50_000.
      ~attack_bps_per_flow:150_000_000. ()
  in
  Alcotest.(check bool) "benign bytes delivered" true (r.Scenario.fr_delivered_bytes > 0.);
  Alcotest.(check bool) "modes fired" true (r.Scenario.fr_mode_changes > 0);
  Alcotest.(check bool) "flows demoted around the attack" true (r.Scenario.fr_demotions > 0);
  Alcotest.(check bool) "promoted back" true (r.Scenario.fr_promotions > 0);
  Alcotest.(check bool) "rolled" true (r.Scenario.fr_rolls = 1);
  Alcotest.(check bool) "fluid did the bulk of the work" true
    (r.Scenario.fr_fluid_hop_bytes /. 1000. > float_of_int r.Scenario.fr_packet_tx)

(* Members of one path class are swept newest first: with room for one
   demotion, the last-added member gets it. The three profiles differ but
   offer the same 800 kb/s, so the members share one fluid class. *)
let test_sweep_newest_first () =
  let topo = T.dumbbell ~pairs:1 () in
  let engine, net = make_net topo in
  let hy = Hybrid.create ~demote_budget:1 net () in
  let add rate_pps packet_size =
    Hybrid.add_flow hy ~src:(db_src 0) ~dst:(db_dst 0) (Hybrid.Cbr { rate_pps; packet_size })
  in
  let oldest = add 100. 1000 and middle = add 200. 500 and newest = add 50. 2000 in
  Alcotest.(check int) "one class" 1 (Fluid.classes (Hybrid.fluid hy));
  Engine.schedule engine ~at:1. (fun () -> Hybrid.mark_hot hy ~node:0);
  Engine.run engine ~until:2.;
  Alcotest.(check (list bool)) "only the newest is demoted" [ false; false; true ]
    (List.map (Hybrid.is_demoted hy) [ oldest; middle; newest ]);
  Alcotest.(check int) "the others are denied" 2 (Hybrid.demote_denied hy)

(* Pins the whole hybrid scenario bit for bit: 20k benign flows, the
   rolling fluid LFA and a demote budget small enough that the sweep denies
   most hot members. Any change to the member store, the sweep order or
   the goodput probe's summation order moves one of these values. The
   same run with no budget room denies whole classes as they turn hot,
   and with no budget at all it demotes and promotes every hot member. *)
let test_hybrid_scenario_pin () =
  let r = Scenario.run_lfa_fluid ~flows:20_000 ~duration:20. ~demote_budget:200 () in
  let series = Buffer.create 1024 in
  List.iter
    (fun (t, v) ->
      Buffer.add_int64_le series (Int64.bits_of_float t);
      Buffer.add_int64_le series (Int64.bits_of_float v))
    (Ff_util.Series.points r.Scenario.fr_goodput);
  Alcotest.(check int) "packet tx" 271887 r.Scenario.fr_packet_tx;
  Alcotest.(check int) "classes" 8148 r.Scenario.fr_classes;
  Alcotest.(check int) "demotions" 370 r.Scenario.fr_demotions;
  Alcotest.(check int) "promotions" 370 r.Scenario.fr_promotions;
  Alcotest.(check int) "demote denied" 17277 r.Scenario.fr_demote_denied;
  Alcotest.(check int64) "fluid hop bytes" 4757896715203400036L
    (Int64.bits_of_float r.Scenario.fr_fluid_hop_bytes);
  Alcotest.(check int64) "delivered bytes" 4743026966937681591L
    (Int64.bits_of_float r.Scenario.fr_delivered_bytes);
  Alcotest.(check string) "goodput series digest" "de7aaf9deeb6b4b2199a80586849d2ef"
    (Digest.to_hex (Digest.string (Buffer.contents series)))
;
  let budget name demote_budget ~demotions ~denied ~delivered =
    let r = Scenario.run_lfa_fluid ~flows:20_000 ~duration:20. ?demote_budget () in
    Alcotest.(check int) (name ^ ": demotions") demotions r.Scenario.fr_demotions;
    Alcotest.(check int) (name ^ ": promotions") demotions r.Scenario.fr_promotions;
    Alcotest.(check int) (name ^ ": demote denied") denied r.Scenario.fr_demote_denied;
    Alcotest.(check int64) (name ^ ": delivered bytes") delivered
      (Int64.bits_of_float r.Scenario.fr_delivered_bytes)
  in
  budget "budget 0" (Some 0) ~demotions:0 ~denied:17403 ~delivered:4743029687993761793L;
  budget "no budget" None ~demotions:17347 ~denied:0 ~delivered:4740359519303213715L

(* The benchmark's 10^6-flow scenario (fluid_isp_1m at seed 1), pinned
   under @deep only: about 3 s and a few hundred MiB. *)
let test_million_flow_pin () =
  if deep then begin
    let r =
      Scenario.run_lfa_fluid ~flows:1_000_000 ~duration:40. ~seed:11 ~attack_start:10.
        ~attack_stop:18. ~roll_at:14. ~flow_rate_bps:4_000. ~demote_budget:100_000
        ~goodput_period:4.0 ()
    in
    Alcotest.(check int) "demotions" 183_577 r.Scenario.fr_demotions;
    Alcotest.(check int) "promotions" 183_577 r.Scenario.fr_promotions;
    Alcotest.(check int) "demote denied" 785_462 r.Scenario.fr_demote_denied;
    Alcotest.(check int) "demoted peak" 100_000 r.Scenario.fr_demoted_peak;
    Alcotest.(check int) "packet hops" 283_324 r.Scenario.fr_packet_tx;
    Alcotest.(check int) "classes" 9_176 r.Scenario.fr_classes;
    Alcotest.(check int) "rate events" 177 r.Scenario.fr_rate_events;
    Alcotest.(check int) "mode changes" 16 r.Scenario.fr_mode_changes
  end

(* ---------------- incremental solver ---------------- *)

(* ring host ids: switches are 0..n-1, host i = n + i *)
let ring_host n i = n + i

let bits = Int64.bits_of_float

(* the bitwise comparison surface of one solver run: per-class (rate, cap)
   and the fluid load pushed onto every directed link *)
let solver_fingerprint net fl =
  let rates =
    List.map (fun (id, r, c) -> (id, bits r, bits c)) (Fluid.dump_rates fl)
  in
  let loads =
    List.init (Net.n_dirlinks net) (fun i ->
        let a, b = Net.link_ends_i net i in
        bits (Net.fluid_load net ~from_:a ~to_:b))
  in
  (rates, loads, bits (Fluid.total_delivered_bytes fl))

let test_solver_fallback () =
  (* full_frac = 0.: any dirtiness at all overruns the threshold, so every
     pass with work is a fallback full solve — and must still produce the
     standard max-min answer *)
  let topo = T.dumbbell ~pairs:3 ~bottleneck:10_000_000. () in
  let engine, net = make_net topo in
  let fl = Fluid.create net ~full_frac:0. () in
  let f1 = Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0) (Fluid.Constant { rate = 2e6 }) in
  let f2 = Fluid.add fl ~src:(db_src 1) ~dst:(db_dst 1) (Fluid.Constant { rate = 8e6 }) in
  let f3 = Fluid.add fl ~src:(db_src 2) ~dst:(db_dst 2) (Fluid.Constant { rate = 8e6 }) in
  Engine.run engine ~until:2.;
  Fluid.detach fl f3;
  Fluid.recompute fl;
  let st = Fluid.solver_stats fl in
  Alcotest.(check bool) "every working pass fell back" true
    (st.Fluid.full_solves > 0 && st.Fluid.full_solves = st.Fluid.solves);
  Alcotest.(check (float 1.)) "small demand served" 2e6 (Fluid.rate fl f1);
  Alcotest.(check (float 1.)) "survivor takes the freed share" 8e6 (Fluid.rate fl f2)

let test_solver_locality () =
  (* two contended bottlenecks on opposite sides of a ring: detaching a
     flow from one component must not touch the other's classes *)
  let n = 8 in
  let topo = T.ring ~n () in
  let engine, net = make_net topo in
  let fl = Fluid.create net () in
  let add s d = Fluid.add fl ~src:(ring_host n s) ~dst:(ring_host n d)
      (Fluid.Constant { rate = 8e6 })
  in
  (* 16 Mb/s demand against the 10 Mb/s s0->s1 link, and again at s4->s5 *)
  let a1 = add 0 1 and a2 = add 0 1 in
  let b1 = add 4 5 and b2 = add 4 5 in
  ignore a2;
  Engine.run engine ~until:1.;
  let st1 = Fluid.solver_stats fl in
  let rate_b1 = bits (Fluid.rate fl b1) and rate_b2 = bits (Fluid.rate fl b2) in
  Fluid.detach fl a1;
  Fluid.recompute fl;
  let st2 = Fluid.solver_stats fl in
  let touched = st2.Fluid.touched_classes - st1.Fluid.touched_classes in
  let seen = st2.Fluid.seen_classes - st1.Fluid.seen_classes in
  Alcotest.(check bool)
    (Printf.sprintf "re-solve stayed in one component (touched %d of %d)" touched seen)
    true (touched < seen);
  Alcotest.(check bool) "no fallback" true
    (st2.Fluid.full_solves = st1.Fluid.full_solves);
  Alcotest.(check bool) "other component's rates untouched bitwise" true
    (bits (Fluid.rate fl b1) = rate_b1 && bits (Fluid.rate fl b2) = rate_b2)

let test_solver_clear_rerun () =
  (* Fluid.clear + Engine.clear reuse the dense scratch: a second identical
     run on the same instances reproduces the first bit-for-bit *)
  let topo = T.dumbbell ~pairs:3 ~bottleneck:10_000_000. () in
  let engine, net = make_net topo in
  let fl = Fluid.create net ~update_period:0.1 () in
  let run_once () =
    let f1 =
      Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0)
        (Fluid.Adaptive { rtt = 0.04; max_rate = 6e6 })
    in
    let _f2 =
      Fluid.add fl ~src:(db_src 1) ~dst:(db_dst 1) (Fluid.Constant { rate = 8e6 })
    in
    Engine.run engine ~until:2.;
    Fluid.detach fl f1;
    Engine.run engine ~until:4.;
    solver_fingerprint net fl
  in
  let fp1 = run_once () in
  Engine.clear engine;
  Fluid.clear fl;
  Alcotest.(check int) "population dropped" 0 (Fluid.classes fl);
  let fp2 = run_once () in
  Alcotest.(check bool) "re-run after clear is bit-identical" true (fp1 = fp2)

let test_unknown_handle_rejected () =
  (* flows are plain ints: one the population never issued, or issued
     before a clear, must not index the columns *)
  let topo = T.dumbbell ~pairs:1 () in
  let _, net = make_net topo in
  let fl = Fluid.create net () in
  let f = Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0) (Fluid.Constant { rate = 1e6 }) in
  let rejected g =
    match g () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "never issued" true (rejected (fun () -> Fluid.rate fl (f + 1)));
  Alcotest.(check bool) "negative" true (rejected (fun () -> Fluid.class_id fl (-1)));
  Fluid.clear fl;
  Alcotest.(check bool) "issued before clear" true
    (rejected (fun () -> Fluid.delivered_bytes fl f))

let test_loss_coupling_cuts () =
  (* a packet-tier flood overflows the bottleneck queue; with loss coupling
     installed the drops must cut the adaptive fluid class's cap *)
  let topo = T.dumbbell ~pairs:2 ~bottleneck:1_000_000. () in
  let engine, net = make_net topo in
  let fl = Fluid.create net ~update_period:0.05 () in
  Fluid.enable_loss_coupling fl;
  let f =
    Fluid.add fl ~src:(db_src 0) ~dst:(db_dst 0)
      (Fluid.Adaptive { rtt = 0.05; max_rate = 4e6 })
  in
  Engine.run engine ~until:2.;
  let ramped_cap = Fluid.cap fl f in
  let _flood =
    Flow.Cbr.start net ~src:(db_src 1) ~dst:(db_dst 1) ~rate_pps:400. ~at:2.
      ~packet_size:1000 ()
  in
  Engine.run engine ~until:6.;
  Alcotest.(check bool) "queue overflowed" true (Net.link_drops net ~from_:0 ~to_:1 > 0);
  let st = Fluid.solver_stats fl in
  Alcotest.(check bool) "drops cut the aimd cap" true (st.Fluid.loss_cuts > 0);
  Alcotest.(check bool)
    (Printf.sprintf "cap fell below the pre-flood ramp (%.0f vs %.0f)" (Fluid.cap fl f)
       ramped_cap)
    true
    (Fluid.cap fl f < ramped_cap)

(* [classes] classes over ten fixed (src, dst) pairs of a small ISP, so a
   population of 100 and one of 1,000 load the same links; the kinds'
   rates tell the classes of one pair apart. *)
let steady_population ~classes =
  let topo = T.isp ~cores:4 ~access_per_core:2 ~hosts_per_access:4 () in
  let engine, net = make_net topo in
  let hosts = Array.of_list (Net.host_ids net) in
  let nh = Array.length hosts in
  let fl = Fluid.create net () in
  for i = 0 to classes - 1 do
    let p = i mod 10 and k = float_of_int (i / 10) in
    let kind =
      if i mod 3 = 0 then Fluid.Adaptive { rtt = 0.02; max_rate = 1e8 +. k }
      else Fluid.Constant { rate = 5e7 +. k }
    in
    ignore (Fluid.add fl ~src:hosts.(p) ~dst:hosts.(nh - 1 - p) kind)
  done;
  Alcotest.(check int) "distinct classes" classes (Fluid.classes fl);
  Fluid.recompute fl;
  (engine, net, hosts, fl)

(* minor words per call of [f], after a warm-up that grows every buffer *)
let words_per_call f =
  for _ = 1 to 5 do
    f ()
  done;
  let n = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

let test_recompute_alloc_flat () =
  (* the class floats sit in float columns and the solve runs loops, not
     closures, so a re-solve allocates nothing per class *)
  let words classes =
    let _, net, hosts, fl = steady_population ~classes in
    let li = Net.link_index net ~from_:hosts.(0) ~to_:(List.hd (Net.neighbors_of net hosts.(0))) in
    words_per_call (fun () ->
        Fluid.mark_link_dirty fl li;
        Fluid.recompute fl)
  in
  let w100 = words 100 and w1000 = words 1000 in
  Alcotest.(check (float 0.))
    (Printf.sprintf "words per recompute at 1000 classes = at 100 (%.1f vs %.1f)" w1000 w100)
    w100 w1000

let test_refresh_alloc_free () =
  (* a refresh whose routes did not move keeps each class's path arrays:
     it allocates nothing at all, at any population size *)
  let words classes =
    let _, _, _, fl = steady_population ~classes in
    words_per_call (fun () -> Fluid.refresh_paths fl)
  in
  let w100 = words 100 and w1000 = words 1000 in
  Alcotest.(check (float 0.)) "words per refresh at 100 classes" 0. w100;
  Alcotest.(check (float 0.)) "words per refresh at 1000 classes" 0. w1000

let test_refresh_follows_moved_route () =
  (* h0 -> h2 on an 8-ring runs s0 s1 s2; rewriting three tables sends it
     the long way round, and the refresh must move the class and its load *)
  let n = 8 in
  let topo = T.ring ~n () in
  let _, net = make_net topo in
  let fl = Fluid.create net () in
  let src = ring_host n 0 and dst = ring_host n 2 in
  let f = Fluid.add fl ~src ~dst (Fluid.Constant { rate = 4e6 }) in
  Fluid.recompute fl;
  Alcotest.(check (float 1.)) "short way loaded" 4e6 (Net.fluid_load net ~from_:0 ~to_:1);
  Alcotest.(check (float 0.)) "long way idle" 0. (Net.fluid_load net ~from_:0 ~to_:7);
  Net.set_route net ~sw:0 ~dst ~next_hop:7;
  Net.set_route net ~sw:7 ~dst ~next_hop:6;
  Net.set_route net ~sw:6 ~dst ~next_hop:5;
  Alcotest.(check (option (list int))) "tables give the long way"
    (Some [ src; 0; 7; 6; 5; 4; 3; 2; dst ])
    (Net.current_path net ~src ~dst);
  Fluid.refresh_paths fl;
  Fluid.recompute fl;
  Alcotest.(check bool) "class re-routed" true (Fluid.path_crosses fl f ~f:(fun v -> v = 7));
  Alcotest.(check (float 0.)) "short way released" 0. (Net.fluid_load net ~from_:0 ~to_:1);
  Alcotest.(check (float 1.)) "long way loaded" 4e6 (Net.fluid_load net ~from_:0 ~to_:7);
  Alcotest.(check (float 1.)) "rate kept" 4e6 (Fluid.rate fl f)

(* random op sequence for the incremental≡full differential: fluid flows
   (constant and adaptive) arriving over time, some detached mid-run and
   some re-attached, plus packet CBR cross-traffic so link drift and loss
   coupling fire. Both solver modes replay the identical sequence on
   identical nets; every rate, cap and pushed link load must match
   bitwise at the end. *)
let gen_solver_workload =
  QCheck2.Gen.(
    let* n = int_range 4 8 in
    let* flows = int_range 2 12 in
    let* specs =
      list_size (return flows)
        (let* si = int_range 0 (n - 1) in
         let* d_off = int_range 1 (n - 1) in
         let* mbps = int_range 1 12 in
         let* adaptive = bool in
         let* at = int_range 0 20 in
         let* detach_at = int_range 0 40 in
         let* reattach = bool in
         return
           ( si, (si + d_off) mod n, float_of_int mbps *. 1e6, adaptive,
             float_of_int at /. 10.,
             (* detach in [2,6) when the slot is live, maybe re-attach 1s later *)
             (if detach_at >= 20 then Some (float_of_int detach_at /. 10.) else None),
             reattach ))
    in
    let* cbrs = int_range 0 3 in
    let* cbr_specs =
      list_size (return cbrs)
        (let* si = int_range 0 (n - 1) in
         let* d_off = int_range 1 (n - 1) in
         let* rate = int_range 50 400 in
         return (si, (si + d_off) mod n, float_of_int rate))
    in
    return (n, specs, cbr_specs))

let run_solver_mode ~solver (n, specs, cbr_specs) =
  let engine, net = make_net (T.ring ~n ()) in
  let fl = Fluid.create net ~update_period:0.25 ~solver () in
  Fluid.enable_loss_coupling fl;
  List.iter
    (fun (s, d, bps, adaptive, at, detach, reattach) ->
      let s = ring_host n s and d = ring_host n d in
      if s <> d then
        Engine.schedule engine ~at (fun () ->
            let f =
              Fluid.add fl ~src:s ~dst:d
                (if adaptive then Fluid.Adaptive { rtt = 0.04; max_rate = bps }
                 else Fluid.Constant { rate = bps })
            in
            match detach with
            | Some dt ->
              Engine.schedule engine ~at:dt (fun () ->
                  Fluid.detach fl f;
                  Fluid.recompute fl;
                  if reattach then
                    Engine.schedule engine ~at:(dt +. 1.) (fun () ->
                        Fluid.attach fl f;
                        Fluid.recompute fl))
            | None -> ()))
    specs;
  List.iter
    (fun (s, d, rate_pps) ->
      let s = ring_host n s and d = ring_host n d in
      if s <> d then
        ignore (Flow.Cbr.start net ~src:s ~dst:d ~rate_pps ~at:1.5 ~packet_size:800 ()))
    cbr_specs;
  Engine.run engine ~until:7.;
  let fp = solver_fingerprint net fl in
  let st = Fluid.solver_stats fl in
  (fp, st)

let print_solver_workload (n, specs, cbrs) =
  Printf.sprintf "ring %d; flows [%s]; cbrs [%s]" n
    (String.concat "; "
       (List.map
          (fun (s, d, bps, ad, at, det, re) ->
            Printf.sprintf "%d->%d %.0fbps %s at %.1f det %s re %b" s d bps
              (if ad then "adp" else "cst") at
              (match det with Some x -> Printf.sprintf "%.1f" x | None -> "-")
              re)
          specs))
    (String.concat "; "
       (List.map (fun (s, d, r) -> Printf.sprintf "%d->%d %.0fpps" s d r) cbrs))

let prop_incremental_matches_full =
  QCheck2.Test.make ~count:(if deep then 150 else 30)
    ~print:print_solver_workload
    ~name:"incremental solver is bit-identical to always-full"
    gen_solver_workload (fun w ->
      let fp_inc, st_inc = run_solver_mode ~solver:Fluid.Incremental w in
      let fp_full, st_full = run_solver_mode ~solver:Fluid.Always_full w in
      (* same rates, caps, link loads and accruals, bit for bit — while the
         incremental side did no more (usually far less) assignment work *)
      fp_inc = fp_full
      && st_inc.Fluid.touched_classes <= st_full.Fluid.touched_classes)

(* ---------------- differential properties ---------------- *)

(* random multi-flow workload on a ring: (src, dst, rate_pps, start) *)
let gen_workload =
  QCheck2.Gen.(
    let* n = int_range 3 6 in
    let* flows = int_range 1 10 in
    let* specs =
      list_size (return flows)
        (let* si = int_range 0 (n - 1) in
         let* d_off = int_range 1 (n - 1) in
         let* rate = int_range 5 40 in
         let* at = int_range 0 20 in
         return (si, (si + d_off) mod n, float_of_int rate, float_of_int at /. 10.))
    in
    return (n, specs))

let run_pure_packet (n, specs) =
  let engine, net = make_net (T.ring ~n ()) in
  let flows =
    List.map
      (fun (s, d, rate_pps, at) ->
        Flow.Cbr.start net ~src:(ring_host n s) ~dst:(ring_host n d) ~rate_pps ~at
          ~packet_size:600 ())
      specs
  in
  Engine.run engine ~until:6.;
  ( List.map Flow.Cbr.delivered_bytes flows,
    Net.total_tx_packets net,
    List.sort compare (Net.drops_by_reason net),
    Engine.steps engine )

let prop_force_packet_bit_identical =
  QCheck2.Test.make ~count:(if deep then 200 else 40)
    ~name:"hybrid(All_packet) is bit-identical to the pure packet engine"
    gen_workload (fun ((n, specs) as w) ->
      let d1, tx1, drops1, steps1 = run_pure_packet w in
      let engine, net = make_net (T.ring ~n ()) in
      let hy = Hybrid.create ~force:Hybrid.All_packet net () in
      let members =
        List.map
          (fun (s, d, rate_pps, at) ->
            Hybrid.add_flow hy ~src:(ring_host n s) ~dst:(ring_host n d) ~at
              (Hybrid.Cbr { rate_pps; packet_size = 600 }))
          specs
      in
      (* a hot-region source must be inert under All_packet forcing *)
      Hybrid.mark_hot hy ~node:0;
      Engine.run engine ~until:6.;
      let d2 = List.map (Hybrid.delivered_bytes hy) members in
      d1 = d2
      && tx1 = Net.total_tx_packets net
      && drops1 = List.sort compare (Net.drops_by_reason net)
      && steps1 = Engine.steps engine
      && Hybrid.demoted_count hy = 0)

let prop_fluid_matches_packet_aggregate =
  QCheck2.Test.make ~count:(if deep then 100 else 25)
    ~name:"all-fluid aggregate delivery within 15% of all-packet (uncongested)"
    gen_workload (fun (n, specs) ->
      (* keep each link uncongested: ring links are 10 Mb/s and worst-case
         overlap is all flows on one link; 10 flows x 40 pps x 600 B
         = 1.9 Mb/s << capacity, so both tiers deliver the offered load *)
      let d_packet, _, _, _ = run_pure_packet (n, specs) in
      let engine, net = make_net (T.ring ~n ()) in
      let hy = Hybrid.create ~force:Hybrid.All_fluid ~update_period:0.1 net () in
      let members =
        List.map
          (fun (s, d, rate_pps, at) ->
            Hybrid.add_flow hy ~src:(ring_host n s) ~dst:(ring_host n d) ~at
              (Hybrid.Cbr { rate_pps; packet_size = 600 }))
          specs
      in
      Engine.run engine ~until:6.;
      let sum = List.fold_left ( +. ) 0. in
      let p = sum d_packet in
      let f = sum (List.map (Hybrid.delivered_bytes hy) members) in
      let tol = Float.max (0.15 *. p) 5_000. in
      Float.abs (p -. f) <= tol)

let prop_roundtrip_conserves_delivery =
  QCheck2.Test.make ~count:(if deep then 100 else 25)
    ~name:"demote/promote round-trips conserve delivered bytes (within slack)"
    QCheck2.Gen.(
      let* w = gen_workload in
      let* toggles = int_range 1 4 in
      return (w, toggles))
    (fun (((n, specs) as w), toggles) ->
      (* baseline: all-fluid, no tier churn *)
      let engine0, net0 = make_net (T.ring ~n ()) in
      let hy0 = Hybrid.create ~force:Hybrid.All_fluid ~update_period:0.1 net0 () in
      let ms0 =
        List.map
          (fun (s, d, rate_pps, at) ->
            Hybrid.add_flow hy0 ~src:(ring_host n s) ~dst:(ring_host n d) ~at
              (Hybrid.Cbr { rate_pps; packet_size = 600 }))
          specs
      in
      Engine.run engine0 ~until:8.;
      let base =
        List.fold_left (fun a m -> a +. Hybrid.delivered_bytes hy0 m) 0. ms0
      in
      (* same workload with every switch toggling hot/cold: every flow is
         demoted and promoted [toggles] times *)
      let engine, net = make_net (T.ring ~n ()) in
      let hy = Hybrid.create ~update_period:0.1 net () in
      let ms =
        List.map
          (fun (s, d, rate_pps, at) ->
            Hybrid.add_flow hy ~src:(ring_host n s) ~dst:(ring_host n d) ~at
              (Hybrid.Cbr { rate_pps; packet_size = 600 }))
          specs
      in
      for k = 0 to toggles - 1 do
        let at = 2.5 +. float_of_int k in
        Engine.schedule engine ~at (fun () ->
            for sw = 0 to n - 1 do
              Hybrid.mark_hot hy ~node:sw
            done);
        Engine.schedule engine ~at:(at +. 0.5) (fun () ->
            for sw = 0 to n - 1 do
              Hybrid.clear_hot hy ~node:sw
            done)
      done;
      Engine.run engine ~until:8.;
      let got = List.fold_left (fun a m -> a +. Hybrid.delivered_bytes hy m) 0. ms in
      ignore w;
      Hybrid.promotions hy >= List.length specs
      (* each switchover can strand at most ~an RTT of in-flight bytes;
         CBR rates here bound that well under 10% of total *)
      && Float.abs (got -. base) <= Float.max (0.12 *. base) 10_000.)

(* The sweep's per-class counts against a recount from member state
   ([Hybrid.check_buckets]) after every hot-set change, stop and
   admission, over mixed tiers (Packet_only members join a class only
   under All_fluid) and budgets of 0, 1, a few or none. Two rates keep
   several members in each path class. *)
let prop_bucket_counts =
  QCheck2.Test.make ~count:(if deep then 500 else 100)
    ~name:"hybrid class counts match a recount from member state"
    QCheck2.Gen.(
      let* n = int_range 3 5 in
      let* force = frequency [ (3, return Hybrid.Auto); (1, return Hybrid.All_fluid) ] in
      let* budget =
        oneof [ return (Some 0); return (Some 1); map Option.some (int_range 2 4); return None ]
      in
      let* members =
        list_size (int_range 1 14)
          (let* s = int_range 0 (n - 1) in
           let* d_off = int_range 1 (n - 1) in
           let* tier =
             frequency
               [ (6, return Hybrid.Tier_auto); (2, return Hybrid.Fluid_only);
                 (2, return Hybrid.Packet_only) ]
           in
           let* slot = int_range 0 40 in
           let* rate = oneofl [ 40.; 80. ] in
           return (s, (s + d_off) mod n, tier, slot, rate))
      in
      let* ops =
        list_size (int_range 1 30)
          (triple (int_range 1 99) (int_range 0 2) (int_range 0 (max n 14)))
      in
      return (n, force, budget, members, ops))
    (fun (n, force, demote_budget, members, ops) ->
      let engine, net = make_net (T.ring ~n ()) in
      let hy = Hybrid.create ~force ?demote_budget ~update_period:0.1 net () in
      let slot_time k = 0.05 *. float_of_int k in
      let ms =
        Array.of_list
          (List.map
             (fun (s, d, tier, slot, rate_pps) ->
               Hybrid.add_flow hy ~src:(ring_host n s) ~dst:(ring_host n d)
                 ~at:(slot_time slot) ~tier (Hybrid.Cbr { rate_pps; packet_size = 600 }))
             members)
      in
      let err = ref None in
      let check () =
        match Hybrid.check_buckets hy with
        | Ok () -> ()
        | Error e -> if !err = None then err := Some e
      in
      List.iter
        (fun (slot, op, arg) ->
          let at = slot_time slot in
          Engine.schedule engine ~at (fun () ->
              match op with
              | 0 -> Hybrid.mark_hot hy ~node:(arg mod n)
              | 1 -> Hybrid.clear_hot hy ~node:(arg mod n)
              | _ -> Hybrid.stop_member hy ms.(arg mod Array.length ms));
          (* after the sweep the change scheduled at the same instant *)
          Engine.schedule engine ~at:(at +. 0.01) check)
        ops;
      Engine.run engine ~until:6.;
      check ();
      match !err with None -> true | Some e -> QCheck2.Test.fail_reportf "%s" e)

let () =
  Alcotest.run "fluid"
    [
      ( "solver",
        [
          Alcotest.test_case "maxmin dumbbell" `Quick test_solver_maxmin_dumbbell;
          Alcotest.test_case "multi-member class" `Quick test_solver_multi_member_class;
          Alcotest.test_case "analytic delivery" `Quick test_fluid_delivery;
          Alcotest.test_case "fluid displaces packets" `Quick test_fluid_displaces_packets;
          Alcotest.test_case "aimd ramp" `Quick test_aimd_ramp;
        ] );
      ( "probes",
        [
          Alcotest.test_case "counter probe" `Quick test_counter_probe;
          Alcotest.test_case "cbr probe" `Quick test_cbr_probe;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "demote/promote conservation" `Quick
            test_demote_promote_conservation;
          Alcotest.test_case "isp scenario smoke" `Quick test_hybrid_scenario_smoke;
          Alcotest.test_case "isp scenario pin" `Quick test_hybrid_scenario_pin;
          Alcotest.test_case "sweep newest first" `Quick test_sweep_newest_first;
          Alcotest.test_case "10^6-flow scenario pin" `Slow test_million_flow_pin;
          Test_seed.to_alcotest prop_bucket_counts;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "full-solve fallback" `Quick test_solver_fallback;
          Alcotest.test_case "component locality" `Quick test_solver_locality;
          Alcotest.test_case "clear + re-run reuses scratch" `Quick
            test_solver_clear_rerun;
          Alcotest.test_case "loss-coupled aimd cuts" `Quick test_loss_coupling_cuts;
          Alcotest.test_case "unknown handles rejected" `Quick test_unknown_handle_rejected;
          Alcotest.test_case "recompute allocation flat in classes" `Quick
            test_recompute_alloc_flat;
          Alcotest.test_case "refresh over unchanged routes allocation-free" `Quick
            test_refresh_alloc_free;
          Alcotest.test_case "refresh follows a moved route" `Quick
            test_refresh_follows_moved_route;
        ] );
      ( "differential",
        [
          Test_seed.to_alcotest prop_incremental_matches_full;
          Test_seed.to_alcotest prop_force_packet_bit_identical;
          Test_seed.to_alcotest prop_fluid_matches_packet_aggregate;
          Test_seed.to_alcotest prop_roundtrip_conserves_delivery;
        ] );
    ]
