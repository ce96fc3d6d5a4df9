(* perf, the hot-path regression run: a fixed fat-tree + rolling-LFA
   scenario measured for packets/s, events/s and GC words per packet, with
   the sharded engine (--shards N) and the hybrid fluid sweep (--fluid)
   beside it. It prints one table per part and checks every perf gate of
   bench/GATES; it writes no file. Wall-clock comparisons across commits
   belong to benchmark/, which takes medians over alternating runs. *)

module T = Ff_topology.Topology
module Scenario = Fastflex.Scenario
module Orchestrator = Fastflex.Orchestrator
module Table = Ff_util.Table
module Psim = Ff_parallel.Psim
module Workload = Ff_parallel.Workload

let word = float_of_int (Sys.word_size / 8)

(* Runs [f] once after a compaction and returns its result, its wall time
   and the words it allocated. The minor heap is empty at both ends:
   OCaml 5 adds young allocation to [Gc.allocated_bytes] only at a minor
   collection, so a read with a part-filled minor heap moves with when the
   last one happened. The closing collection is outside the timed span. *)
let measured f =
  Gc.compact ();
  let bytes0 = Gc.allocated_bytes () in
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let wall = Float.max 1e-9 (Unix.gettimeofday () -. t0) in
  Gc.minor ();
  (x, wall, (Gc.allocated_bytes () -. bytes0) /. word)

(* ------------------------------------------------------------------ *)
(* perf: the hot-path regression run                                   *)
(* ------------------------------------------------------------------ *)

(* A fixed, deterministic scenario that saturates the per-packet path:
   fat-tree(4), pervasive FastFlex deployment (so every packet crosses the
   booster stage pipeline), heavy CBR load plus TCP normal flows, and a
   rolling LFA. *)
let perf_scenario () =
  let topo, id, victim, decoys, lfa = Experiments.fat_tree4 () in
  (* open-loop load from every other pod: the constant-rate senders that
     exercise the batched emission path; then closed-loop normal flows
     (ack traffic doubles the hop count) *)
  let cbr i src =
    let packet_size = 400 + (100 * (i mod 3)) in
    Scenario.Cbr { src = id src; dst = victim; rate_pps = 1200.; packet_size }
  in
  let tcp src = Scenario.Tcp { src = id src; dst = victim; max_cwnd = 64. } in
  let r =
    Scenario.run
      { testbed = { topo; routes = Ff_netsim.Net.install_shortest_paths }; server = None;
        flows =
          List.mapi cbr [ "h1_0_0"; "h1_1_0"; "h2_0_0"; "h2_1_0"; "h3_0_0"; "h3_1_0" ]
          @ List.map tcp [ "h1_0_1"; "h2_0_1"; "h3_0_1" ];
        defense = Scenario.Fastflex Orchestrator.default_config;
        boosters = [ lfa ];
        attacks =
          [ Scenario.Crossfire
              { bots = List.map id [ "h1_1_1"; "h2_1_1"; "h3_1_1"; "h1_0_1"; "h2_0_1"; "h3_0_1" ];
                decoy_groups = List.map (fun d -> [ d ]) decoys;
                plan =
                  { Scenario.default_attack with start = 5.; roll_schedule = [ 12.; 19.; 26. ] }
              } ];
        duration = 30.; sample_period = None; hook = ignore }
  in
  r.Scenario.net

type perf_sample = {
  packets : int;
  events : int;
  wall_s : float;
  packets_per_sec : float;
  events_per_sec : float;
  alloc_words_per_packet : float;
  drops : int;
}

let measure_perf () =
  let steps0 = Ff_netsim.Engine.total_steps () in
  let created0 = Ff_dataplane.Packet.created () in
  let net, wall_s, alloc_words = measured perf_scenario in
  Printf.printf "[perf] packets created: %d\n%!" (Ff_dataplane.Packet.created () - created0);

  let packets = Ff_netsim.Net.total_tx_packets net in
  let events = Ff_netsim.Engine.total_steps () - steps0 in
  let drops =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Ff_netsim.Net.drops_by_reason net)
  in
  {
    packets;
    events;
    wall_s;
    packets_per_sec = float_of_int packets /. wall_s;
    events_per_sec = float_of_int events /. wall_s;
    alloc_words_per_packet = alloc_words /. float_of_int (max 1 packets);
    drops;
  }

(* ------------------------------------------------------------------ *)
(* the sharded engine: perf --shards N                                 *)
(* ------------------------------------------------------------------ *)

type psim_run = { r : Psim.result; counters : Workload.counters; wall : float }

(* The words allocated come from [Psim.alloc_bytes], which counts inside
   every shard's domain, not from the caller's. *)
let run_psim w ~shards ~mode =
  let counters = Workload.fresh_counters w in
  let r, wall, _ =
    measured (fun () ->
        Psim.run ~mode ~shards ~topo:(Workload.topo w) ~setup:(Workload.setup w counters)
          ~until:(Workload.until w) ())
  in
  { r; counters; wall }

let pps run = float_of_int (Psim.total_tx run.r) /. run.wall
let alloc_per_packet run =
  run.r.Psim.alloc_bytes /. word /. float_of_int (max 1 (Psim.total_tx run.r))

(* sharding must change nothing but wall time: the 1-shard run's counters
   are the determinism oracle *)
let identical a b =
  Psim.total_tx a.r = Psim.total_tx b.r
  && a.r.Psim.events = b.r.Psim.events
  && Psim.drops_by_reason a.r = Psim.drops_by_reason b.r
  && a.counters.Workload.delivered = b.counters.Workload.delivered
  && a.counters.Workload.time_sum = b.counters.Workload.time_sum

(* the speedup target means something only when the hardware can show a
   speedup at all: more than one core, and at least as many cores as
   shards (and enough shards for the 2.5x target to be meaningful) *)
let speedup_armed ~shards =
  let cores = Domain.recommended_domain_count () in
  cores > 1 && cores >= shards && shards >= 4

let mode_name run = match run.r.Psim.mode_used with Psim.Domains -> "domains" | _ -> "sequential"

(* perf's sharded scenario is bigger than the sequential one (fat-tree(8):
   80 switches, 128 hosts, one cross-pod CBR flow per host) because the
   parallel engine's purpose is scale; the same run on 1 shard on the same
   windowed code path is the speedup baseline. *)
let perf_k = 8

(* [baseline] is the same workload on 1 shard, sequential. *)
let print_parallel w ~shards ~baseline run =
  let r = run.r in
  Table.print
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "topology"; Printf.sprintf "fat-tree(%d)" perf_k ];
        [ "flows"; string_of_int (Workload.n_flows w) ];
        [ "shards / cores";
          Printf.sprintf "%d / %d" shards (Domain.recommended_domain_count ()) ];
        [ "mode"; mode_name run ];
        [ "lookahead (s)"; Printf.sprintf "%g" r.Psim.lookahead ];
        [ "windows"; string_of_int r.Psim.windows ];
        [ "cross-shard msgs"; string_of_int r.Psim.exchanged ];
        [ "sim events"; string_of_int r.Psim.events ];
        [ "shard imbalance (max/mean)";
          Printf.sprintf "%.3f (events %s)" (Psim.imbalance r)
            (String.concat "/" (Array.to_list (Array.map string_of_int (Psim.shard_events r))))
        ];
        [ "hop transmissions"; string_of_int (Psim.total_tx r) ];
        [ "packets delivered"; string_of_int (Workload.total_delivered run.counters) ];
        [ "wall (s)"; Printf.sprintf "%.3f" run.wall ];
        [ "packets/s"; Printf.sprintf "%.0f" (pps run) ];
        [ "alloc words/packet"; Printf.sprintf "%.1f" (alloc_per_packet run) ];
        [ "baseline packets/s"; Printf.sprintf "%.0f" (pps baseline) ];
        [ "speedup vs 1 shard"; Printf.sprintf "%.2fx" (baseline.wall /. run.wall) ];
        [ "speedup armed"; string_of_bool (speedup_armed ~shards) ];
        [ "counts identical"; string_of_bool (identical baseline run) ] ];
  match Psim.drops_by_reason r with
  | [] -> ()
  | drops ->
    print_endline "drops:";
    List.iter (fun (reason, n) -> Printf.printf "  %-12s %d\n" reason n) drops

let measure_parallel ~shards =
  let w = Workload.fat_tree ~k:perf_k ~rate_pps:500. ~duration:2.0 () in
  let baseline = run_psim w ~shards:1 ~mode:Psim.Sequential in
  (w, baseline, run_psim w ~shards ~mode:Psim.Auto)

let check_parallel v ~shards baseline run =
  let module H = Harness in
  H.check v
    ~pass:(Printf.sprintf "determinism check ok: %d shards bit-identical to 1 shard" shards)
    (identical baseline run)
    (Printf.sprintf
       "sharded run (%d shards, %s mode) diverged from the 1-shard run: the parallel engine is \
        the determinism oracle, so a divergence means a data race or a broken window/tie rule"
       shards (mode_name run));
  (* a count, not a timing: the partition either spreads the events or it
     does not, on any machine *)
  let imbalance = Psim.imbalance run.r and bound = H.gate "shard.imbalance" in
  H.check v
    ~pass:(Printf.sprintf "shard balance check ok: imbalance %.3f <= %.2f" imbalance bound)
    (imbalance <= bound)
    (Printf.sprintf
       "shard imbalance %.3f exceeds %.2f (shard.imbalance): the region partition no longer \
        spreads the work, and the busiest shard bounds the speedup at %.2fx"
       imbalance bound (float_of_int shards /. imbalance));
  (* mailbox drains and window bookkeeping allocate a little more per
     packet than the pure sequential loop *)
  let alloc = alloc_per_packet run and budget = H.gate "shard.alloc-words-per-packet" in
  H.check v
    ~pass:
      (Printf.sprintf "sharded allocation check ok: %.1f <= budget %.1f words/packet" alloc budget)
    (alloc <= budget)
    (Printf.sprintf "sharded alloc_words_per_packet %.1f exceeds budget %.1f \
                     (shard.alloc-words-per-packet)" alloc budget);
  (* the speedup is recorded everywhere but asserted nowhere: "speedup
     armed" in the table says whether the machine could show it *)
  let cores = Domain.recommended_domain_count () and speedup = baseline.wall /. run.wall in
  if speedup_armed ~shards && speedup < 2.5 then
    Printf.printf "[perf] WARNING: %.2fx speedup at %d shards on %d cores (target 2.5x)\n" speedup
      shards cores
  else if not (speedup_armed ~shards) then
    Printf.printf
      "[perf] speedup assertion disarmed: %d shards on %d cores (needs >1 core and cores >= \
       shards >= 4)\n"
      shards cores

(* ------------------------------------------------------------------ *)
(* the hybrid fluid/packet tier: perf --fluid                         *)
(* ------------------------------------------------------------------ *)

type fluid_sample = { f : Scenario.fluid_result; f_wall_s : float; f_alloc_words_per_equiv : float }

let equiv_per_s s = s.f.Scenario.fr_packet_equivalents /. s.f_wall_s

(* One hybrid run of the rolling-LFA ISP scenario (Scenario.run_lfa_fluid):
   the benign flows ride the fluid tier, the flood volume is fluid
   aggregates, and the defense's mode protocol demotes the flows near the
   action to packet level. Work is measured in packet-equivalents: actual
   per-hop packet transmissions plus fluid hop-bytes / packet_size.
   Above 100k flows the per-flow rate scales down so the aggregate benign
   offer stays ~4 Gb/s: a million users means thinner flows, not a
   thousandfold-oversubscribed ISP, and it keeps the benign population
   bound-limited so the attack's bottleneck components stay local. The
   demote budget caps packet-tier churn at the same scale, and the goodput
   probe (O(members) per sample) backs off to keep measurement out of the
   measured number. *)
let measure_fluid ~flows =
  let flow_rate_bps = if flows <= 100_000 then 25_000. else 4e9 /. float_of_int flows in
  let demote_budget = if flows > 100_000 then Some 100_000 else None in
  let goodput_period = if flows > 100_000 then 4.0 else 0.5 in
  let f, f_wall_s, alloc_words =
    measured (fun () ->
        Scenario.run_lfa_fluid ~flows ~duration:40. ~flow_rate_bps ?demote_budget
          ~goodput_period ?obs:(Ff_obs.Trace.ambient ()) ())
  in
  { f; f_wall_s;
    f_alloc_words_per_equiv = alloc_words /. Float.max 1. f.Scenario.fr_packet_equivalents }

(* One column per run. *)
let print_fluid samples =
  let row name cell = name :: List.map cell samples in
  let reasons =
    List.sort_uniq compare (List.concat_map (fun s -> List.map fst s.f.Scenario.fr_drops) samples)
  in
  Table.print
    ~header:
      ("metric" :: List.map (fun s -> Printf.sprintf "%d flows" s.f.Scenario.fr_flows) samples)
    ~rows:
      (Scenario.
         [ row "fluid classes" (fun s -> string_of_int s.f.fr_classes);
           row "simulated (s)" (fun s -> Printf.sprintf "%g" s.f.fr_duration);
           row "packet tx" (fun s -> string_of_int s.f.fr_packet_tx);
           row "fluid hop bytes" (fun s -> Printf.sprintf "%.3e" s.f.fr_fluid_hop_bytes);
           row "packet equivalents" (fun s -> Printf.sprintf "%.3e" s.f.fr_packet_equivalents);
           row "equivalents/s" (fun s -> Printf.sprintf "%.3e" (equiv_per_s s));
           row "delivered bytes" (fun s -> Printf.sprintf "%.3e" s.f.fr_delivered_bytes);
           row "demoted peak" (fun s ->
               Printf.sprintf "%d (%.2f%%)" s.f.fr_demoted_peak (100. *. s.f.fr_demoted_frac_peak));
           row "demotions / promotions" (fun s ->
               Printf.sprintf "%d / %d" s.f.fr_demotions s.f.fr_promotions);
           row "mode changes" (fun s -> string_of_int s.f.fr_mode_changes);
           row "attack rolls" (fun s -> string_of_int s.f.fr_rolls);
           row "solver rate events" (fun s -> string_of_int s.f.fr_rate_events);
           row "full solves / solves" (fun s ->
               Printf.sprintf "%d / %d" s.f.fr_solver.Ff_fluid.Fluid.full_solves
                 s.f.fr_solver.Ff_fluid.Fluid.solves);
           row "touched fraction" (fun s -> Printf.sprintf "%.3f" s.f.fr_touched_frac);
           row "alloc words/equiv" (fun s -> Printf.sprintf "%.2f" s.f_alloc_words_per_equiv);
           row "wall (s)" (fun s -> Printf.sprintf "%.3f" s.f_wall_s) ]
      @ List.map
          (fun reason ->
            row ("drops: " ^ reason) (fun s ->
                let n = List.assoc_opt reason s.f.Scenario.fr_drops in
                string_of_int (Option.value ~default:0 n)))
          reasons)

(* The all-packet baseline: the same scenario forced through the packet
   engine (Hybrid.All_packet makes it bit-identical to the pre-hybrid
   stack), over a short pre-attack slice — long enough to amortize setup,
   short enough to stay runnable at 100k flows. It is pinned at 100k flows:
   the pure packet engine cannot finish the 10^6-flow scenario in
   tractable wall time, and its equiv/s is flow-count-insensitive
   (per-packet work), so the 100k figure is the honest denominator for the
   top-scale speedup (perf prints the baseline's flow count beside it). *)
let fluid_baseline_flows = 100_000

let measure_fluid_baseline () =
  let r, wall, _ =
    measured (fun () ->
        Scenario.run_lfa_fluid ~flows:fluid_baseline_flows ~duration:2.5
          ~force:Ff_fluid.Hybrid.All_packet ~packet_recon:false ())
  in
  r.Scenario.fr_packet_equivalents /. wall

(* Steady-state solver allocation, isolated from the scenario: build a
   mid-size population once, then hammer single-link-dirty incremental
   re-solves and count GC words per recompute. The fluid.solver-alloc-words
   gate bounds it — the solver's scratch is all dense
   pre-sized arrays, so growth here means a per-solve allocation (list,
   closure, tuple key) crept back into the fill path. *)
let measure_solver_alloc () =
  let module Engine = Ff_netsim.Engine in
  let module Net = Ff_netsim.Net in
  let module Fluid = Ff_fluid.Fluid in
  let topo = T.isp ~cores:4 ~access_per_core:2 ~hosts_per_access:4 () in
  let engine = Engine.create () in
  (* not a scenario: the fluid solver alone, the engine never runs *)
  let net = Net.create engine topo in
  Scenario.install_all_routes net;
  let hosts = Array.of_list (List.map (fun (n : T.node) -> n.T.id) (T.hosts topo)) in
  let nh = Array.length hosts in
  let fl = Fluid.create net () in
  for i = 0 to 499 do
    let src = hosts.(i mod nh) in
    let dst = hosts.((i * 7 + 1) mod nh) in
    if src <> dst then
      ignore
        (Fluid.add fl ~src ~dst
           (if i mod 3 = 0 then Fluid.Adaptive { rtt = 0.02; max_rate = 1e6 }
            else Fluid.Constant { rate = 25_000. }))
  done;
  Fluid.recompute fl;
  let li = Net.link_index net ~from_:hosts.(0) ~to_:(List.hd (Net.neighbors_of net hosts.(0))) in
  let iters = 2_000 in
  let (), _, words =
    measured (fun () ->
        for _ = 1 to iters do
          Fluid.mark_link_dirty fl li;
          Fluid.recompute fl
        done)
  in
  words /. float_of_int iters

let measure_fluid_sweep () =
  let sweep =
    List.map
      (fun flows ->
        Printf.printf "[perf] hybrid fluid run: %d flows\n%!" flows;
        measure_fluid ~flows)
      [ 1_000; 10_000; 100_000; 1_000_000 ]
  in
  Printf.printf "[perf] all-packet baseline: %d flows, 2.5 sim seconds\n%!" fluid_baseline_flows;
  let baseline_eps = measure_fluid_baseline () in
  Printf.printf "[perf] solver steady-state allocation micro-benchmark\n%!";
  (sweep, baseline_eps, measure_solver_alloc ())

(* The gates read the largest sweep point. Fluid equivalents cost no
   per-unit allocation, so its words per equivalent are tiny: growth means
   per-flow work crept into a per-sample or per-solve path. The 10^6-flow
   point must also hold the throughput floor and stay local. *)
let check_fluid v ~top ~speedup ~solver_alloc =
  let module H = Harness in
  let budget = H.gate "fluid.alloc-words-per-equiv" in
  H.check v
    ~pass:
      (Printf.sprintf "fluid allocation check ok: %.2f <= budget %.2f words/equiv"
         top.f_alloc_words_per_equiv budget)
    (top.f_alloc_words_per_equiv <= budget)
    (Printf.sprintf "fluid alloc_words_per_equiv %.2f exceeds budget %.2f \
                     (fluid.alloc-words-per-equiv)" top.f_alloc_words_per_equiv budget);
  let budget = H.gate "fluid.solver-alloc-words" in
  H.check v
    ~pass:
      (Printf.sprintf "solver allocation check ok: %.1f <= budget %.1f words/recompute"
         solver_alloc budget)
    (solver_alloc <= budget)
    (Printf.sprintf "solver alloc %.1f words/recompute exceeds budget %.1f \
                     (fluid.solver-alloc-words)" solver_alloc budget);
  let flows = top.f.Scenario.fr_flows and floor = H.gate "fluid.equiv-per-s" in
  H.check v
    ~pass:
      (Printf.sprintf "fluid throughput check ok: %.2e equiv/s at %d flows" (equiv_per_s top) flows)
    (flows < 1_000_000 || equiv_per_s top >= floor)
    (Printf.sprintf "%.2e equiv/s at %d flows is under the %.0e floor (fluid.equiv-per-s)"
       (equiv_per_s top) flows floor);
  let touched = top.f.Scenario.fr_touched_frac and bound = H.gate "fluid.touched-frac" in
  H.check v
    ~pass:(Printf.sprintf "solver locality check ok: touched_frac %.3f <= %.2f" touched bound)
    (touched <= bound)
    (Printf.sprintf "solver touched_frac %.3f exceeds %.2f (fluid.touched-frac): incremental \
                     locality lost" touched bound);
  (* wall-clock ratios vary with the machine: reported, never asserted *)
  if speedup < 20. then
    Printf.printf "[perf] WARNING: hybrid speedup %.1fx at %d flows (target 20x vs all-packet)\n"
      speedup flows
  else Printf.printf "[perf] hybrid speedup check ok: %.1fx >= 20x at %d flows\n" speedup flows

let perf ~shards ~fluid =
  let s = measure_perf () in
  let par =
    Option.map
      (fun n ->
        Printf.printf "\n[perf] sharded engine: fat-tree(%d), %d shards\n%!" perf_k n;
        (n, measure_parallel ~shards:n))
      shards
  in
  let fluid =
    if fluid then begin
      Printf.printf "\n[perf] hybrid fluid/packet tier: isp topology, rolling fluid LFA\n%!";
      let sweep, baseline_eps, solver_alloc = measure_fluid_sweep () in
      let top = List.nth sweep (List.length sweep - 1) in
      Some (sweep, baseline_eps, equiv_per_s top /. Float.max 1. baseline_eps, solver_alloc)
    end
    else None
  in
  Table.print
    ~header:[ "metric"; "value" ]
    ~rows:
      [ [ "hop transmissions"; string_of_int s.packets ];
        [ "sim events"; string_of_int s.events ];
        [ "wall (s)"; Printf.sprintf "%.3f" s.wall_s ];
        [ "packets/s"; Printf.sprintf "%.0f" s.packets_per_sec ];
        [ "events/s"; Printf.sprintf "%.0f" s.events_per_sec ];
        [ "alloc words/packet"; Printf.sprintf "%.1f" s.alloc_words_per_packet ];
        [ "drops"; string_of_int s.drops ] ];
  Option.iter
    (fun (shards, (w, baseline, run)) -> print_parallel w ~shards ~baseline run)
    par;
  Option.iter
    (fun (sweep, baseline_eps, speedup, solver_alloc) ->
      print_fluid sweep;
      Printf.printf
        "[perf] all-packet baseline %.2e equiv/s (at %d flows) -> hybrid speedup %.1fx at the \
         top scale\n"
        baseline_eps fluid_baseline_flows speedup;
      Printf.printf "[perf] solver steady-state allocation: %.1f words/recompute\n" solver_alloc)
    fluid;
  let v = Harness.verdicts "perf" in
  let budget = Harness.gate "perf.alloc-words-per-packet" in
  Harness.check v
    ~pass:
      (Printf.sprintf "allocation check ok: %.1f <= budget %.1f words/packet"
         s.alloc_words_per_packet budget)
    (s.alloc_words_per_packet <= budget)
    (Printf.sprintf
       "alloc_words_per_packet %.1f exceeds budget %.1f (perf.alloc-words-per-packet): a change \
        has reintroduced per-packet allocation on the hot path"
       s.alloc_words_per_packet budget);
  Option.iter (fun (shards, (_, baseline, run)) -> check_parallel v ~shards baseline run) par;
  Option.iter
    (fun (sweep, _, speedup, solver_alloc) ->
      check_fluid v ~top:(List.nth sweep (List.length sweep - 1)) ~speedup ~solver_alloc)
    fluid;
  Harness.conclude v
