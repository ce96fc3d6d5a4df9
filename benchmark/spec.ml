(* What the benchmark measures: its workloads and every metric it prints,
   with unit, direction and regression bound. BENCHMARK.json at the repo
   root repeats these declarations for outside tooling; the benchmark's
   test checks that the two agree. *)

(* Why each workload is here is in README.md and BENCHMARK.json. *)
let workload_names =
  [ "fig3_lfa"; "fattree_wide"; "synflood_guard"; "fluid_isp_1m"; "sharded_fattree8" ]

type metric = {
  name : string;
  unit_ : string;
  better : Stats.better;
  bound : Stats.bound;
  only : string list option;  (** workloads it is defined on; [None] = all *)
}

let m ?only name unit_ better bound = { name; unit_; better; bound; only }

(* End-to-end metrics, all measured with tracing off. The first five are
   defined on every workload and are the ones BENCHMARK.json gates on; the
   rest hold on some workloads only and are judged by [compare].

   Each bound is at least three times the widest spread (interquartile
   range over median) measured across ten seeds on a shared 2-core
   machine, capped at 25%. Host times on that machine drift by 10-25%
   over tens of minutes for the memory-heavy and 2-domain workloads,
   which sets the time bounds; heap high-water marks of a few MiB move in
   whole heap increments of 2-4%; allocation per equivalent moves 0.9%
   between seeds on the fat-tree. *)
let end_to_end =
  Stats.
    [
      m "wall_s" "s" Lower (Rel 0.25);
      m "setup_s" "s" Lower (Rel_floor (0.25, 0.005));
      m "equiv_per_s" "1/s" Higher (Rel 0.25);
      m "alloc_words_per_equiv" "words" Lower (Rel 0.03);
      m "peak_heap_mb" "MiB" Lower (Rel 0.15);
      m "speedup_2shard" "x" Higher (Rel 0.25) ~only:[ "sharded_fattree8" ];
      m "goodput_under_attack" "ratio" Higher (Abs 0.005)
        ~only:[ "fig3_lfa"; "synflood_guard"; "fluid_isp_1m" ];
      m "recovery_s" "sim_s" Lower (Abs 0.01) ~only:[ "fig3_lfa" ];
      (* not on fattree_wide: its CBR load alarms the detectors from 0.25 s,
         before any attack, so the first activation after the attack's
         start times the alarm cycle, not a reaction *)
      m "reaction_s" "sim_s" Lower (Abs 0.001) ~only:[ "fig3_lfa" ];
      m "failed_frac" "ratio" Lower (Abs 0.);
    ]

let gated_end_to_end = List.filter (fun m -> m.only = None && m.name <> "failed_frac") end_to_end

let applies m workload = match m.only with None -> true | Some ws -> List.mem workload ws

(* The booster stages the traced run attributes time to, by stage name
   (numbered instances such as view-sync-<class> fold into one name). *)
let stages =
  [ "ttl"; "mode-protocol"; "view-sync"; "lfa-detector"; "dropper"; "reroute"; "obfuscator";
    "suspicious-source-marker"; "suspect-sketch"; "syn-guard" ]

(* Per-layer metrics, printed by traced runs. A layer a workload does not
   exercise reads 0. *)
let per_layer =
  let c name unit_ = (name, unit_) in
  [ c "engine.events" "count"; c "engine.events_per_equiv" "ratio"; c "net.hop_tx" "count";
    c "net.drop_frac" "ratio"; c "net.queue_drop_frac" "ratio";
    c "netsim.self_ns_per_equiv" "ns/equiv" ]
  @ List.concat_map
      (fun s ->
        [ c (Printf.sprintf "stage.%s.calls" s) "count";
          c (Printf.sprintf "stage.%s.ns_per_call" s) "ns/call";
          c (Printf.sprintf "stage.%s.words_per_call" s) "words/call";
          c (Printf.sprintf "stage.%s.share" s) "ratio";
          c (Printf.sprintf "stage.%s.drop_frac" s) "ratio" ])
      stages
  @ [ c "boosters.share" "ratio"; c "modes.transitions" "count"; c "modes.readverts" "count";
      c "modes.repairs" "count"; c "reroute.probes_sent" "count";
      c "flow.handshakes_completed" "count"; c "flow.handshake_fail_frac" "ratio";
      c "flow.backlog_drops" "count"; c "flow.syn_timeouts" "count";
      c "syn_guard.validated_frac" "ratio"; c "cuckoo.occupancy" "ratio";
      c "cuckoo.failed_inserts" "count"; c "cuckoo.insert_ns" "ns/op"; c "cuckoo.member_ns" "ns/op";
      c "cuckoo.delete_ns" "ns/op"; c "cuckoo.kicks_per_insert" "ratio"; c "fluid.classes" "count";
      c "fluid.rate_events" "count"; c "fluid.solves" "count"; c "fluid.skipped_frac" "ratio";
      c "fluid.full_solve_frac" "ratio"; c "fluid.touched_frac" "ratio";
      c "fluid.packet_share" "ratio"; c "hybrid.demotions" "count";
      c "hybrid.demote_denied" "count"; c "fluid.recompute_us" "us/op";
      c "setup.routes_ms" "ms/op"; c "hybrid.add_flow_ns" "ns/op";
      c "parallel.baseline_wall_s" "s"; c "parallel.windows" "count";
      c "parallel.exchanged_per_window" "ratio"; c "parallel.window_us" "us/window";
      c "parallel.shard_imbalance" "ratio"; c "gc.minor_s" "s"; c "gc.major_s" "s";
      c "gc.share" "ratio"; c "gc.promoted_frac" "ratio"; c "gc.major_collections" "count";
      c "trace.overhead_frac" "ratio" ]
