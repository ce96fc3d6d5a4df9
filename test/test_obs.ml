(* Tests for Ff_obs: event trace, metrics registry, profiler, and the
   telemetry hooks wired through the simulator and defense subsystems. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet
module Sketch = Ff_dataplane.Sketch
module Protocol = Ff_modes.Protocol
module Transfer = Ff_scaling.Transfer
module Event = Ff_obs.Event
module Trace = Ff_obs.Trace
module Metrics = Ff_obs.Metrics
module Profile = Ff_obs.Profile

(* ---------------- Trace ---------------- *)

let test_trace_emit_and_counts () =
  let tr = Trace.create () in
  Trace.emit tr ~time:0.5 (Event.Drop { node = 1; reason = "ttl-expired" });
  Trace.emit tr ~time:0.7 (Event.Probe { sw = 2; kind = "mode" });
  Trace.emit tr ~time:0.9 (Event.Drop { node = 3; reason = "no-route" });
  Alcotest.(check int) "length" 3 (Trace.length tr);
  Alcotest.(check int) "count" 3 (Trace.count tr);
  Alcotest.(check int) "drop count" 2 (Trace.count_kind tr "drop");
  Alcotest.(check int) "probe count" 1 (Trace.count_kind tr "probe");
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped tr)

let test_trace_capacity_bounded () =
  let tr = Trace.create ~capacity:10 () in
  for i = 1 to 25 do
    Trace.emit tr ~time:(float_of_int i) (Event.Drop { node = i; reason = "x" })
  done;
  Alcotest.(check int) "buffer capped" 10 (Trace.length tr);
  Alcotest.(check int) "total count survives" 25 (Trace.count tr);
  Alcotest.(check int) "dropped counted" 15 (Trace.dropped tr);
  Alcotest.(check int) "per-kind count survives" 25 (Trace.count_kind tr "drop")

let test_trace_rebase_across_runs () =
  (* two simulation runs share one trace; the second engine restarts at
     t=0 but stamped times must stay monotone *)
  let tr = Trace.create () in
  Trace.emit tr ~time:1.0 (Event.Probe { sw = 0; kind = "mode" });
  Trace.emit tr ~time:9.0 (Event.Probe { sw = 0; kind = "mode" });
  Trace.emit tr ~time:0.5 (Event.Probe { sw = 0; kind = "mode" });
  Trace.emit tr ~time:2.0 (Event.Probe { sw = 0; kind = "mode" });
  let times = List.map (fun (e : Trace.entry) -> e.Trace.time) (Trace.events tr) in
  Alcotest.(check (list (float 1e-9))) "rebased" [ 1.0; 9.0; 9.5; 11.0 ] times;
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone times)

let test_trace_sink_sees_overflow () =
  let tr = Trace.create ~capacity:2 () in
  let seen = ref 0 in
  Trace.on_event tr (fun _ -> incr seen);
  for i = 1 to 5 do
    Trace.emit tr ~time:(float_of_int i) (Event.Drop { node = 0; reason = "x" })
  done;
  Alcotest.(check int) "sink called past capacity" 5 !seen

let test_trace_json_shape () =
  let tr = Trace.create () in
  Trace.emit tr ~time:1.25
    (Event.Mode_transition { sw = 3; attack = "lfa"; activated = true });
  Trace.emit tr ~time:2.5
    (Event.State_transfer
       { xfer_id = 7; src = 2; dst = 5; phase = Event.Xfer_start; chunks = 0 });
  match Trace.events tr with
  | [ a; b ] ->
    let ja = Trace.entry_to_json a and jb = Trace.entry_to_json b in
    let contains hay needle =
      let nh = String.length hay and nn = String.length needle in
      let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
      go 0
    in
    List.iter
      (fun (json, frag) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s contains %s" json frag)
          true (contains json frag))
      [ (ja, "\"event\": \"mode_transition\""); (ja, "\"sw\": 3");
        (ja, "\"attack\": \"lfa\""); (ja, "\"activated\": true");
        (jb, "\"event\": \"state_transfer\""); (jb, "\"phase\": \"start\"");
        (jb, "\"xfer_id\": 7") ]
  | _ -> Alcotest.fail "expected two entries"

let test_trace_jsonl_file_roundtrip () =
  let tr = Trace.create () in
  Trace.emit tr ~time:0.1 (Event.Reroute { sw = 1; dst = 9; next_hop = 4 });
  Trace.emit tr ~time:0.2 (Event.Fec_recovery { xfer_id = 1; group = 0 });
  let path = Filename.temp_file "ff_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.write tr path;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      Alcotest.(check int) "one line per event" 2 (List.length !lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line is a json object" true
            (String.length l > 1 && l.[0] = '{' && l.[String.length l - 1] = '}'))
        !lines)

let test_event_kind_labels () =
  Alcotest.(check string) "mode" "mode_transition"
    (Event.kind (Event.Mode_transition { sw = 0; attack = "lfa"; activated = false }));
  Alcotest.(check string) "xfer" "state_transfer"
    (Event.kind
       (Event.State_transfer
          { xfer_id = 0; src = 0; dst = 0; phase = Event.Xfer_complete; chunks = 0 }));
  Alcotest.(check string) "fec" "fec_recovery"
    (Event.kind (Event.Fec_recovery { xfer_id = 0; group = 0 }));
  Alcotest.(check string) "reroute" "reroute"
    (Event.kind (Event.Reroute { sw = 0; dst = 0; next_hop = 0 }))

let test_ambient_restored () =
  let outer = Trace.create () and inner = Trace.create () in
  Trace.set_ambient (Some outer);
  let is tr = match Trace.ambient () with Some t -> t == tr | None -> false in
  Trace.with_ambient (Some inner) (fun () ->
      Alcotest.(check bool) "inner ambient" true (is inner));
  Alcotest.(check bool) "outer restored" true (is outer);
  Trace.set_ambient None

(* ---------------- Metrics ---------------- *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~scope:(Metrics.Switch 2) "drops" in
  Metrics.Counter.incr c;
  Metrics.Counter.add c 4.;
  Alcotest.(check (float 1e-9)) "value" 5. (Metrics.Counter.value c);
  Alcotest.(check (float 1e-9)) "lookup by name+scope" 5.
    (Metrics.counter_value m ~scope:(Metrics.Switch 2) "drops");
  Alcotest.(check (float 1e-9)) "other scope empty" 0.
    (Metrics.counter_value m ~scope:(Metrics.Switch 3) "drops");
  Metrics.Counter.incr (Metrics.counter m ~scope:(Metrics.Switch 3) "drops");
  Alcotest.(check (float 1e-9)) "sum over scopes" 6. (Metrics.sum_counters m "drops")

let test_metrics_histogram_window () =
  let m = Metrics.create ~hist_window:10. () in
  let h = Metrics.histogram m ~scope:(Metrics.Link (0, 1)) "latency" in
  Metrics.Histogram.observe h ~now:0. 1.;
  Metrics.Histogram.observe h ~now:5. 2.;
  Metrics.Histogram.observe h ~now:12. 3.;
  (* at t=12 the sample from t=0 has aged out of the 10 s window *)
  Alcotest.(check int) "windowed count" 2 (Metrics.Histogram.count h ~now:12.);
  Alcotest.(check (float 1e-9)) "windowed mean" 2.5 (Metrics.Histogram.mean h ~now:12.)

let test_metrics_csv () =
  let m = Metrics.create () in
  Metrics.Counter.incr (Metrics.counter m "events");
  Metrics.Gauge.set (Metrics.gauge m ~scope:(Metrics.Switch 1) "queue") 7.;
  let rows = Metrics.rows m ~now:0. in
  Alcotest.(check bool) "two rows" true (List.length rows = 2);
  List.iter
    (fun row -> Alcotest.(check int) "4 columns" 4 (List.length row))
    rows

(* ---------------- Profiler ---------------- *)

let test_profile_counts_events () =
  let span = Profile.start ~events:100 ~trace_events:10 "unit" in
  let r = Profile.finish span ~events:350 ~trace_events:25 in
  Alcotest.(check int) "events delta" 250 r.Profile.events;
  Alcotest.(check int) "trace delta" 15 r.Profile.trace_events;
  Alcotest.(check bool) "rate positive" true (r.Profile.events_per_s > 0.)

(* ---------------- Hooks through the simulator ---------------- *)

let modes_for = function
  | Packet.Lfa -> [ "reroute" ]
  | Packet.Volumetric -> [ "drop" ]
  | Packet.Pulsing -> [ "reroute" ]
  | Packet.Recon -> [ "obfuscate" ]
  | Packet.Synflood -> [ "syn_guard" ]

let test_mode_transitions_traced () =
  let tr = Trace.create () in
  Trace.with_ambient (Some tr) (fun () ->
      let topo = T.ring ~n:4 () in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      let p = Protocol.create net ~modes_for () in
      Protocol.raise_alarm p ~sw:0 Packet.Lfa;
      Engine.run engine ~until:1.);
  Alcotest.(check int) "one transition per switch" 4
    (Trace.count_kind tr "mode_transition");
  Alcotest.(check bool) "mode probes traced" true (Trace.count_kind tr "probe" > 0)

let test_state_transfer_traced () =
  let tr = Trace.create () in
  Trace.with_ambient (Some tr) (fun () ->
      let topo = T.linear ~n:4 () in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      let s0 = (T.node_by_name topo "s0").T.id in
      let s3 = (T.node_by_name topo "s3").T.id in
      let e = List.init 20 (fun i -> (Printf.sprintf "reg[%d]" i, float_of_int i)) in
      let x = Transfer.send net ~src_sw:s0 ~dst_sw:s3 ~entries:e
          ~on_complete:(fun _ -> ()) () in
      Engine.run engine ~until:2.;
      Alcotest.(check bool) "complete" true (Transfer.complete x));
  Alcotest.(check bool) "start + complete traced" true
    (Trace.count_kind tr "state_transfer" >= 2)

let test_sketch_transfer_preserves_total () =
  (* regression for the absorb total-inflation bug, end to end through the
     in-band transfer path *)
  let topo = T.linear ~n:4 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let s0 = (T.node_by_name topo "s0").T.id in
  let s3 = (T.node_by_name topo "s3").T.id in
  let src = Sketch.create ~rows:3 ~cols:64 () in
  let dst = Sketch.create ~rows:3 ~cols:64 () in
  for key = 0 to 30 do
    Sketch.add src key (float_of_int (key + 1))
  done;
  let x = Transfer.send_sketch net ~src_sw:s0 ~dst_sw:s3 ~sketch:src ~into:dst in
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "transfer complete" true (Transfer.complete x);
  Alcotest.(check (float 1e-9)) "total preserved exactly" (Sketch.total src)
    (Sketch.total dst);
  for key = 0 to 30 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "estimate for key %d" key)
      (Sketch.estimate src key) (Sketch.estimate dst key)
  done

let test_net_drop_counter () =
  let m = Metrics.create () in
  let tr = Trace.create () in
  Trace.with_ambient (Some tr) (fun () ->
      let topo = T.linear ~n:2 () in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      Net.attach_metrics net (Some m);
      (* packet to an unroutable destination gets dropped and counted *)
      let sw = List.hd (Net.switch_ids net) in
      let pkt = Packet.make ~src:999 ~dst:998 ~flow:1 () in
      Net.inject_at_switch net ~sw pkt;
      Engine.run engine ~until:1.);
  Alcotest.(check bool) "drop traced" true (Trace.count_kind tr "drop" > 0);
  Alcotest.(check bool) "drop counted" true (Metrics.sum_counters m "drops" > 0.)

let () =
  Alcotest.run "ff_obs"
    [
      ( "trace",
        [
          Alcotest.test_case "emit and counts" `Quick test_trace_emit_and_counts;
          Alcotest.test_case "capacity bounded" `Quick test_trace_capacity_bounded;
          Alcotest.test_case "rebase across runs" `Quick test_trace_rebase_across_runs;
          Alcotest.test_case "sink sees overflow" `Quick test_trace_sink_sees_overflow;
          Alcotest.test_case "json shape" `Quick test_trace_json_shape;
          Alcotest.test_case "jsonl file" `Quick test_trace_jsonl_file_roundtrip;
          Alcotest.test_case "event kinds" `Quick test_event_kind_labels;
          Alcotest.test_case "ambient restored" `Quick test_ambient_restored;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "histogram window" `Quick test_metrics_histogram_window;
          Alcotest.test_case "csv rows" `Quick test_metrics_csv;
        ] );
      ( "profile",
        [ Alcotest.test_case "event deltas" `Quick test_profile_counts_events ] );
      ( "hooks",
        [
          Alcotest.test_case "mode transitions traced" `Quick test_mode_transitions_traced;
          Alcotest.test_case "state transfer traced" `Quick test_state_transfer_traced;
          Alcotest.test_case "sketch transfer total" `Quick
            test_sketch_transfer_preserves_total;
          Alcotest.test_case "net drop counter" `Quick test_net_drop_counter;
        ] );
    ]
