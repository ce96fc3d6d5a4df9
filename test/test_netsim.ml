(* Tests for Ff_netsim: event engine, link model, routing, transports. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet

(* ---------------- Engine ---------------- *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:2. (fun () -> log := 2 :: !log);
  Engine.schedule e ~at:1. (fun () -> log := 1 :: !log);
  Engine.schedule e ~at:3. (fun () -> log := 3 :: !log);
  Engine.run e ~until:10.;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.(check (float 0.)) "clock at until" 10. (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:1. (fun () -> log := "a" :: !log);
  Engine.schedule e ~at:1. (fun () -> log := "b" :: !log);
  Engine.run e ~until:2.;
  Alcotest.(check (list string)) "fifo on ties" [ "a"; "b" ] (List.rev !log)

let test_engine_rejects_past () =
  let e = Engine.create () in
  Engine.schedule e ~at:5. (fun () -> ());
  Engine.run e ~until:5.;
  Alcotest.(check bool) "raises on past" true
    (try
       Engine.schedule e ~at:1. (fun () -> ());
       false
     with Invalid_argument _ -> true)

let test_engine_every_until () =
  let e = Engine.create () in
  let count = ref 0 in
  Engine.every e ~period:1. ~until:5.5 (fun () -> incr count);
  Engine.run e ~until:20.;
  Alcotest.(check int) "five firings" 5 !count

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.schedule e ~at:1. (fun () ->
      Engine.after e ~delay:1. (fun () -> fired := true));
  Engine.run e ~until:3.;
  Alcotest.(check bool) "nested event ran" true !fired

(* Regression: [clear] used to reset the sequence counter but neither the
   clock nor the packet handler, so a cleared engine rejected fresh
   schedules at early times ("in the past") and replayed packets into the
   previous run's handler. A cleared engine must behave like a
   freshly-created one. *)
let test_engine_reuse_after_clear () =
  let e = Engine.create () in
  let first_run = ref 0 and second_run = ref 0 in
  Engine.set_packet_handler e (fun ~to_node:_ ~from_node:_ _ -> incr first_run);
  Engine.schedule_packet e ~at:5. ~to_node:1 ~from_node:0
    (Packet.make ~src:0 ~dst:1 ~flow:1 ~size:100 ());
  Engine.schedule e ~at:7. (fun () -> ());
  Engine.run e ~until:10.;
  Alcotest.(check int) "first run delivered" 1 !first_run;
  Engine.clear e;
  Alcotest.(check (float 0.)) "clock reset" 0. (Engine.now e);
  Alcotest.(check int) "no pending events" 0 (Engine.pending e);
  (* schedules at times before the previous run's clock must be legal *)
  Engine.set_packet_handler e (fun ~to_node:_ ~from_node:_ _ -> incr second_run);
  Engine.schedule_packet e ~at:1. ~to_node:1 ~from_node:0
    (Packet.make ~src:0 ~dst:1 ~flow:2 ~size:100 ());
  Engine.run e ~until:2.;
  Alcotest.(check int) "second handler fired" 1 !second_run;
  Alcotest.(check int) "first handler not replayed" 1 !first_run

let test_engine_per_engine_steps () =
  let a = Engine.create () and b = Engine.create () in
  let total0 = Engine.total_steps () in
  for i = 1 to 3 do
    Engine.schedule a ~at:(float_of_int i) (fun () -> ())
  done;
  Engine.schedule b ~at:1. (fun () -> ());
  Engine.run a ~until:10.;
  Engine.run b ~until:10.;
  Alcotest.(check int) "engine a counts its own" 3 (Engine.steps a);
  Alcotest.(check int) "engine b counts its own" 1 (Engine.steps b);
  Alcotest.(check int) "aggregate advanced by both" 4 (Engine.total_steps () - total0);
  Engine.clear a;
  Alcotest.(check int) "steps survive clear (odometer)" 3 (Engine.steps a)

(* Dispatch stores each popped time into the engine's flat clock cell, so
   a packet-lane event costs no allocation (a boxed float per event when
   the clock was a plain mutable field). Scheduling happens before the
   measurement: heap growth is not dispatch. *)
let test_engine_dispatch_no_alloc () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.set_packet_handler e (fun ~to_node:_ ~from_node:_ _ -> incr fired);
  let pkt = Packet.make ~src:0 ~dst:1 ~flow:1 () in
  let n = 100_000 in
  for i = 1 to n do
    Engine.schedule_packet e ~at:(float_of_int i *. 1e-4) ~to_node:1 ~from_node:0 pkt
  done;
  let w0 = Gc.minor_words () in
  Engine.run e ~until:(float_of_int n);
  let per_event = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every event dispatched" n !fired;
  Alcotest.(check bool)
    (Printf.sprintf "dispatch allocates nothing (%.3f words per event)" per_event)
    true (per_event < 0.01)

(* The push path, pinned the way the test above pins the pop path: with
   both lanes' capacity already grown (a clear keeps it), scheduling
   packets and a pre-built closure into an engine holding about 2,000
   events writes keys, slot ids and one arena row per call, and
   allocates nothing. *)
let test_engine_schedule_no_alloc () =
  let e = Engine.create () in
  let pkt = Packet.make ~src:0 ~dst:1 ~flow:1 () in
  let f () = () in
  let held = 2_000 and n = 100_000 in
  for i = 1 to held + n do
    Engine.schedule_packet e ~at:(float_of_int i) ~to_node:1 ~from_node:0 pkt;
    Engine.schedule e ~at:(float_of_int i) f
  done;
  Engine.clear e;
  let at i = float_of_int (i * 7919 mod 1009) in
  for i = 1 to held / 2 do
    Engine.schedule_packet e ~at:(at i) ~to_node:1 ~from_node:0 pkt;
    Engine.schedule e ~at:(at i) f
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to n do
    Engine.schedule_packet e ~at:(at i) ~to_node:(i land 15) ~from_node:0 pkt;
    Engine.schedule e ~at:(at i) f
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int (2 * n) in
  Alcotest.(check int) "every event queued" (held + (2 * n)) (Engine.pending e);
  Alcotest.(check bool)
    (Printf.sprintf "schedule allocates nothing (%.3f words per call)" per_call)
    true (per_call < 0.01)

(* ---------------- Link model ---------------- *)

let two_hosts () =
  (* h0 - s0 - h1 with 10 Mb/s links, 1 ms delay *)
  let topo = T.linear ~n:1 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h0 = (T.node_by_name topo "h0").T.id in
  let h1 = (T.node_by_name topo "h1").T.id in
  let s0 = (T.node_by_name topo "s0").T.id in
  Net.set_route net ~sw:s0 ~dst:h1 ~next_hop:h1;
  Net.set_route net ~sw:s0 ~dst:h0 ~next_hop:h0;
  (topo, engine, net, h0, h1, s0)

let test_link_latency () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  let arrival = ref 0. in
  (Net.host net h1).Net.fallback_rx <- Some (fun _ -> arrival := Engine.now engine);
  let pkt = Packet.make ~src:h0 ~dst:h1 ~flow:99 ~size:1000 () in
  Engine.schedule engine ~at:0. (fun () -> Net.send_from_host net pkt);
  Engine.run engine ~until:1.;
  (* 2 hops: 2 x (1000 B / 10 Mb/s = 0.8 ms serialization + 1 ms prop) *)
  Alcotest.(check (float 1e-6)) "store-and-forward latency" 0.0036 !arrival

let test_queue_overflow () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  (* blast 200 packets instantaneously into a 37.5 kB queue *)
  Engine.schedule engine ~at:0. (fun () ->
      for i = 0 to 199 do
        Net.send_from_host net (Packet.make ~src:h0 ~dst:h1 ~flow:1 ~seq:i ())
      done);
  Engine.run engine ~until:2.;
  let drops = List.assoc_opt "queue-overflow" (Net.drops_by_reason net) in
  Alcotest.(check bool) "drop-tail engaged" true (match drops with Some d -> d > 100 | None -> false)

let test_ttl_expiry_generates_reply () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  let got = ref None in
  Hashtbl.replace (Net.host net h0).Net.receivers 7 (fun pkt ->
      match pkt.Packet.payload with
      | Packet.Traceroute_reply { responder; hop; _ } -> got := Some (hop, responder)
      | _ -> ());
  let probe =
    Packet.make ~src:h0 ~dst:h1 ~flow:7 ~ttl:1
      ~payload:(Packet.Traceroute_probe { probe_id = 1; probe_ttl = 1; responder = -1 })
      ()
  in
  Engine.schedule engine ~at:0. (fun () -> Net.send_from_host net probe);
  Engine.run engine ~until:1.;
  match !got with
  | Some (hop, responder) ->
    Alcotest.(check int) "hop" 1 hop;
    Alcotest.(check bool) "responder is the switch" true
      ((T.node (Net.topology net) responder).T.kind = T.Switch)
  | None -> Alcotest.fail "no time-exceeded reply"

(* The time-exceeded reply names the probe's [responder] when a stage
   (topology obfuscation) set one, and the expiring switch otherwise. *)
let test_ttl_expiry_reply_responder () =
  let _, engine, net, h0, h1, s0 = two_hosts () in
  let replies = ref [] in
  Hashtbl.replace (Net.host net h0).Net.receivers 7 (fun pkt ->
      match pkt.Packet.payload with
      | Packet.Traceroute_reply { probe_id; responder; _ } ->
        replies := (probe_id, responder) :: !replies
      | _ -> ());
  let virtual_responder = 1000 + s0 in
  List.iter
    (fun (probe_id, responder) ->
      let probe =
        Packet.make ~src:h0 ~dst:h1 ~flow:7 ~ttl:1
          ~payload:(Packet.Traceroute_probe { probe_id; probe_ttl = 1; responder })
          ()
      in
      Engine.schedule engine ~at:0. (fun () -> Net.send_from_host net probe))
    [ (1, -1); (2, virtual_responder) ];
  Engine.run engine ~until:1.;
  Alcotest.(check (list (pair int int))) "unset names the switch, set names the responder"
    [ (1, s0); (2, virtual_responder) ]
    (List.sort compare !replies)

let test_utilization_tracking () =
  let _, engine, net, h0, h1, s0 = two_hosts () in
  ignore s0;
  let _flow = Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:600. () in
  Engine.run engine ~until:2.;
  (* 600 pps x 1000 B = 4.8 Mb/s on 10 Mb/s *)
  let util = Net.utilization net ~from_:h0 ~to_:s0 in
  Alcotest.(check bool) "util near 0.48" true (Float.abs (util -. 0.48) < 0.1)

(* ---------------- Stages and routing ---------------- *)

let test_stage_management () =
  let _, _, net, _, _, s0 = two_hosts () in
  let st name = { Net.stage_name = name; process = (fun _ _ -> Net.Continue) } in
  Net.add_stage net ~sw:s0 (st "a");
  Net.add_stage net ~sw:s0 (st "b");
  Net.add_stage ~front:true net ~sw:s0 (st "front");
  Alcotest.(check bool) "has a" true (Net.has_stage net ~sw:s0 ~name:"a");
  let names = List.map (fun s -> s.Net.stage_name) (Net.switch net s0).Net.stages in
  Alcotest.(check (list string)) "order" [ "front"; "ttl"; "a"; "b" ] names;
  Net.remove_stage net ~sw:s0 ~name:"a";
  Alcotest.(check bool) "removed" false (Net.has_stage net ~sw:s0 ~name:"a");
  (* replacing by name keeps one instance *)
  Net.add_stage net ~sw:s0 (st "b");
  let names = List.map (fun s -> s.Net.stage_name) (Net.switch net s0).Net.stages in
  Alcotest.(check int) "b unique" 1 (List.length (List.filter (( = ) "b") names))

let test_drop_stage () =
  let _, engine, net, h0, h1, s0 = two_hosts () in
  Net.add_stage net ~sw:s0
    { Net.stage_name = "drop-all"; process = (fun _ _ -> Net.Drop "test-drop") };
  let received = ref 0 in
  (Net.host net h1).Net.fallback_rx <- Some (fun _ -> incr received);
  Engine.schedule engine ~at:0. (fun () ->
      Net.send_from_host net (Packet.make ~src:h0 ~dst:h1 ~flow:1 ()));
  Engine.run engine ~until:1.;
  Alcotest.(check int) "nothing delivered" 0 !received;
  Alcotest.(check (option int)) "reason counted" (Some 1)
    (List.assoc_opt "test-drop" (Net.drops_by_reason net))

let test_host_control_dropped () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  let received = ref [] and replies = ref 0 in
  (Net.host net h1).Net.fallback_rx <- Some (fun p -> received := p.Packet.payload :: !received);
  (Net.host net h0).Net.fallback_rx <- Some (fun _ -> incr replies);
  let forged =
    [ Packet.Mode_probe
        { attack = Packet.Lfa; epoch = max_int / 2; origin = 0; activate = false;
          region_ttl = 8 };
      Packet.Util_probe { dst = h1; round = 1; max_util = 0.; hops = 1 };
      Packet.Sync_probe { origin = 0; round = 1; entries = [] };
      Packet.State_chunk
        { xfer_id = 1; group = 0; index = 0; of_group = 1; parity = false; entries = [] };
      Packet.State_ack { xfer_id = 1; group = 0 } ]
  and ordinary = [ Packet.Data; Packet.Syn; Packet.Handshake_ack { cookie = 7 } ] in
  Engine.schedule engine ~at:0. (fun () ->
      List.iter
        (fun payload ->
          Net.send_from_host net (Packet.make_control ~payload ~src:h0 ~dst:h1 ~flow:1))
        (forged @ ordinary @ [ Packet.Traceroute_probe { probe_id = 1; probe_ttl = 64; responder = -1 } ]));
  Engine.run engine ~until:1.;
  Alcotest.(check (option int)) "every forged control packet dropped"
    (Some (List.length forged))
    (List.assoc_opt "host-control" (Net.drops_by_reason net));
  Alcotest.(check int) "ordinary payloads delivered" (List.length ordinary)
    (List.length !received);
  Alcotest.(check int) "traceroute answered" 1 !replies

let test_pair_routes_override () =
  (* diamond: src can reach dst via a or b; per-dst says a, per-pair says b *)
  let topo = T.create () in
  let src = T.add_node topo ~kind:T.Host ~name:"src" in
  let dst = T.add_node topo ~kind:T.Host ~name:"dst" in
  let i = T.add_node topo ~kind:T.Switch ~name:"in" in
  let a = T.add_node topo ~kind:T.Switch ~name:"a" in
  let b = T.add_node topo ~kind:T.Switch ~name:"b" in
  let o = T.add_node topo ~kind:T.Switch ~name:"out" in
  List.iter (fun (x, y) -> ignore (T.add_link topo x y))
    [ (src, i); (i, a); (i, b); (a, o); (b, o); (o, dst) ];
  let engine = Engine.create () in
  let net = Net.create engine topo in
  Net.set_route net ~sw:i ~dst ~next_hop:a;
  Net.set_route net ~sw:a ~dst ~next_hop:o;
  Net.set_route net ~sw:b ~dst ~next_hop:o;
  let seen_at_b = ref 0 in
  Net.add_stage net ~sw:b
    {
      Net.stage_name = "spy";
      process =
        (fun _ pkt ->
          (match pkt.Packet.payload with Packet.Data -> incr seen_at_b | _ -> ());
          Net.Continue);
    };
  Net.set_pair_route net ~sw:i ~src ~dst ~next_hop:b;
  Engine.schedule engine ~at:0. (fun () ->
      Net.send_from_host net (Packet.make ~src ~dst ~flow:1 ()));
  Engine.run engine ~until:1.;
  Alcotest.(check int) "pair route wins" 1 !seen_at_b;
  Alcotest.(check (option int)) "lookup" (Some b) (Net.pair_route_lookup net ~sw:i ~src ~dst)

let test_current_path () =
  let lm = T.Fig2.build () in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  let src = List.hd lm.T.Fig2.normal_sources in
  let dst = lm.T.Fig2.victim in
  (match T.shortest_path lm.T.Fig2.topo ~src ~dst with
  | Some p -> Net.install_path net ~dst p
  | None -> Alcotest.fail "no path");
  match Net.current_path net ~src ~dst with
  | Some p ->
    Alcotest.(check int) "starts at src" src (List.hd p);
    Alcotest.(check int) "ends at dst" dst (List.nth p (List.length p - 1))
  | None -> Alcotest.fail "current_path failed"

let test_current_path_cycle () =
  let topo = T.create () in
  let src = T.add_node topo ~kind:T.Host ~name:"src" in
  let dst = T.add_node topo ~kind:T.Host ~name:"dst" in
  let a = T.add_node topo ~kind:T.Switch ~name:"a" in
  let b = T.add_node topo ~kind:T.Switch ~name:"b" in
  let c = T.add_node topo ~kind:T.Switch ~name:"c" in
  List.iter (fun (x, y) -> ignore (T.add_link topo x y))
    [ (src, a); (a, b); (b, c); (c, a); (c, dst) ];
  let engine = Engine.create () in
  let net = Net.create engine topo in
  (* a -> b -> c -> a: the table walk must detect the loop and give up
     rather than spin or fabricate a path *)
  Net.set_route net ~sw:a ~dst ~next_hop:b;
  Net.set_route net ~sw:b ~dst ~next_hop:c;
  Net.set_route net ~sw:c ~dst ~next_hop:a;
  Alcotest.(check (option (list int)))
    "routing cycle yields no path" None
    (Net.current_path net ~src ~dst)

let test_shortest_routes_per_source () =
  (* one search per source must install exactly the tables of one
     search per (src, dst) pair, in the same destination-major order *)
  let per_pair net topo =
    let hosts = T.hosts topo in
    List.iter
      (fun (dst : T.node) ->
        List.iter
          (fun (src : T.node) ->
            if src.T.id <> dst.T.id then
              match T.shortest_path topo ~src:src.T.id ~dst:dst.T.id with
              | Some p -> Net.install_path net ~dst:dst.T.id p
              | None -> ())
          hosts)
      hosts
  in
  let tables topo install =
    let net = Net.create (Engine.create ()) topo in
    install net;
    List.map (fun sw -> (sw, Net.route_entries net ~sw)) (Net.switch_ids net)
  in
  List.iter
    (fun (name, topo) ->
      Alcotest.(check (list (pair int (list (pair int int)))))
        (name ^ " tables") (tables topo (fun net -> per_pair net topo))
        (tables topo Net.install_shortest_paths))
    [
      ("fig2", (T.Fig2.build ()).T.Fig2.topo);
      ("fat-tree(4)", T.fat_tree ~k:4 ());
      ("abilene", T.abilene ());
      ("isp", T.isp ());
    ]

let test_switch_down_and_backup () =
  let topo = T.create () in
  let src = T.add_node topo ~kind:T.Host ~name:"src" in
  let dst = T.add_node topo ~kind:T.Host ~name:"dst" in
  let i = T.add_node topo ~kind:T.Switch ~name:"in" in
  let a = T.add_node topo ~kind:T.Switch ~name:"a" in
  let b = T.add_node topo ~kind:T.Switch ~name:"b" in
  let o = T.add_node topo ~kind:T.Switch ~name:"out" in
  List.iter (fun (x, y) -> ignore (T.add_link topo x y))
    [ (src, i); (i, a); (i, b); (a, o); (b, o); (o, dst) ];
  let engine = Engine.create () in
  let net = Net.create engine topo in
  Net.set_route net ~sw:i ~dst ~next_hop:a;
  Net.set_route net ~sw:a ~dst ~next_hop:o;
  Net.set_route net ~sw:b ~dst ~next_hop:o;
  let received = ref 0 in
  (Net.host net dst).Net.fallback_rx <- Some (fun _ -> incr received);
  (* no backup: packet dies at i when a goes down *)
  Net.set_switch_up net ~sw:a false;
  Engine.schedule engine ~at:0. (fun () ->
      Net.send_from_host net (Packet.make ~src ~dst ~flow:1 ()));
  Engine.run engine ~until:0.5;
  Alcotest.(check int) "no delivery without backup" 0 !received;
  (* with a backup route, fast reroute kicks in *)
  Net.set_backup_route net ~sw:i ~dst ~next_hop:b;
  Engine.schedule engine ~at:0.6 (fun () ->
      Net.send_from_host net (Packet.make ~src ~dst ~flow:1 ()));
  Engine.run engine ~until:1.;
  Alcotest.(check int) "fast reroute delivers" 1 !received

let test_link_failure () =
  let _, engine, net, h0, h1, s0 = two_hosts () in
  let f = Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:100. () in
  Engine.run engine ~until:1.;
  Alcotest.(check bool) "link initially up" true (Net.link_is_up net ~a:s0 ~b:h1);
  Net.set_link_up net ~a:s0 ~b:h1 false;
  Engine.run engine ~until:2.;
  let at_failure = Flow.Cbr.delivered_bytes f in
  Engine.run engine ~until:3.;
  Alcotest.(check (float 0.)) "nothing delivered while down" at_failure
    (Flow.Cbr.delivered_bytes f);
  Alcotest.(check bool) "drops counted" true
    (List.assoc_opt "link-down" (Net.drops_by_reason net) <> None);
  Net.set_link_up net ~a:s0 ~b:h1 true;
  Engine.run engine ~until:4.;
  Alcotest.(check bool) "recovers after repair" true
    (Flow.Cbr.delivered_bytes f > at_failure +. 50_000.)

let test_link_failure_rejects_non_adjacent () =
  let _, _, net, h0, h1, _ = two_hosts () in
  Alcotest.check_raises "non adjacent" (Invalid_argument "Net.set_link_up: nodes not adjacent")
    (fun () -> Net.set_link_up net ~a:h0 ~b:h1 false)

let test_tracing_follows_packet () =
  let topo = T.linear ~n:3 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h0 = (T.node_by_name topo "h0").T.id in
  let h1 = (T.node_by_name topo "h1").T.id in
  (match T.shortest_path topo ~src:h0 ~dst:h1 with
  | Some p -> Net.install_path net ~dst:h1 p
  | None -> Alcotest.fail "no path");
  let events = Net.trace_flow net ~flow:42 in
  let pkt = Packet.make ~src:h0 ~dst:h1 ~flow:42 () in
  Engine.schedule engine ~at:0. (fun () -> Net.send_from_host net pkt);
  (* a second flow should not pollute the trace *)
  Engine.schedule engine ~at:0. (fun () ->
      Net.send_from_host net (Packet.make ~src:h0 ~dst:h1 ~flow:7 ()));
  Engine.run engine ~until:1.;
  let ordered = List.rev !events in
  let kinds = List.map (fun (e : Net.trace_event) -> e.Net.kind) ordered in
  Alcotest.(check int) "3 switch hops + delivery" 4 (List.length kinds);
  Alcotest.(check bool) "ends with delivery" true
    (match List.rev kinds with Net.Host_delivery :: _ -> true | _ -> false);
  let hops =
    List.filter_map
      (fun (e : Net.trace_event) ->
        match e.Net.kind with Net.Switch_arrival -> Some (T.node topo e.Net.node).T.name | _ -> None)
      ordered
  in
  Alcotest.(check (list string)) "path via trace" [ "s0"; "s1"; "s2" ] hops;
  (* timestamps increase *)
  let times = List.map (fun (e : Net.trace_event) -> e.Net.time) ordered in
  Alcotest.(check (list (float 0.))) "monotone timestamps" (List.sort compare times) times

let test_tracing_captures_drop () =
  let _, engine, net, h0, h1, s0 = two_hosts () in
  Net.add_stage net ~sw:s0
    { Net.stage_name = "drop-all"; process = (fun _ _ -> Net.Drop "traced-drop") };
  let events = Net.trace_flow net ~flow:9 in
  Engine.schedule engine ~at:0. (fun () ->
      Net.send_from_host net (Packet.make ~src:h0 ~dst:h1 ~flow:9 ()));
  Engine.run engine ~until:1.;
  Alcotest.(check bool) "drop event recorded" true
    (List.exists
       (fun (e : Net.trace_event) -> e.Net.kind = Net.Packet_drop "traced-drop")
       !events);
  (* tracer can be cleared *)
  Net.set_tracer net None;
  let before = List.length !events in
  Engine.schedule engine ~at:1.5 (fun () ->
      Net.send_from_host net (Packet.make ~src:h0 ~dst:h1 ~flow:9 ()));
  Engine.run engine ~until:2.;
  Alcotest.(check int) "no events after clearing" before (List.length !events)

(* ---------------- Transports ---------------- *)

let test_tcp_transfers () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  let f = Flow.Tcp.start net ~src:h0 ~dst:h1 () in
  Engine.run engine ~until:5.;
  (* 10 Mb/s for ~5 s = ~6 MB ceiling; expect most of it *)
  Alcotest.(check bool) "delivered > 4 MB" true (Flow.Tcp.delivered_bytes f > 4_000_000.);
  Alcotest.(check bool) "rtt measured" true (Flow.Tcp.srtt f > 0.001)

let test_tcp_congestion_shares () =
  let topo = T.dumbbell ~capacity:20_000_000. ~bottleneck:10_000_000. ~pairs:2 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  Net.install_shortest_paths net;
  let id n = (T.node_by_name topo n).T.id in
  let f1 = Flow.Tcp.start net ~src:(id "src0") ~dst:(id "dst0") () in
  let f2 = Flow.Tcp.start net ~src:(id "src1") ~dst:(id "dst1") () in
  Engine.run engine ~until:10.;
  let d1 = Flow.Tcp.delivered_bytes f1 and d2 = Flow.Tcp.delivered_bytes f2 in
  let total = d1 +. d2 in
  (* bottleneck is 1.25 MB/s; expect > 80% utilization over 10 s *)
  Alcotest.(check bool) "bottleneck well utilized" true (total > 10_000_000.);
  (* and a roughly fair split (within 3x of each other) *)
  Alcotest.(check bool) "roughly fair" true (Float.max d1 d2 /. Float.min d1 d2 < 3.)

let test_tcp_max_cwnd_caps_rate () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  let f = Flow.Tcp.start net ~src:h0 ~dst:h1 ~max_cwnd:2. () in
  Engine.run engine ~until:5.;
  (* cwnd 2 on ~4 ms RTT: ~500 kB/s max, far under the 1.25 MB/s line rate *)
  Alcotest.(check bool) "low-rate flow" true (Flow.Tcp.delivered_bytes f < 3_000_000.);
  Alcotest.(check bool) "cwnd capped" true (Flow.Tcp.cwnd f <= 2.)

let test_tcp_pause_resume () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  let f = Flow.Tcp.start net ~src:h0 ~dst:h1 () in
  Engine.run engine ~until:1.;
  Flow.Tcp.pause f;
  let at_pause = Flow.Tcp.delivered_bytes f in
  Engine.run engine ~until:3.;
  let during_pause = Flow.Tcp.delivered_bytes f -. at_pause in
  Alcotest.(check bool) "little delivery while paused" true (during_pause < 100_000.);
  Flow.Tcp.resume f ~now:3.;
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "resumes" true (Flow.Tcp.delivered_bytes f -. at_pause > 1_000_000.)

let test_cbr_rate () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  let f = Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:100. () in
  Engine.run engine ~until:10.;
  let sent = Flow.Cbr.sent_packets f in
  Alcotest.(check bool) "about 1000 packets" true (abs (sent - 1000) < 30);
  Alcotest.(check bool) "delivered" true (Flow.Cbr.delivered_bytes f > 900_000.)

let test_cbr_pulsing_duty () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  let f =
    Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:100. ~pulse_period:1.0 ~pulse_duty:0.2 ()
  in
  Engine.run engine ~until:10.;
  (* only ~20% of slots send *)
  Alcotest.(check bool) "duty cycle respected" true
    (abs (Flow.Cbr.sent_packets f - 200) < 40)

let test_traceroute_full_path () =
  let topo = T.linear ~n:3 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h0 = (T.node_by_name topo "h0").T.id in
  let h1 = (T.node_by_name topo "h1").T.id in
  (match T.shortest_path topo ~src:h0 ~dst:h1 with
  | Some p ->
    Net.install_path net ~dst:h1 p;
    Net.install_path net ~dst:h0 (List.rev p)
  | None -> Alcotest.fail "no path");
  let result = ref [] in
  Flow.Traceroute.run net ~src:h0 ~dst:h1 ~on_done:(fun hops -> result := hops);
  Engine.run engine ~until:3.;
  let names = List.map (fun (_, r) -> (T.node topo r).T.name) !result in
  Alcotest.(check (list string)) "hops in order" [ "s0"; "s1"; "s2"; "h1" ] names

(* ---------------- Monitors ---------------- *)

let test_monitor_sampling () =
  let _, engine, net, h0, h1, s0 = two_hosts () in
  let f = Flow.Tcp.start net ~src:h0 ~dst:h1 () in
  let util =
    Ff_netsim.Monitor.link_utilization net ~from_:s0 ~to_:h1 ~period:0.5 ~until:4. ()
  in
  let goodput =
    Ff_netsim.Monitor.aggregate_goodput net ~flows:[ f ] ~period:0.5 ~name:"g" ()
  in
  Engine.run engine ~until:5.;
  (* samples at t = 0.0, 0.5 .. 4.0 *)
  Alcotest.(check int) "util samples bounded by until" 9 (Ff_util.Series.length util);
  Alcotest.(check bool) "goodput sampled" true (Ff_util.Series.length goodput >= 9);
  (* both series see the busy link *)
  let late_util =
    List.filter_map (fun (t, v) -> if t > 2. then Some v else None) (Ff_util.Series.points util)
  in
  Alcotest.(check bool) "link hot in steady state" true (Ff_util.Stats.mean late_util > 0.7)

let test_monitor_normalized () =
  let _, engine, net, h0, h1, _ = two_hosts () in
  let f = Flow.Tcp.start net ~src:h0 ~dst:h1 () in
  let norm =
    Ff_netsim.Monitor.normalized_goodput net ~flows:[ f ] ~baseline:1_000_000. ~period:0.5
      ~name:"n" ()
  in
  Engine.run engine ~until:5.;
  let late =
    List.filter_map (fun (t, v) -> if t > 2. then Some v else None) (Ff_util.Series.points norm)
  in
  (* ~1.18 MB/s over a 1 MB/s baseline *)
  Alcotest.(check bool) "normalization applied" true
    (Ff_util.Stats.mean late > 1.0 && Ff_util.Stats.mean late < 1.4)

(* ---------------- Properties ---------------- *)

(* Regression: [Monitor.sample]'s start used to default to 0., so a
   monitor attached after the clock advanced raised through
   [Engine.every] (first tick scheduled in the past). *)
let test_monitor_attach_mid_run () =
  let topo = T.linear ~n:1 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  ignore net;
  Engine.run engine ~until:5.;
  let s = Ff_netsim.Monitor.sample engine ~period:1. ~name:"mid" (fun now -> now) in
  Engine.run engine ~until:10.;
  Alcotest.(check bool) "sampled after attach" true (Ff_util.Series.length s >= 4);
  (match Ff_util.Series.points s with
  | (t0, _) :: _ -> Alcotest.(check bool) "first sample not in the past" true (t0 >= 5.)
  | [] -> Alcotest.fail "no samples")

(* Both lanes share one (time, seq) key: however thunk and packet events
   interleave, they must fire in global schedule order at equal
   timestamps, exactly like the old single-heap engine. *)
let prop_two_lane_order =
  QCheck.Test.make ~name:"thunk and packet lanes merge in (time, seq) order" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 80) (pair bool (int_range 0 9)))
    (fun ops ->
      let e = Engine.create () in
      let log = ref [] in
      Engine.set_packet_handler e (fun ~to_node ~from_node:_ _pkt -> log := to_node :: !log);
      List.iteri
        (fun i (packet_lane, ti) ->
          let at = float_of_int ti in
          if packet_lane then
            Engine.schedule_packet e ~at ~to_node:i ~from_node:0
              (Packet.make ~src:0 ~dst:0 ~flow:0 ())
          else Engine.schedule e ~at (fun () -> log := i :: !log))
        ops;
      Engine.run e ~until:100.;
      let expected =
        List.mapi (fun i (_, ti) -> (ti, i)) ops
        |> List.stable_sort compare |> List.map snd
      in
      List.rev !log = expected)

(* Dense routing state (int-array tables + open-addressed pair table)
   must be observationally identical to the naive Hashtbl model it
   replaced, under any install/clear interleaving. [clear_routes] keeps
   backup entries and restores host attachments — the model mirrors that. *)
let prop_routes_match_reference =
  QCheck.Test.make ~name:"dense route tables match a Hashtbl reference model" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 120)
              (quad (int_range 0 3) small_nat small_nat small_nat))
    (fun ops ->
      let topo = T.linear ~n:4 () in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      let sws = Array.of_list (Net.switch_ids net) in
      let all_nodes = Array.init (T.num_nodes topo) Fun.id in
      let pick a i = a.(i mod Array.length a) in
      let routes : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
      let backups : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
      let pairs : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
      let restore_attachments sw =
        List.iter (fun h -> Hashtbl.replace routes (sw, h) h) (Net.attached_hosts net ~sw)
      in
      Array.iter restore_attachments sws;
      List.iter
        (fun (op, a, b, c) ->
          let sw = pick sws a in
          match op with
          | 0 ->
            Net.set_route net ~sw ~dst:(pick all_nodes b) ~next_hop:(pick all_nodes c);
            Hashtbl.replace routes (sw, pick all_nodes b) (pick all_nodes c)
          | 1 ->
            Net.set_backup_route net ~sw ~dst:(pick all_nodes b) ~next_hop:(pick all_nodes c);
            Hashtbl.replace backups (sw, pick all_nodes b) (pick all_nodes c)
          | 2 ->
            Net.set_pair_route net ~sw ~src:(pick all_nodes b) ~dst:(pick all_nodes c)
              ~next_hop:(pick all_nodes (b + c));
            Hashtbl.replace pairs (sw, pick all_nodes b, pick all_nodes c)
              (pick all_nodes (b + c))
          | _ ->
            Net.clear_routes net ~sw;
            Hashtbl.iter (fun (s, d) _ -> if s = sw then Hashtbl.remove routes (s, d))
              (Hashtbl.copy routes);
            Hashtbl.iter (fun (s, src, d) _ -> if s = sw then Hashtbl.remove pairs (s, src, d))
              (Hashtbl.copy pairs);
            restore_attachments sw)
        ops;
      Array.for_all
        (fun sw ->
          Array.for_all
            (fun dst ->
              Net.route_lookup net ~sw ~dst = Hashtbl.find_opt routes (sw, dst)
              && Net.backup_route_lookup net ~sw ~dst = Hashtbl.find_opt backups (sw, dst)
              && Array.for_all
                   (fun src ->
                     Net.pair_route_lookup net ~sw ~src ~dst
                     = Hashtbl.find_opt pairs (sw, src, dst))
                   all_nodes)
            all_nodes
          && List.sort compare (Net.route_entries net ~sw)
             = List.sort compare
                 (Hashtbl.fold (fun (s, d) nh acc -> if s = sw then (d, nh) :: acc else acc)
                    routes [])
          && List.sort compare (Net.pair_route_entries net ~sw)
             = List.sort compare
                 (Hashtbl.fold
                    (fun (s, src, d) nh acc -> if s = sw then ((src, d), nh) :: acc else acc)
                    pairs []))
        sws)

let prop_conservation =
  QCheck.Test.make ~name:"delivery never exceeds transmission" ~count:25
    QCheck.(pair (int_range 10 800) (int_range 200 1400))
    (fun (rate_pps, packet_size) ->
      let _, engine, net, h0, h1, _ = two_hosts () in
      ignore net;
      let f =
        Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:(float_of_int rate_pps) ~packet_size ()
      in
      Engine.run engine ~until:3.;
      Flow.Cbr.delivered_bytes f
      <= float_of_int (Flow.Cbr.sent_packets f * packet_size))

let prop_tcp_no_duplicate_delivery =
  QCheck.Test.make ~name:"tcp counts each sequence once despite retransmissions" ~count:15
    QCheck.(int_range 1 64)
    (fun max_cwnd ->
      let topo = T.dumbbell ~capacity:20_000_000. ~bottleneck:5_000_000. ~pairs:1 () in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      Net.install_shortest_paths net;
      let id n = (T.node_by_name topo n).T.id in
      let f =
        Flow.Tcp.start net ~src:(id "src0") ~dst:(id "dst0")
          ~max_cwnd:(float_of_int max_cwnd) ()
      in
      Engine.run engine ~until:4.;
      (* delivered counts distinct sequences; sent includes retransmissions *)
      Flow.Tcp.delivered_bytes f <= float_of_int (Flow.Tcp.sent_packets f * 1000))

let prop_utilization_bounded =
  QCheck.Test.make ~name:"utilization estimate stays within [0,1]" ~count:20
    QCheck.(int_range 100 3000)
    (fun rate_pps ->
      let _, engine, net, h0, h1, s0 = two_hosts () in
      ignore (Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:(float_of_int rate_pps) ());
      Engine.run engine ~until:2.;
      let u = Net.utilization net ~from_:h0 ~to_:s0 in
      u >= 0. && u <= 1.)

let () =
  Alcotest.run "ff_netsim"
    [
      ( "engine",
        [
          Alcotest.test_case "event order" `Quick test_engine_order;
          Alcotest.test_case "fifo ties" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "rejects past" `Quick test_engine_rejects_past;
          Alcotest.test_case "every/until" `Quick test_engine_every_until;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "reuse after clear" `Quick test_engine_reuse_after_clear;
          Alcotest.test_case "per-engine steps" `Quick test_engine_per_engine_steps;
          Alcotest.test_case "dispatch allocation-free" `Quick test_engine_dispatch_no_alloc;
          Alcotest.test_case "schedule allocation-free" `Quick test_engine_schedule_no_alloc;
        ] );
      ( "links",
        [
          Alcotest.test_case "latency" `Quick test_link_latency;
          Alcotest.test_case "queue overflow" `Quick test_queue_overflow;
          Alcotest.test_case "ttl expiry reply" `Quick test_ttl_expiry_generates_reply;
          Alcotest.test_case "ttl expiry reply names responder" `Quick
            test_ttl_expiry_reply_responder;
          Alcotest.test_case "utilization" `Quick test_utilization_tracking;
        ] );
      ( "switching",
        [
          Alcotest.test_case "stage management" `Quick test_stage_management;
          Alcotest.test_case "drop stage" `Quick test_drop_stage;
          Alcotest.test_case "host control dropped" `Quick test_host_control_dropped;
          Alcotest.test_case "pair routes override" `Quick test_pair_routes_override;
          Alcotest.test_case "current path" `Quick test_current_path;
          Alcotest.test_case "current path cycle" `Quick test_current_path_cycle;
          Alcotest.test_case "switch down + backup" `Quick test_switch_down_and_backup;
          Alcotest.test_case "link failure" `Quick test_link_failure;
          Alcotest.test_case "link failure validation" `Quick
            test_link_failure_rejects_non_adjacent;
          Alcotest.test_case "tracing follows packet" `Quick test_tracing_follows_packet;
          Alcotest.test_case "tracing captures drop" `Quick test_tracing_captures_drop;
          Alcotest.test_case "shortest routes per source" `Quick
            test_shortest_routes_per_source;
        ] );
      ( "transport",
        [
          Alcotest.test_case "tcp transfers" `Quick test_tcp_transfers;
          Alcotest.test_case "tcp shares bottleneck" `Quick test_tcp_congestion_shares;
          Alcotest.test_case "tcp max cwnd" `Quick test_tcp_max_cwnd_caps_rate;
          Alcotest.test_case "tcp pause/resume" `Quick test_tcp_pause_resume;
          Alcotest.test_case "cbr rate" `Quick test_cbr_rate;
          Alcotest.test_case "cbr pulsing" `Quick test_cbr_pulsing_duty;
          Alcotest.test_case "traceroute path" `Quick test_traceroute_full_path;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "sampling" `Quick test_monitor_sampling;
          Alcotest.test_case "normalized goodput" `Quick test_monitor_normalized;
          Alcotest.test_case "attach mid-run" `Quick test_monitor_attach_mid_run;
        ] );
      ( "properties",
        List.map Test_seed.to_alcotest
          [
            prop_conservation;
            prop_tcp_no_duplicate_delivery;
            prop_utilization_bounded;
            prop_two_lane_order;
            prop_routes_match_reference;
          ] );
    ]
