(* The SYN-flood proof ring (ISSUE 10): bit-for-bit replay determinism of
   the end-to-end scenario, exact-member state transfer under chaos loss,
   and the accept-backlog regression — the cap holds and an uncompleted
   handshake times out and frees its slot. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet
module Cuckoo = Ff_dataplane.Cuckoo
module Transfer = Ff_scaling.Transfer
module Chaos = Ff_chaos.Chaos
module Loss = Ff_scaling.Loss
module Scenario = Fastflex.Scenario

let ck_count n = if Test_seed.deep then 5 * n else n

(* ---------------- replay determinism ---------------- *)

(* The whole scenario — flood, cookies, cuckoo tracker, mode protocol —
   draws only from seeded PRNGs and per-net counters, so two identical
   invocations in one process must agree on every field, floats
   included. *)
let test_replay_determinism () =
  let defended = Scenario.run_synflood ~defended:true ~duration:25. () in
  let defended' = Scenario.run_synflood ~defended:true ~duration:25. () in
  Alcotest.(check bool) "defended replay bit-for-bit" true (defended = defended');
  let bare = Scenario.run_synflood ~defended:false ~duration:25. () in
  let bare' = Scenario.run_synflood ~defended:false ~duration:25. () in
  Alcotest.(check bool) "undefended replay bit-for-bit" true (bare = bare')

let test_hardened_replay_determinism () =
  let r = Scenario.run_synflood ~defended:true ~hardened:true ~duration:25. () in
  let r' = Scenario.run_synflood ~defended:true ~hardened:true ~duration:25. () in
  Alcotest.(check bool) "hardened replay bit-for-bit" true (r = r')

(* ---------------- listener backlog regression ---------------- *)

let two_hosts () =
  let topo = T.linear ~n:1 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h0 = (T.node_by_name topo "h0").T.id in
  let h1 = (T.node_by_name topo "h1").T.id in
  let s0 = (T.node_by_name topo "s0").T.id in
  Net.set_route net ~sw:s0 ~dst:h1 ~next_hop:h1;
  Net.set_route net ~sw:s0 ~dst:h0 ~next_hop:h0;
  (engine, net, h0, h1)

let syn net ~src ~dst ~flow =
  Net.send_from_host net
    (Packet.make ~src ~dst ~flow ~payload:Packet.Syn ())

(* The small fix under test: the backlog is a hard cap (SYNs past it are
   refused, not queued), and a half-open entry that never completes its
   handshake expires after [syn_timeout] and frees its slot for reuse. *)
let test_backlog_cap_and_timeout () =
  let engine, net, h0, h1 = two_hosts () in
  let l = Flow.Listener.install net ~host:h1 ~backlog:4 ~syn_timeout:0.5 () in
  Engine.schedule engine ~at:0. (fun () ->
      for flow = 1 to 10 do
        syn net ~src:h0 ~dst:h1 ~flow
      done);
  Engine.run engine ~until:0.3;
  Alcotest.(check int) "backlog capped" 4 (Flow.Listener.half_open_count l);
  Alcotest.(check int) "excess SYNs refused" 6 (Flow.Listener.backlog_drops l);
  Alcotest.(check (float 0.)) "occupancy pegged" 1.0 (Flow.Listener.occupancy l);
  Engine.run engine ~until:2.0;
  Alcotest.(check int) "uncompleted handshakes timed out" 4 (Flow.Listener.timeouts l);
  Alcotest.(check int) "slots freed" 0 (Flow.Listener.half_open_count l);
  Alcotest.(check int) "nothing established" 0 (Flow.Listener.established l);
  (* the freed slots must be reusable *)
  Engine.schedule engine ~at:2.0 (fun () -> syn net ~src:h0 ~dst:h1 ~flow:99);
  Engine.run engine ~until:2.3;
  Alcotest.(check int) "freed slot accepted a new SYN" 1 (Flow.Listener.half_open_count l);
  Alcotest.(check int) "no new refusals" 6 (Flow.Listener.backlog_drops l)

(* A completed handshake must release its half-open slot into
   [established] rather than leaking it until timeout. *)
let test_completed_handshake_frees_slot () =
  let engine, net, h0, h1 = two_hosts () in
  let l = Flow.Listener.install net ~host:h1 ~backlog:4 ~syn_timeout:5.0 () in
  let hs = Flow.Handshake.start net ~src:h0 ~dst:h1 ~conn_interval:100. () in
  Engine.run engine ~until:1.0;
  Alcotest.(check int) "client completed" 1 (Flow.Handshake.completed hs);
  Alcotest.(check int) "server established" 1 (Flow.Listener.established l);
  Alcotest.(check int) "no lingering half-open entry" 0 (Flow.Listener.half_open_count l);
  Alcotest.(check int) "no timeout charged" 0 (Flow.Listener.timeouts l)

(* ---------------- exact-member transfer under chaos ---------------- *)

(* The migration correctness rule: after [send_cuckoo] completes — here
   across a ring whose every switch suffers 30% bursty control-packet
   loss — every member of the source filter answers [member] at the
   destination, and members the destination already held survive the
   union. FEC plus per-group retransmission is what makes "completes"
   reachable under that loss. *)
let prop_transfer_no_false_negatives =
  QCheck2.Test.make ~count:(ck_count 15)
    ~name:"cuckoo state transfer under chaos loss: no false negatives"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 150) (int_range 1 1_000_000))
        (int_range 1 10_000))
    (fun (keys, seed) ->
      let topo = T.ring ~n:6 () in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      let h = Chaos.create ~seed net in
      List.iter
        (fun sw ->
          ignore
            (Chaos.burst_loss h ~sw ~start:0. ~until:infinity ~loss:0.3 ~mean_burst:2.
               ~classes:Loss.Control_only ()))
        (Net.switch_ids net);
      let src = Cuckoo.create ~capacity:512 () in
      let dst = Cuckoo.create ~capacity:512 () in
      let pre = [ 0x5A5A5A; 0xA5A5A5 ] in
      List.iter (fun k -> ignore (Cuckoo.insert dst k)) pre;
      List.iter (fun k -> ignore (Cuckoo.insert src k)) keys;
      let complete = ref false in
      (* 30% bursty loss at every one of the 4-5 switches a chunk+ack
         round-trip crosses defeats the default 10-retry budget a few
         percent of the time; the property under test is the union rule,
         not the retry budget, so give the transfer room to finish *)
      let _x =
        Transfer.send_cuckoo net ~src_sw:0 ~dst_sw:3 ~cuckoo:src ~into:dst ~seed
          ~max_retries:40
          ~on_complete:(fun () -> complete := true)
      in
      Engine.run engine ~until:240.;
      !complete
      && List.for_all (Cuckoo.member dst) keys
      && List.for_all (Cuckoo.member dst) pre)

(* The wire encoding itself is lossless, chaos or not. *)
let prop_wire_roundtrip =
  QCheck2.Test.make ~count:(ck_count 50)
    ~name:"cuckoo wire entries round-trip the snapshot"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 1 1_000_000))
    (fun keys ->
      let c = Cuckoo.create ~capacity:512 () in
      List.iter (fun k -> ignore (Cuckoo.insert c k)) keys;
      let snap = Cuckoo.serialize c in
      Transfer.cuckoo_snapshot_of_entries (Transfer.cuckoo_wire_entries snap) = snap)

let () =
  Alcotest.run "synflood"
    [
      ( "scenario",
        [
          Alcotest.test_case "replay determinism" `Slow test_replay_determinism;
          Alcotest.test_case "hardened replay determinism" `Slow
            test_hardened_replay_determinism;
        ] );
      ( "listener",
        [
          Alcotest.test_case "backlog cap + half-open timeout" `Quick
            test_backlog_cap_and_timeout;
          Alcotest.test_case "completed handshake frees its slot" `Quick
            test_completed_handshake_frees_slot;
        ] );
      ( "transfer",
        List.map Test_seed.to_alcotest
          [ prop_transfer_no_false_negatives; prop_wire_roundtrip ] );
    ]
