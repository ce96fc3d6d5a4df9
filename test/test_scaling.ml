(* Tests for Ff_scaling: FEC codec, in-band state transfer under loss,
   switch repurposing, replication/failover. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Fec = Ff_scaling.Fec
module Transfer = Ff_scaling.Transfer
module Repurpose = Ff_scaling.Repurpose
module Loss = Ff_scaling.Loss
module Prng = Ff_util.Prng

let entries n = List.init n (fun i -> (Printf.sprintf "reg[%d]" i, float_of_int i *. 1.5))

(* ---------------- FEC ---------------- *)

let test_fec_roundtrip () =
  let e = entries 37 in
  let chunks = Fec.encode ~group_size:4 ~per_chunk:8 e in
  Alcotest.(check (option (list (pair string (float 0.))))) "lossless roundtrip" (Some e)
    (Fec.decode chunks)

let test_fec_parity_counts () =
  let chunks = Fec.encode ~group_size:4 ~per_chunk:8 (entries 64) in
  (* 8 data chunks -> 2 groups -> 2 parity chunks *)
  Alcotest.(check int) "total chunks" 10 (List.length chunks);
  Alcotest.(check int) "data chunks" 8 (List.length (Fec.data_chunks chunks));
  Alcotest.(check int) "groups" 2 (Fec.group_count chunks)

let test_fec_recovers_single_loss () =
  let e = entries 30 in
  let chunks = Fec.encode ~group_size:4 ~per_chunk:8 e in
  (* drop one data chunk from each group *)
  let dropped =
    List.filter (fun (c : Fec.chunk) -> not (c.Fec.index = 1 && not c.Fec.parity)) chunks
  in
  Alcotest.(check bool) "chunks dropped" true (List.length dropped < List.length chunks);
  Alcotest.(check (option (list (pair string (float 0.))))) "reconstructed" (Some e)
    (Fec.decode dropped)

let test_fec_fails_on_double_loss () =
  let e = entries 30 in
  let chunks = Fec.encode ~group_size:4 ~per_chunk:8 e in
  let dropped =
    List.filter
      (fun (c : Fec.chunk) -> not (c.Fec.group = 0 && (c.Fec.index = 0 || c.Fec.index = 1)))
      chunks
  in
  Alcotest.(check (option (list (pair string (float 0.))))) "two losses in one group" None
    (Fec.decode dropped)

let test_fec_parity_loss_harmless () =
  let e = entries 30 in
  let chunks = Fec.encode ~group_size:4 ~per_chunk:8 e in
  let dropped = Fec.data_chunks chunks in
  Alcotest.(check (option (list (pair string (float 0.))))) "parity lost, data intact" (Some e)
    (Fec.decode dropped)

let test_fec_empty () =
  Alcotest.(check (option (list (pair string (float 0.))))) "empty" (Some []) (Fec.decode [])

let test_xor_entries_involution () =
  let a = [ ("abc", 1.5); ("de", -2.25) ] in
  let b = [ ("xyzw", 3.75); ("q", 0.5) ] in
  let x = Fec.xor_entries [ a; b ] in
  let back = Fec.xor_entries [ x; b ] in
  (* xoring back recovers a (padded keys are stripped only by decode,
     so compare by re-xoring to zero) *)
  let zero = Fec.xor_entries [ back; a ] in
  List.iter (fun (_, v) -> Alcotest.(check (float 0.)) "values cancel" 0. v) zero

let prop_fec_roundtrip =
  QCheck.Test.make ~name:"fec roundtrip for any entry list and geometry" ~count:100
    QCheck.(triple (int_range 1 6) (int_range 1 10) (list_of_size (Gen.int_range 0 60) (float_range (-100.) 100.)))
    (fun (group_size, per_chunk, values) ->
      let e = List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) values in
      Fec.decode (Fec.encode ~group_size ~per_chunk e) = Some e)

let prop_fec_single_loss_recovery =
  QCheck.Test.make ~name:"fec recovers any single data-chunk loss" ~count:100
    QCheck.(pair (int_range 0 3) (list_of_size (Gen.int_range 8 40) (float_range 0. 10.)))
    (fun (drop_index, values) ->
      let e = List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) values in
      let chunks = Fec.encode ~group_size:4 ~per_chunk:4 e in
      let victim =
        List.filter (fun (c : Fec.chunk) -> c.Fec.group = 0 && not c.Fec.parity) chunks
        |> fun l -> List.nth_opt l (drop_index mod List.length l)
      in
      match victim with
      | None -> true
      | Some v ->
        let remaining = List.filter (fun c -> c <> v) chunks in
        Fec.decode remaining = Some e)

(* The parity budget, exactly: one XOR parity chunk per group recovers any
   single chunk loss in that group — data or parity, in every group at
   once — and two data losses in one group are cleanly unrecoverable
   (decode says None, never a wrong reconstruction). *)
let prop_fec_any_loss_within_budget =
  QCheck.Test.make ~name:"fec recovers every loss pattern within the parity budget" ~count:100
    ~long_factor:5
    QCheck.(
      quad (int_range 1 6) (int_range 1 10)
        (list_of_size (Gen.int_range 0 80) (float_range (-100.) 100.))
        (int_bound 1_000_000))
    (fun (group_size, per_chunk, values, seed) ->
      let e = List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) values in
      let chunks = Fec.encode ~group_size ~per_chunk e in
      let rng = Prng.create ~seed:(seed + 3) in
      (* per group, independently: keep all, drop the parity, or drop one
         data chunk *)
      let victims =
        List.init (Fec.group_count chunks) (fun g ->
            let data =
              List.filter (fun (c : Fec.chunk) -> c.Fec.group = g && not c.Fec.parity) chunks
            in
            match Prng.int rng 3 with
            | 0 -> []
            | 1 -> List.filter (fun (c : Fec.chunk) -> c.Fec.group = g && c.Fec.parity) chunks
            | _ -> (
              match data with
              | [] -> []
              | _ -> [ List.nth data (Prng.int rng (List.length data)) ]))
        |> List.concat
      in
      let remaining = List.filter (fun c -> not (List.memq c victims)) chunks in
      Fec.decode remaining = Some e)

let prop_fec_beyond_budget_fails_cleanly =
  QCheck.Test.make ~name:"fec refuses two data losses in one group" ~count:100 ~long_factor:5
    QCheck.(
      triple (int_range 2 6)
        (list_of_size (Gen.int_range 4 80) (float_range (-100.) 100.))
        (int_bound 1_000_000))
    (fun (group_size, values, seed) ->
      let e = List.mapi (fun i v -> (Printf.sprintf "k%d" i, v)) values in
      let chunks = Fec.encode ~group_size ~per_chunk:4 e in
      let rng = Prng.create ~seed:(seed + 7) in
      let groups =
        List.init (Fec.group_count chunks) (fun g ->
            List.filter (fun (c : Fec.chunk) -> c.Fec.group = g && not c.Fec.parity) chunks)
        |> List.filter (fun data -> List.length data >= 2)
      in
      match groups with
      | [] -> true (* no group holds two data chunks; nothing to lose *)
      | _ ->
        let data = List.nth groups (Prng.int rng (List.length groups)) in
        let i = Prng.int rng (List.length data) in
        let j = (i + 1 + Prng.int rng (List.length data - 1)) mod List.length data in
        let v1 = List.nth data i and v2 = List.nth data j in
        let remaining = List.filter (fun c -> not (c == v1 || c == v2)) chunks in
        Fec.decode remaining = None)

(* ---------------- Transfer ---------------- *)

let transfer_net () =
  let topo = T.linear ~n:4 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let s0 = (T.node_by_name topo "s0").T.id in
  let s3 = (T.node_by_name topo "s3").T.id in
  (topo, engine, net, s0, s3)

let test_transfer_lossless () =
  let _, engine, net, s0, s3 = transfer_net () in
  let e = entries 50 in
  let got = ref None in
  let x = Transfer.send net ~src_sw:s0 ~dst_sw:s3 ~entries:e
      ~on_complete:(fun r -> got := Some r) () in
  Engine.run engine ~until:2.;
  Alcotest.(check bool) "complete" true (Transfer.complete x);
  Alcotest.(check (option (list (pair string (float 0.))))) "payload intact" (Some e) !got;
  Alcotest.(check int) "no retransmissions" 0 (Transfer.retransmitted_groups x);
  Alcotest.(check int) "no fec work needed" 0 (Transfer.fec_recoveries x)

let test_transfer_with_loss_fec () =
  let _, engine, net, s0, s3 = transfer_net () in
  let mid = s0 + 1 in
  let _loss = Loss.install net ~sw:mid ~prob:0.15 ~classes:Loss.State_chunks_only () in
  let e = entries 200 in
  let got = ref None in
  let x = Transfer.send net ~src_sw:s0 ~dst_sw:s3 ~entries:e
      ~on_complete:(fun r -> got := Some r) () in
  Engine.run engine ~until:10.;
  Alcotest.(check bool) "complete despite loss" true (Transfer.complete x);
  Alcotest.(check (option (list (pair string (float 0.))))) "payload intact" (Some e) !got;
  Alcotest.(check bool) "fec recovered some groups" true
    (Transfer.fec_recoveries x + Transfer.retransmitted_groups x > 0)

let test_transfer_without_fec_needs_more_retx () =
  let run_with_fec fec seed =
    let _, engine, net, s0, s3 = transfer_net () in
    let _loss = Loss.install net ~sw:(s0 + 1) ~prob:0.15 ~seed ~classes:Loss.State_chunks_only () in
    let x = Transfer.send net ~src_sw:s0 ~dst_sw:s3 ~entries:(entries 200) ~fec
        ~on_complete:(fun _ -> ()) () in
    Engine.run engine ~until:20.;
    (Transfer.complete x, Transfer.retransmitted_groups x)
  in
  let totals fec =
    List.fold_left
      (fun (c, r) seed ->
        let complete, retx = run_with_fec fec seed in
        ((if complete then c + 1 else c), r + retx))
      (0, 0) [ 1; 2; 3; 4; 5 ]
  in
  let complete_fec, retx_fec = totals true in
  let complete_nofec, retx_nofec = totals false in
  Alcotest.(check int) "fec runs all complete" 5 complete_fec;
  Alcotest.(check int) "nofec runs all complete" 5 complete_nofec;
  Alcotest.(check bool) "fec needs fewer retransmissions" true (retx_fec < retx_nofec)

let test_transfer_empty () =
  let _, engine, net, s0, s3 = transfer_net () in
  let got = ref None in
  let x = Transfer.send net ~src_sw:s0 ~dst_sw:s3 ~entries:[] ~on_complete:(fun r -> got := Some r) () in
  Engine.run engine ~until:1.;
  Alcotest.(check bool) "trivially complete" true (Transfer.complete x);
  Alcotest.(check (option (list (pair string (float 0.))))) "empty payload" (Some []) !got

(* ---------------- Repurposing ---------------- *)

let test_repurpose_downtime_and_recovery () =
  let topo = T.Fig2.build () in
  let lm = topo in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  (* route a flow through m1 explicitly *)
  let src = List.hd lm.T.Fig2.normal_sources in
  let dst = lm.T.Fig2.victim in
  let mid_of (l : T.link) = if l.T.a = lm.T.Fig2.agg then l.T.b else l.T.a in
  let m1 = mid_of (List.hd lm.T.Fig2.critical) in
  let full_path =
    [ src; Net.access_switch net ~host:src; lm.T.Fig2.agg; m1; lm.T.Fig2.victim_agg ]
    @ [ Net.access_switch net ~host:dst; dst ]
  in
  Net.install_path net ~dst full_path;
  (match T.shortest_path lm.T.Fig2.topo ~src:dst ~dst:src with
  | Some p -> Net.install_path net ~dst:src p
  | None -> Alcotest.fail "no reverse path");
  let flow = Ff_netsim.Flow.Cbr.start net ~src ~dst ~rate_pps:100. () in
  let installed = ref false and done_at = ref 0. in
  Engine.schedule engine ~at:2. (fun () ->
      Repurpose.repurpose net ~sw:m1 ~downtime:1.0
        ~install:(fun () -> installed := true)
        ~on_done:(fun o ->
          done_at := o.Repurpose.completed_at)
        ());
  Engine.run engine ~until:6.;
  Alcotest.(check bool) "program installed" true !installed;
  Alcotest.(check (float 0.01)) "downtime respected" 3.0 !done_at;
  Alcotest.(check bool) "switch back up" true (Net.switch net m1).Net.up;
  (* fast reroute kept most traffic flowing: >= 80% of 400 s-worth *)
  Alcotest.(check bool) "traffic survived via backup" true
    (Ff_netsim.Flow.Cbr.delivered_bytes flow > 0.8 *. 100. *. 1000. *. 6.)

let test_repurpose_moves_state () =
  let _, engine, net, s0, s3 = transfer_net () in
  let store = ref (entries 20) in
  let restored = ref [] in
  Repurpose.repurpose net ~sw:s0 ~downtime:0.5 ~state_to:s3
    ~snapshot:(fun () -> !store)
    ~restore:(fun e -> restored := e)
    ~install:(fun () -> store := [])
    ~on_done:(fun o -> Alcotest.(check int) "entries shipped" 20 o.Repurpose.state_moved)
    ();
  Engine.run engine ~until:5.;
  Alcotest.(check (list (pair string (float 0.)))) "state made the round trip" (entries 20)
    !restored

let test_install_backup_routes () =
  let topo = T.ring ~n:5 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  (* route around the ring through switch 1 *)
  let h0 = (T.node_by_name topo "h0").T.id in
  let h2 = (T.node_by_name topo "h2").T.id in
  Net.set_route net ~sw:0 ~dst:h2 ~next_hop:1;
  Net.set_route net ~sw:1 ~dst:h2 ~next_hop:2;
  let n = Repurpose.install_backup_routes net ~around:1 in
  Alcotest.(check bool) "backups installed" true (n >= 1);
  (* switch 0's backup for h2 avoids switch 1 (goes the other way) *)
  ignore h0;
  let backup = Net.backup_route_lookup net ~sw:0 ~dst:h2 in
  Alcotest.(check (option int)) "backup goes around" (Some 4) backup

(* ---------------- Loss injection ---------------- *)

let test_loss_probability () =
  let topo = T.linear ~n:1 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h0 = (T.node_by_name topo "h0").T.id in
  let h1 = (T.node_by_name topo "h1").T.id in
  let s0 = (T.node_by_name topo "s0").T.id in
  Net.set_route net ~sw:s0 ~dst:h1 ~next_hop:h1;
  let loss = Loss.install net ~sw:s0 ~prob:0.3 () in
  let f = Ff_netsim.Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:500. () in
  Engine.run engine ~until:4.;
  let observed = float_of_int (Loss.dropped loss) /. float_of_int (Loss.seen loss) in
  Alcotest.(check bool) "drop rate near 0.3" true (Float.abs (observed -. 0.3) < 0.05);
  Alcotest.(check bool) "goodput reduced accordingly" true
    (Ff_netsim.Flow.Cbr.delivered_bytes f < 0.8 *. float_of_int (Ff_netsim.Flow.Cbr.sent_packets f * 1000))

let test_loss_gilbert_elliott_bursts () =
  (* bad_loss = 1, good_loss = 0, p_bg = 0.25: drops come in runs of mean
     length 1/p_bg = 4, and the long-run drop rate is the stationary bad
     fraction p_gb /. (p_gb +. p_bg) *)
  let p_gb = 0.1 and p_bg = 0.25 in
  let topo = T.linear ~n:1 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h0 = (T.node_by_name topo "h0").T.id in
  let h1 = (T.node_by_name topo "h1").T.id in
  let s0 = (T.node_by_name topo "s0").T.id in
  Net.set_route net ~sw:s0 ~dst:h1 ~next_hop:h1;
  let loss =
    Loss.install net ~sw:s0 ~prob:0.3 ~seed:5
      ~model:(Loss.Gilbert_elliott { p_gb; p_bg; good_loss = 0.; bad_loss = 1. })
      ()
  in
  ignore (Ff_netsim.Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:2000. ());
  Engine.run engine ~until:10.;
  let seen = Loss.seen loss and dropped = Loss.dropped loss in
  Alcotest.(check bool) "enough samples" true (seen > 10_000);
  let rate = float_of_int dropped /. float_of_int seen in
  let expected_rate = p_gb /. (p_gb +. p_bg) in
  Alcotest.(check bool)
    (Printf.sprintf "long-run rate %.3f near %.3f" rate expected_rate)
    true
    (Float.abs (rate -. expected_rate) < 0.2 *. expected_rate);
  let mean = Loss.mean_burst_len loss in
  Alcotest.(check bool)
    (Printf.sprintf "mean burst %.2f near %.2f" mean (1. /. p_bg))
    true
    (Float.abs (mean -. (1. /. p_bg)) < 0.2 /. p_bg);
  Alcotest.(check bool) "many distinct bursts" true (Loss.bursts loss > 100)

let test_loss_set_enabled_window () =
  let topo = T.linear ~n:1 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h0 = (T.node_by_name topo "h0").T.id in
  let h1 = (T.node_by_name topo "h1").T.id in
  let s0 = (T.node_by_name topo "s0").T.id in
  Net.set_route net ~sw:s0 ~dst:h1 ~next_hop:h1;
  let loss = Loss.install net ~sw:s0 ~prob:1.0 () in
  Loss.set_enabled loss false;
  ignore (Ff_netsim.Flow.Cbr.start net ~src:h0 ~dst:h1 ~rate_pps:100. ());
  Engine.schedule engine ~at:1. (fun () -> Loss.set_enabled loss true);
  Engine.schedule engine ~at:2. (fun () -> Loss.set_enabled loss false);
  Engine.run engine ~until:3.;
  (* only the packets inside the [1,2) window were even considered *)
  Alcotest.(check bool) "disabled stage sees nothing" true (Loss.seen loss < 110);
  Alcotest.(check int) "all considered packets dropped" (Loss.seen loss) (Loss.dropped loss);
  Alcotest.(check bool) "window actually dropped packets" true (Loss.dropped loss > 50)

(* ---------------- Determinism ---------------- *)

(* A lossy transfer is a function of its seed: two runs with the same loss
   seed drop the same chunks, so the FEC/retransmission counters and the
   completion time agree exactly. *)
let test_lossy_transfer_replays_under_seed () =
  let run () =
    let _, engine, net, s0, s3 = transfer_net () in
    let loss = Loss.install net ~sw:(s0 + 1) ~prob:0.15 ~seed:11 ~classes:Loss.State_chunks_only () in
    let done_at = ref None in
    let x = Transfer.send net ~src_sw:s0 ~dst_sw:s3 ~entries:(entries 200)
        ~on_complete:(fun _ -> done_at := Some (Engine.now engine)) () in
    Engine.run engine ~until:10.;
    (Loss.seen loss, Loss.dropped loss, Transfer.fec_recoveries x,
     Transfer.retransmitted_groups x, !done_at)
  in
  let seen1, dropped1, fec1, retx1, done1 = run () in
  let seen2, dropped2, fec2, retx2, done2 = run () in
  Alcotest.(check bool) "loss actually struck" true (dropped1 > 0);
  Alcotest.(check int) "same chunks seen" seen1 seen2;
  Alcotest.(check int) "same chunks dropped" dropped1 dropped2;
  Alcotest.(check int) "same fec recoveries" fec1 fec2;
  Alcotest.(check int) "same retransmissions" retx1 retx2;
  Alcotest.(check (option (float 0.))) "same completion time" done1 done2;
  Alcotest.(check bool) "completed" true (done1 <> None)

(* Transfer ids and bookkeeping belong to the net: the first transfer of
   every net is id 1, so an identical lossy run later in the process
   replays the first (retransmit jitter is seeded from the id), and a
   finished net is not kept alive by a process-wide registry. *)
let test_transfer_state_per_net () =
  let run () =
    let _, engine, net, s0, s3 = transfer_net () in
    let _loss = Loss.install net ~sw:(s0 + 1) ~prob:0.3 ~classes:Loss.State_chunks_only () in
    let done_at = ref infinity in
    let _x =
      Transfer.send net ~src_sw:s0 ~dst_sw:s3 ~entries:(entries 400) ~fec:false
        ~on_complete:(fun _ -> done_at := Engine.now engine) ()
    in
    Engine.run engine ~until:30.;
    let alive = Weak.create 1 in
    Weak.set alive 0 (Some net);
    (!done_at, alive)
  in
  let first, alive = run () in
  let second, _ = run () in
  Alcotest.(check bool) "completed" true (first < infinity);
  Alcotest.(check (float 0.)) "same completion time" first second;
  Gc.full_major ();
  Alcotest.(check bool) "finished net collected" false (Weak.check alive 0)

let () =
  let qcheck =
    List.map Test_seed.to_alcotest
      [
        prop_fec_roundtrip;
        prop_fec_single_loss_recovery;
        prop_fec_any_loss_within_budget;
        prop_fec_beyond_budget_fails_cleanly;
      ]
  in
  Alcotest.run "ff_scaling"
    [
      ( "fec",
        [
          Alcotest.test_case "roundtrip" `Quick test_fec_roundtrip;
          Alcotest.test_case "parity counts" `Quick test_fec_parity_counts;
          Alcotest.test_case "recovers single loss" `Quick test_fec_recovers_single_loss;
          Alcotest.test_case "fails on double loss" `Quick test_fec_fails_on_double_loss;
          Alcotest.test_case "parity loss harmless" `Quick test_fec_parity_loss_harmless;
          Alcotest.test_case "empty" `Quick test_fec_empty;
          Alcotest.test_case "xor involution" `Quick test_xor_entries_involution;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "lossless" `Quick test_transfer_lossless;
          Alcotest.test_case "loss with fec" `Quick test_transfer_with_loss_fec;
          Alcotest.test_case "fec vs retransmit" `Quick test_transfer_without_fec_needs_more_retx;
          Alcotest.test_case "empty transfer" `Quick test_transfer_empty;
        ] );
      ( "repurpose",
        [
          Alcotest.test_case "downtime and recovery" `Quick test_repurpose_downtime_and_recovery;
          Alcotest.test_case "state round trip" `Quick test_repurpose_moves_state;
          Alcotest.test_case "backup routes" `Quick test_install_backup_routes;
        ] );
      ( "loss",
        [
          Alcotest.test_case "probability" `Quick test_loss_probability;
          Alcotest.test_case "gilbert-elliott bursts" `Quick test_loss_gilbert_elliott_bursts;
          Alcotest.test_case "enable window" `Quick test_loss_set_enabled_window;
        ] );
      ( "determinism",
        [ Alcotest.test_case "lossy transfer replays under seed" `Quick
            test_lossy_transfer_replays_under_seed;
          Alcotest.test_case "transfer state is per net" `Quick test_transfer_state_per_net ] );
      ("properties", qcheck);
    ]
