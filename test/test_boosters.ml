(* Tests for Ff_boosters: each defense app exercised on a live simulated
   network. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet
module B = Ff_boosters
module Orchestrator = Fastflex.Orchestrator

let fig2_net () =
  let lm = T.Fig2.build ~bots:8 ~normals:4 () in
  let engine = Engine.create () in
  let net = Net.create engine lm.T.Fig2.topo in
  Net.install_shortest_paths net;
  (lm, engine, net)

(* ---------------- Common ---------------- *)

let test_mode_vars () =
  let _, _, net = fig2_net () in
  let sw = Net.switch net (List.hd (Net.switch_ids net)) in
  Alcotest.(check bool) "off by default" false (B.Common.mode_active sw "reroute");
  B.Common.set_mode sw "reroute" true;
  Alcotest.(check bool) "on" true (B.Common.mode_active sw "reroute");
  B.Common.set_mode sw "reroute" false;
  Alcotest.(check bool) "off" false (B.Common.mode_active sw "reroute")

(* A mode is one flag bit per switch, read two ways: [mode_active] by name
   and [mode_on] by a key built once with [mode_key]. The two reads must
   agree for every shipped mode, and setting or clearing one mode must not
   disturb another's bit. *)
let test_mode_flag_mirror () =
  let _, _, net = fig2_net () in
  let sw = Net.switch net (List.hd (Net.switch_ids net)) in
  let modes =
    [
      B.Common.mode_classify;
      B.Common.mode_reroute;
      B.Common.mode_obfuscate;
      B.Common.mode_drop;
      B.Common.mode_hcf;
      B.Common.mode_acl;
      B.Common.mode_grl;
    ]
  in
  let expect on =
    List.iter
      (fun m ->
        let want = List.mem m on in
        let state = if want then "on" else "off" in
        Alcotest.(check bool) (Printf.sprintf "%s %s by key" m state) want
          (B.Common.mode_on sw (B.Common.mode_key m));
        Alcotest.(check bool) (Printf.sprintf "%s %s by name" m state) want
          (B.Common.mode_active sw m))
      modes
  in
  expect [];
  (* switch each mode on in turn, then two off again *)
  List.iteri
    (fun i m ->
      B.Common.set_mode sw m true;
      expect (List.filteri (fun j _ -> j <= i) modes))
    modes;
  B.Common.set_mode sw B.Common.mode_reroute false;
  B.Common.set_mode sw B.Common.mode_acl false;
  expect (List.filter (fun m -> m <> B.Common.mode_reroute && m <> B.Common.mode_acl) modes)

(* ---------------- LFA detector ---------------- *)

let detector_on_fig2 ?(min_age = 0.5) (lm : T.Fig2.landmarks) net =
  let watched =
    List.map
      (fun (l : T.link) ->
        if l.T.a = lm.T.Fig2.agg then (l.T.a, l.T.b) else (l.T.b, l.T.a))
      lm.T.Fig2.critical
  in
  let alarms = ref [] and clears = ref [] in
  let det =
    B.Lfa_detector.install net ~sw:lm.T.Fig2.agg ~watched ~check_period:0.05
      ~threshold_jitter:0. ~seed:0x1FA_D ~min_age ~clear_hold:3.0
      ~on_alarm:(fun a -> alarms := a :: !alarms)
      ~on_clear:(fun a -> clears := a :: !clears)
  in
  (det, alarms, clears)

let test_detector_alarms_on_flood () =
  let lm, engine, net = fig2_net () in
  let det, alarms, _ = detector_on_fig2 lm net in
  (* bots flood decoy1 through agg->m1 *)
  let decoy = List.hd lm.T.Fig2.decoys in
  List.iter
    (fun bot -> ignore (Flow.Cbr.start net ~src:bot ~dst:decoy ~rate_pps:200. ()))
    lm.T.Fig2.bot_sources;
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "alarmed" true (B.Lfa_detector.alarmed det);
  (match !alarms with
  | { B.Lfa_detector.switch; attack } :: _ ->
    Alcotest.(check int) "at agg" lm.T.Fig2.agg switch;
    Alcotest.(check bool) "lfa kind" true (attack = Packet.Lfa)
  | [] -> Alcotest.fail "no alarm");
  Alcotest.(check bool) "tracks flows" true (B.Lfa_detector.tracked_flows det >= 8)

let test_detector_quiet_without_attack () =
  let lm, engine, net = fig2_net () in
  let det, alarms, _ = detector_on_fig2 lm net in
  List.iter
    (fun n -> ignore (Flow.Tcp.start net ~src:n ~dst:lm.T.Fig2.victim ~max_cwnd:4. ()))
    lm.T.Fig2.normal_sources;
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "no alarm" false (B.Lfa_detector.alarmed det);
  Alcotest.(check int) "no alarms" 0 (List.length !alarms)

let test_detector_classifies_crossfire_not_normal () =
  let lm, engine, net = fig2_net () in
  let det, _, _ = detector_on_fig2 lm net in
  (* normal: 4 distinct-destination... all to victim, but only 4 flows *)
  let normal_flows =
    List.map
      (fun n -> Flow.Tcp.start net ~src:n ~dst:lm.T.Fig2.victim ~max_cwnd:4. ())
      lm.T.Fig2.normal_sources
  in
  (* crossfire: 24 low-rate flows to one decoy *)
  let decoy = List.hd lm.T.Fig2.decoys in
  let bot_flows =
    List.concat_map
      (fun bot ->
        List.init 3 (fun _ -> Flow.Tcp.start net ~src:bot ~dst:decoy ~max_cwnd:4. ()))
      lm.T.Fig2.bot_sources
  in
  Engine.run engine ~until:8.;
  let suspicious = B.Lfa_detector.suspicious_flows det in
  let bot_ids = List.map Flow.Tcp.flow_id bot_flows in
  let normal_ids = List.map Flow.Tcp.flow_id normal_flows in
  let bot_caught = List.filter (fun f -> List.mem f suspicious) bot_ids in
  let normal_caught = List.filter (fun f -> List.mem f suspicious) normal_ids in
  Alcotest.(check bool) "most bot flows caught" true
    (List.length bot_caught > List.length bot_ids / 2);
  Alcotest.(check int) "no normal flow caught" 0 (List.length normal_caught);
  Alcotest.(check bool) "bots are suspicious sources" true
    (List.exists (fun b -> B.Lfa_detector.is_suspicious_source det b) lm.T.Fig2.bot_sources)

let test_detector_clears_when_attack_stops () =
  let lm, engine, net = fig2_net () in
  let det, _, clears =
    detector_on_fig2 lm net
  in
  let decoy = List.hd lm.T.Fig2.decoys in
  let flows =
    List.concat_map
      (fun bot ->
        List.init 3 (fun _ ->
            Flow.Tcp.start net ~src:bot ~dst:decoy ~max_cwnd:4. ~stop:6. ()))
      lm.T.Fig2.bot_sources
  in
  ignore flows;
  Engine.run engine ~until:15.;
  Alcotest.(check bool) "cleared after attack subsides" true (List.length !clears >= 1);
  Alcotest.(check bool) "not alarmed at end" false (B.Lfa_detector.alarmed det)

(* ---------------- Reroute ---------------- *)

let test_reroute_probes_build_tables () =
  let lm, engine, net = fig2_net () in
  let rr = B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 () in
  (* activate the mode on every switch so probing starts *)
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "reroute" true) (Net.switch_ids net);
  Engine.run engine ~until:2.;
  Alcotest.(check bool) "probes flowed" true (B.Reroute.probes_sent rr > 10);
  (* agg must know a next hop toward the victim *)
  match B.Reroute.best_next_hop rr ~sw:lm.T.Fig2.agg ~dst:lm.T.Fig2.victim with
  | Some nh ->
    Alcotest.(check bool) "plausible next hop" true
      (List.mem nh (Net.neighbors_of net lm.T.Fig2.agg))
  | None -> Alcotest.fail "no table entry at agg"

let test_reroute_prefers_uncongested () =
  let lm, engine, net = fig2_net () in
  let rr = B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 () in
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "reroute" true) (Net.switch_ids net);
  (* congest agg->m1 with decoy1 CBR traffic *)
  let decoy = List.hd lm.T.Fig2.decoys in
  List.iter
    (fun bot -> ignore (Flow.Cbr.start net ~src:bot ~dst:decoy ~rate_pps:200. ()))
    lm.T.Fig2.bot_sources;
  Engine.run engine ~until:3.;
  (* the best path toward the victim must avoid the middle switch the decoy
     flood actually crosses *)
  let congested_mid =
    match Net.current_path net ~src:(List.hd lm.T.Fig2.bot_sources) ~dst:decoy with
    | Some path -> List.nth path 3
    | None -> Alcotest.fail "no decoy path"
  in
  (match B.Reroute.best_next_hop rr ~sw:lm.T.Fig2.agg ~dst:lm.T.Fig2.victim with
  | Some nh -> Alcotest.(check bool) "avoids congested link" true (nh <> congested_mid)
  | None -> Alcotest.fail "no entry");
  match B.Reroute.best_metric rr ~sw:lm.T.Fig2.agg ~dst:lm.T.Fig2.victim with
  | Some m -> Alcotest.(check bool) "low metric" true (m < 0.5)
  | None -> Alcotest.fail "no metric"

let test_reroute_steers_marked_packets () =
  let lm, engine, net = fig2_net () in
  let _rr = B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 () in
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "reroute" true) (Net.switch_ids net);
  (* a marking stage at the source edges makes all data suspicious *)
  let mark =
    { Net.stage_name = "mark-all";
      process =
        (fun _ pkt ->
          (match pkt.Packet.payload with
          | Packet.Data -> pkt.Packet.suspicious <- true
          | _ -> ());
          Net.Continue) }
  in
  List.iter
    (fun name -> Net.add_stage net ~sw:(T.node_by_name lm.T.Fig2.topo name).T.id mark)
    [ "e1"; "e2" ];
  let f = Flow.Tcp.start net ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim () in
  Engine.run engine ~until:3.;
  Alcotest.(check bool) "rerouted packets counted" true (B.Reroute.reroutes _rr > 0);
  Alcotest.(check bool) "traffic still delivered" true (Flow.Tcp.delivered_bytes f > 100_000.)

(* The stage's decision for a rerouted packet is one of the net's
   preallocated [Forward] values, so steering a data packet allocates
   nothing in the stage (a fresh [Forward] block per packet before). *)
let test_reroute_decision_no_alloc () =
  let lm, engine, net = fig2_net () in
  let rr = B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 () in
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "reroute" true) (Net.switch_ids net);
  Engine.run engine ~until:2.;
  let agg = lm.T.Fig2.agg in
  let next =
    match B.Reroute.best_next_hop rr ~sw:agg ~dst:lm.T.Fig2.victim with
    | Some nh -> nh
    | None -> Alcotest.fail "no table entry at agg"
  in
  let sw = Net.switch net agg in
  let stage = List.find (fun st -> st.Net.stage_name = "reroute") sw.Net.stages in
  let ctx = { Net.net; sw; in_port = -1 } in
  let pkt =
    Packet.make ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim ~flow:7 ()
  in
  pkt.Packet.suspicious <- true;
  let n = 100_000 in
  let steered = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    match stage.Net.process ctx pkt with
    | Net.Forward nh when nh = next -> incr steered
    | _ -> ()
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every packet steered to the best next hop" n !steered;
  Alcotest.(check bool)
    (Printf.sprintf "reroute decision allocates nothing (%.3f words per packet)" per_call)
    true (per_call < 0.01)

(* A re-flooded utilization probe is built once per flood: every copy the
   switch emits carries the same immutable [Util_probe] block. *)
let test_reroute_flood_shares_payload () =
  let lm, engine, net = fig2_net () in
  let _rr = B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 () in
  let agg = lm.T.Fig2.agg and victim = lm.T.Fig2.victim in
  let peers =
    List.filter
      (fun n -> (T.node lm.T.Fig2.topo n).T.kind = T.Switch)
      (Net.neighbors_of net agg)
  in
  let from_ = List.hd peers in
  let copies = ref [] in
  List.iter
    (fun peer ->
      Net.add_stage ~front:true net ~sw:peer
        { Net.stage_name = "capture";
          process =
            (fun ctx pkt ->
              (match pkt.Packet.payload with
              | Packet.Util_probe _ when ctx.Net.in_port = agg ->
                copies := pkt.Packet.payload :: !copies
              | _ -> ());
              Net.Continue) })
    peers;
  (* the reroute mode stays off, so no periodic flood runs: the only probes
     that leave [agg] are the copies of this one's re-flood *)
  let sw = Net.switch net agg in
  let stage = List.find (fun st -> st.Net.stage_name = "reroute") sw.Net.stages in
  let probe =
    Packet.make_control ~src:victim ~dst:victim ~flow:0
      ~payload:(Packet.Util_probe { dst = victim; round = 1; max_util = 0.; hops = 1 })
  in
  ignore (stage.Net.process { Net.net; sw; in_port = from_ } probe);
  Engine.run engine ~until:0.5;
  Alcotest.(check int) "one copy per other neighbor" (List.length peers - 1)
    (List.length !copies);
  Alcotest.(check bool) "flood has several copies" true (List.length !copies >= 2);
  match !copies with
  | first :: rest ->
    Alcotest.(check bool) "copies share one payload" true (List.for_all (fun p -> p == first) rest)
  | [] -> Alcotest.fail "no copies"

(* ---------------- Obfuscator ---------------- *)

let test_obfuscator_rewrites_traceroute () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let bot = List.hd lm.T.Fig2.bot_sources in
  let decoy = List.hd lm.T.Fig2.decoys in
  (* virtual topology: pretend every hop is the aggregation switch *)
  let fake_path ~src:_ ~dst:_ = Some (List.init 10 (fun _ -> lm.T.Fig2.agg)) in
  let ob = B.Obfuscator.install net ~virtual_path:fake_path in
  (* obfuscation off: see the real path *)
  let real = ref [] in
  Flow.Traceroute.run net ~src:bot ~dst:decoy ~on_done:(fun h -> real := h);
  Engine.run engine ~until:2.;
  (* obfuscation on everywhere: all switch hops must answer as agg *)
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "obfuscate" true) (Net.switch_ids net);
  let fake = ref [] in
  Flow.Traceroute.run net ~src:bot ~dst:decoy ~on_done:(fun h -> fake := h);
  Engine.run engine ~until:4.;
  Alcotest.(check bool) "real path has distinct hops" true
    (List.length (List.sort_uniq compare (List.map snd !real)) > 2);
  let fake_switch_hops = List.filter (fun (_, r) -> r <> decoy) !fake in
  Alcotest.(check bool) "some hops obfuscated" true (List.length fake_switch_hops > 0);
  List.iter
    (fun (_, r) ->
      Alcotest.(check string) "answered as agg" "agg" (T.node topo r).T.name)
    fake_switch_hops;
  Alcotest.(check bool) "replies counted" true (B.Obfuscator.obfuscated_replies ob > 0)

(* ---------------- Dropper ---------------- *)

let test_dropper_rate_limits_suspicious () =
  let lm, engine, net = fig2_net () in
  let dr = B.Dropper.install net ~sw:lm.T.Fig2.agg ~rate_limit:200_000. ~drop_prob:0. in
  B.Common.set_mode (Net.switch net lm.T.Fig2.agg) "drop" true;
  let mark =
    { Net.stage_name = "mark-all";
      process =
        (fun _ pkt ->
          (match pkt.Packet.payload with
          | Packet.Data -> pkt.Packet.suspicious <- true
          | _ -> ());
          Net.Continue) }
  in
  (* mark before the dropper runs: install at the upstream edge *)
  List.iter
    (fun name -> Net.add_stage net ~sw:(T.node_by_name lm.T.Fig2.topo name).T.id mark)
    [ "e1"; "e2" ];
  let f =
    Flow.Cbr.start net ~src:(List.hd lm.T.Fig2.bot_sources) ~dst:(List.hd lm.T.Fig2.decoys)
      ~rate_pps:200. ()
  in
  Engine.run engine ~until:5.;
  (* offered 1.6 Mb/s, limited to 200 kb/s = 25 kB/s *)
  Alcotest.(check bool) "dropped most" true (B.Dropper.dropped dr > 500);
  Alcotest.(check bool) "throughput near the limit" true
    (Flow.Cbr.delivered_bytes f < 350_000.);
  Alcotest.(check int) "one meter" 1 (B.Dropper.metered_flows dr)

let test_dropper_spares_normal () =
  let lm, engine, net = fig2_net () in
  let dr = B.Dropper.install net ~sw:lm.T.Fig2.agg ~rate_limit:200_000. ~drop_prob:0.5 in
  B.Common.set_mode (Net.switch net lm.T.Fig2.agg) "drop" true;
  let f =
    Flow.Cbr.start net ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim
      ~rate_pps:200. ()
  in
  Engine.run engine ~until:5.;
  Alcotest.(check int) "unmarked traffic untouched" 0 (B.Dropper.dropped dr);
  Alcotest.(check bool) "full throughput" true (Flow.Cbr.delivered_bytes f > 900_000.)

(* ---------------- Heavy hitter ---------------- *)

let test_heavy_hitter_detects_volumetric () =
  let lm, engine, net = fig2_net () in
  let alarms = ref [] in
  let hh =
    B.Heavy_hitter.install net ~sw:lm.T.Fig2.agg ~epoch:0.5 ~stages:4 ~slots:64
      ~threshold_bps:3_000_000. ~by_source:false ~epoch_jitter:0. ~threshold_jitter:0.
      ~rotate_period:0. ~src_hold:0. ~seed:0x44_11
      ~on_alarm:(fun a -> alarms := a :: !alarms)
      ~on_clear:(fun _ -> ())
      ()
  in
  (* one elephant at ~6.4 Mb/s among mice *)
  let elephant =
    Flow.Cbr.start net ~src:(List.hd lm.T.Fig2.bot_sources) ~dst:lm.T.Fig2.victim
      ~rate_pps:800. ()
  in
  List.iter
    (fun n -> ignore (Flow.Cbr.start net ~src:n ~dst:lm.T.Fig2.victim ~rate_pps:10. ()))
    lm.T.Fig2.normal_sources;
  (* stop mid-epoch so the live HashPipe still holds this epoch's counts *)
  Engine.run engine ~until:3.75;
  Alcotest.(check bool) "alarmed" true (B.Heavy_hitter.alarmed hh);
  (match !alarms with
  | { B.Lfa_detector.attack; _ } :: _ ->
    Alcotest.(check bool) "volumetric kind" true (attack = Packet.Volumetric)
  | [] -> Alcotest.fail "no alarm");
  Alcotest.(check bool) "elephant among offenders" true
    (List.mem (Flow.Cbr.flow_id elephant) (B.Heavy_hitter.offenders hh));
  (* top-k exposes it too *)
  match B.Heavy_hitter.top hh ~k:1 with
  | (k, _) :: _ -> Alcotest.(check int) "top flow" (Flow.Cbr.flow_id elephant) k
  | [] -> Alcotest.fail "empty top"

(* ---------------- Hop-count filter ---------------- *)

let test_hcf_filters_spoofed () =
  let lm, engine, net = fig2_net () in
  let hcf = B.Hop_count_filter.install net ~sw:lm.T.Fig2.agg in
  let normal = List.hd lm.T.Fig2.normal_sources in
  (* learning phase: legitimate traffic from [normal] *)
  ignore (Flow.Cbr.start net ~src:normal ~dst:lm.T.Fig2.victim ~rate_pps:50. ());
  Engine.run engine ~until:2.;
  B.Common.set_mode (Net.switch net lm.T.Fig2.agg) "hcf" true;
  (* a bot spoofing [normal]'s address with a wrong initial TTL *)
  let spoofed =
    Flow.Cbr.start net ~src:normal ~dst:lm.T.Fig2.victim ~rate_pps:50. ~ttl:32
      ~via:(List.hd lm.T.Fig2.bot_sources) ()
  in
  (* a second spoofer behind the same edge switch, three hops off: just
     past the 2-hop tolerance *)
  let near =
    Flow.Cbr.start net ~src:normal ~dst:lm.T.Fig2.victim ~rate_pps:50. ~ttl:61
      ~via:(List.hd lm.T.Fig2.bot_sources) ()
  in
  Engine.run engine ~until:4.;
  Alcotest.(check bool) "spoofed filtered" true (B.Hop_count_filter.filtered hcf > 50);
  Alcotest.(check bool) "spoofed delivery suppressed" true
    (Flow.Cbr.delivered_bytes spoofed < 30_000.);
  Alcotest.(check bool) "learned sources" true (B.Hop_count_filter.learned_sources hcf >= 1);
  Alcotest.(check (float 0.)) "near spoofer filtered" 0. (Flow.Cbr.delivered_bytes near);
  Alcotest.(check int) "filtered" 200 (B.Hop_count_filter.filtered hcf)

(* ---------------- Global rate limit ---------------- *)

let test_grl_converges_to_limit () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  (* one tenant entering at two different switches, 2 Mb/s each, 2 Mb/s cap *)
  let tenant = 1 in
  let senders = List.filteri (fun i _ -> i < 2) lm.T.Fig2.bot_sources in
  let d =
    Orchestrator.deploy net
      [ Orchestrator.Global_rate_limit
          { participants = [ e1; e2 ]; tenants = List.map (fun src -> (src, tenant)) senders;
            limits = [ (tenant, 2_000_000.) ] } ]
  in
  let grl = List.hd d.Orchestrator.rate_limits in
  (* no detector here: switch the policing mode on by hand *)
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "grl" true) [ e1; e2 ];
  let flows =
    List.map
      (fun src -> Flow.Cbr.start net ~src ~dst:lm.T.Fig2.victim ~rate_pps:250. ())
      senders
  in
  Engine.run engine ~until:10.;
  let delivered = List.fold_left (fun acc f -> acc +. Flow.Cbr.delivered_bytes f) 0. flows in
  let rate_bps = delivered *. 8. /. 10. in
  (* offered 4 Mb/s; policed near the 2 Mb/s global cap *)
  Alcotest.(check bool) "held near global limit" true
    (rate_bps < 2_600_000. && rate_bps > 1_200_000.);
  Alcotest.(check bool) "dropped some" true (B.Global_rate_limit.dropped grl > 100);
  Alcotest.(check bool) "synced" true (B.Global_rate_limit.sync_probes grl > 10);
  (* each participant's view includes the remote share *)
  Alcotest.(check bool) "global view at e1 exceeds local" true
    (B.Global_rate_limit.global_rate grl ~sw:e1 ~tenant
     > B.Global_rate_limit.local_rate grl ~sw:e1 ~tenant +. 100_000.)

let test_reroute_loop_free () =
  (* steer ALL data through the probe tables and verify with the packet
     tracer that no packet ever revisits a switch *)
  let lm, engine, net = fig2_net () in
  let _rr =
    B.Reroute.install net ~roots:[ lm.T.Fig2.victim ] ~probe_interval:0.05 ~reroute_all:true ()
  in
  List.iter (fun sw -> B.Common.set_mode (Net.switch net sw) "reroute" true) (Net.switch_ids net);
  (* congestion to force the probes onto changing paths *)
  List.iter
    (fun bot ->
      ignore (Flow.Cbr.start net ~src:bot ~dst:(List.hd lm.T.Fig2.decoys) ~rate_pps:150. ()))
    lm.T.Fig2.bot_sources;
  let f = Flow.Tcp.start net ~src:(List.hd lm.T.Fig2.normal_sources) ~dst:lm.T.Fig2.victim () in
  let events = Net.trace_flow net ~flow:(Flow.Tcp.flow_id f) in
  Engine.run engine ~until:5.;
  (* group switch arrivals by packet uid: each packet visits each switch
     at most once *)
  let visits = Hashtbl.create 1024 in
  List.iter
    (fun (e : Net.trace_event) ->
      match e.Net.kind with
      | Net.Switch_arrival ->
        let key = (e.Net.uid, e.Net.node) in
        Hashtbl.replace visits key (1 + (try Hashtbl.find visits key with Not_found -> 0))
      | _ -> ())
    !events;
  Hashtbl.iter
    (fun (uid, node) n ->
      if n > 1 then
        Alcotest.failf "packet %d visited switch %d %d times (forwarding loop)" uid node n)
    visits;
  Alcotest.(check bool) "traffic flowed" true (Flow.Tcp.delivered_bytes f > 100_000.)

(* ---------------- Network-wide heavy hitter ---------------- *)

let test_nwhh_detects_distributed_flood () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let d = Orchestrator.deploy net [ Orchestrator.Network_wide_hh { ingresses = [ e1; e2 ] } ] in
  let nw = List.hd d.Orchestrator.network_hhs in
  (* 8 bots at ~1 Mb/s each toward the victim: under 4 Mb/s at either
     ingress, 8 Mb/s network-wide *)
  List.iter
    (fun bot ->
      ignore (Flow.Cbr.start net ~src:bot ~dst:lm.T.Fig2.victim ~rate_pps:125. ()))
    lm.T.Fig2.bot_sources;
  (* 80 kb/s from e1 toward a decoy: under the 100 kb/s advertisement
     threshold, so e2 never hears of it *)
  let normal = List.hd lm.T.Fig2.normal_sources and decoy = List.hd lm.T.Fig2.decoys in
  ignore (Flow.Cbr.start net ~src:normal ~dst:decoy ~rate_pps:10. ());
  Engine.run engine ~until:5.;
  (* locally invisible... *)
  Alcotest.(check bool) "local rate below threshold" true
    (B.Network_wide_hh.local_rate nw ~sw:e1 ~dst:lm.T.Fig2.victim < 6_000_000.);
  (* ...globally glaring *)
  Alcotest.(check bool) "global rate above threshold" true
    (B.Network_wide_hh.global_rate nw ~sw:e1 ~dst:lm.T.Fig2.victim > 6_000_000.);
  Alcotest.(check bool) "alarmed" true (B.Network_wide_hh.alarmed nw);
  Alcotest.(check bool) "victim among offenders" true
    (List.mem lm.T.Fig2.victim (B.Network_wide_hh.offenders nw));
  Alcotest.(check bool) "volumetric modes on at e1" true
    (List.exists
       (fun (_, sw, attack, up) -> sw = e1 && up && attack = Packet.Volumetric)
       (Ff_modes.Protocol.log d.Orchestrator.protocol));
  Alcotest.(check bool) "sync probes flowed" true (B.Network_wide_hh.sync_probes nw > 5);
  (* exact: pins the sync cadence and the advertisement threshold *)
  Alcotest.(check int) "sync probes" 40 (B.Network_wide_hh.sync_probes nw);
  Alcotest.(check bool) "decoy flow live at e1" true
    (B.Network_wide_hh.local_rate nw ~sw:e1 ~dst:decoy > 50_000.);
  Alcotest.(check (float 0.)) "decoy flow unadvertised" 0.
    (B.Network_wide_hh.global_rate nw ~sw:e2 ~dst:decoy)

let test_nwhh_quiet_under_local_threshold () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let d = Orchestrator.deploy net [ Orchestrator.Network_wide_hh { ingresses = [ e1; e2 ] } ] in
  let nw = List.hd d.Orchestrator.network_hhs in
  (* modest legitimate traffic only *)
  List.iter
    (fun n -> ignore (Flow.Cbr.start net ~src:n ~dst:lm.T.Fig2.victim ~rate_pps:60. ()))
    lm.T.Fig2.normal_sources;
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "no alarm" false (B.Network_wide_hh.alarmed nw);
  Alcotest.(check (list int)) "no offenders" [] (B.Network_wide_hh.offenders nw);
  Alcotest.(check int) "no mode change" 0 (Ff_modes.Protocol.transitions d.Orchestrator.protocol)

let test_nwhh_clears_after_flood () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let d = Orchestrator.deploy net [ Orchestrator.Network_wide_hh { ingresses = [ e1; e2 ] } ] in
  let nw = List.hd d.Orchestrator.network_hhs in
  List.iter
    (fun bot ->
      ignore (Flow.Cbr.start net ~src:bot ~dst:lm.T.Fig2.victim ~rate_pps:125. ~stop:4. ()))
    lm.T.Fig2.bot_sources;
  Engine.run engine ~until:10.;
  Alcotest.(check bool) "modes off after the flood ends" true
    (List.exists
       (fun (_, sw, attack, up) -> sw = e1 && (not up) && attack = Packet.Volumetric)
       (Ff_modes.Protocol.log d.Orchestrator.protocol));
  Alcotest.(check bool) "not alarmed at the end" false (B.Network_wide_hh.alarmed nw)

(* Each offending ingress raises its own alarm: with one-hop mode regions
   the Volumetric modes come on at e2 as well as at e1. *)
let test_nwhh_alarms_every_ingress () =
  let lm, engine, net = fig2_net () in
  let topo = lm.T.Fig2.topo in
  let e1 = (T.node_by_name topo "e1").T.id and e2 = (T.node_by_name topo "e2").T.id in
  let config = { Orchestrator.default_config with region_ttl = 1 } in
  let d =
    Orchestrator.deploy net ~config [ Orchestrator.Network_wide_hh { ingresses = [ e1; e2 ] } ]
  in
  List.iter
    (fun bot ->
      ignore (Flow.Cbr.start net ~src:bot ~dst:lm.T.Fig2.victim ~rate_pps:125. ()))
    lm.T.Fig2.bot_sources;
  Engine.run engine ~until:5.;
  let up_at sw =
    List.exists
      (fun (_, s, attack, up) -> s = sw && up && attack = Packet.Volumetric)
      (Ff_modes.Protocol.log d.Orchestrator.protocol)
  in
  Alcotest.(check bool) "volumetric modes on at e1" true (up_at e1);
  Alcotest.(check bool) "volumetric modes on at e2" true (up_at e2)

(* ---------------- Specs ---------------- *)

let test_specs_catalogue () =
  Alcotest.(check int) "eight boosters" 8 (List.length B.Specs.booster_names);
  List.iter
    (fun name ->
      let specs = B.Specs.specs_of name in
      Alcotest.(check bool) (name ^ " has >= 3 PPMs") true (List.length specs >= 3);
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (name ^ "/" ^ s.Ff_dataplane.Ppm.name ^ " positive stages")
            true
            (s.Ff_dataplane.Ppm.resources.Ff_dataplane.Resource.stages > 0.))
        specs)
    B.Specs.booster_names;
  Alcotest.(check bool) "unknown booster raises" true
    (try
       ignore (B.Specs.specs_of "nope");
       false
     with Not_found -> true)

let () =
  Alcotest.run "ff_boosters"
    [
      ( "common",
        [
          Alcotest.test_case "mode vars" `Quick test_mode_vars;
          Alcotest.test_case "flag bit mirrors vars" `Quick test_mode_flag_mirror;
        ] );
      ( "lfa-detector",
        [
          Alcotest.test_case "alarms on flood" `Quick test_detector_alarms_on_flood;
          Alcotest.test_case "quiet without attack" `Quick test_detector_quiet_without_attack;
          Alcotest.test_case "classifies crossfire not normal" `Quick
            test_detector_classifies_crossfire_not_normal;
          Alcotest.test_case "clears when attack stops" `Quick
            test_detector_clears_when_attack_stops;
        ] );
      ( "reroute",
        [
          Alcotest.test_case "probes build tables" `Quick test_reroute_probes_build_tables;
          Alcotest.test_case "prefers uncongested" `Quick test_reroute_prefers_uncongested;
          Alcotest.test_case "steers marked packets" `Quick test_reroute_steers_marked_packets;
          Alcotest.test_case "loop free under rerouting" `Quick test_reroute_loop_free;
          Alcotest.test_case "rerouted packet allocation-free" `Quick
            test_reroute_decision_no_alloc;
          Alcotest.test_case "flood copies share one payload" `Quick
            test_reroute_flood_shares_payload;
        ] );
      ( "obfuscator",
        [ Alcotest.test_case "rewrites traceroute" `Quick test_obfuscator_rewrites_traceroute ] );
      ( "dropper",
        [
          Alcotest.test_case "rate limits suspicious" `Quick test_dropper_rate_limits_suspicious;
          Alcotest.test_case "spares normal" `Quick test_dropper_spares_normal;
        ] );
      ( "heavy-hitter",
        [ Alcotest.test_case "detects volumetric" `Quick test_heavy_hitter_detects_volumetric ] );
      ( "hop-count-filter",
        [ Alcotest.test_case "filters spoofed" `Quick test_hcf_filters_spoofed ] );
      ( "global-rate-limit",
        [ Alcotest.test_case "converges to limit" `Quick test_grl_converges_to_limit ] );
      ( "network-wide-hh",
        [
          Alcotest.test_case "detects distributed flood" `Quick
            test_nwhh_detects_distributed_flood;
          Alcotest.test_case "quiet under threshold" `Quick
            test_nwhh_quiet_under_local_threshold;
          Alcotest.test_case "clears after flood" `Quick test_nwhh_clears_after_flood;
          Alcotest.test_case "alarms at every ingress" `Quick test_nwhh_alarms_every_ingress;
        ] );
      ("specs", [ Alcotest.test_case "catalogue" `Quick test_specs_catalogue ]);
    ]
