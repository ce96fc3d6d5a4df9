(* Tests for Ff_chaos: deterministic fault injection, the invariant
   checker, and — most importantly — that the healing layers actually
   survive what the harness throws at them. The CHAOS_SEED environment
   variable (default 1) re-runs every scenario under a different seed;
   the @chaos dune alias sweeps seeds 1-3. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet
module Protocol = Ff_modes.Protocol
module Transfer = Ff_scaling.Transfer
module Repurpose = Ff_scaling.Repurpose
module Loss = Ff_scaling.Loss
module Chaos = Ff_chaos.Chaos

let seed =
  match Sys.getenv_opt "CHAOS_SEED" with
  | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 1)
  | None -> 1

let modes_for = function
  | Packet.Lfa -> [ "reroute"; "obfuscate" ]
  | Packet.Volumetric -> [ "drop" ]
  | Packet.Pulsing -> [ "reroute" ]
  | Packet.Recon -> [ "obfuscate" ]
  | Packet.Synflood -> [ "syn_guard" ]

let entries n = List.init n (fun i -> (Printf.sprintf "reg[%d]" i, float_of_int i))

(* ---------------- schedule generators ---------------- *)

let test_flap_always_ends_up () =
  let topo = T.ring ~n:4 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h = Chaos.create ~seed net in
  Chaos.flap_link h ~a:0 ~b:1 ~start:0.5 ~until:3.0 ~down_dwell:0.4 ~up_dwell:0.3;
  Engine.run engine ~until:10.;
  Alcotest.(check bool) "link back up" true (Net.link_is_up net ~a:0 ~b:1);
  let downs, ups =
    List.fold_left
      (fun (d, u) (_, a) ->
        match a with
        | Chaos.Link_down _ -> (d + 1, u)
        | Chaos.Link_up _ -> (d, u + 1)
        | _ -> (d, u))
      (0, 0) (Chaos.log h)
  in
  Alcotest.(check bool) "at least one cycle" true (downs >= 1);
  Alcotest.(check int) "every cut has a heal" downs ups

let test_crash_and_partition () =
  let topo = T.ring ~n:6 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h = Chaos.create ~seed net in
  Chaos.crash_switch h ~sw:2 ~at:1.0 ~recover_after:2.0;
  Chaos.partition h ~groups:[ [ 0; 1; 2 ]; [ 3; 4; 5 ] ] ~at:1.0 ~heal_at:4.0;
  Engine.run engine ~until:2.;
  Alcotest.(check bool) "switch down" false (Net.switch_is_up net ~sw:2);
  Alcotest.(check bool) "crossing link cut" false (Net.link_is_up net ~a:2 ~b:3);
  Alcotest.(check bool) "crossing link cut (wrap)" false (Net.link_is_up net ~a:5 ~b:0);
  Alcotest.(check bool) "intra-group link alive" true (Net.link_is_up net ~a:0 ~b:1);
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "switch recovered" true (Net.switch_is_up net ~sw:2);
  Alcotest.(check bool) "partition healed" true (Net.link_is_up net ~a:2 ~b:3);
  Alcotest.(check bool) "partition healed (wrap)" true (Net.link_is_up net ~a:5 ~b:0)

let test_random_flaps_deterministic () =
  let run () =
    let topo = T.ring ~n:8 () in
    let engine = Engine.create () in
    let net = Net.create engine topo in
    let h = Chaos.create ~seed net in
    Chaos.random_link_flaps h ~n:3 ~start:0.5 ~until:4.0 ~mean_down:0.3 ~mean_up:0.5;
    Engine.run engine ~until:8.;
    List.map (fun (t, a) -> (t, Chaos.action_to_string a)) (Chaos.log h)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "some faults injected" true (List.length a >= 2);
  Alcotest.(check (list (pair (float 0.) string))) "same seed, same schedule" a b

(* ---------------- mode convergence under chaos ---------------- *)

let test_convergence_under_probe_loss () =
  (* ring-8, 30% Bernoulli loss on every mode probe at every switch:
     anti-entropy must still converge the full region within 5 s *)
  let topo = T.ring ~n:8 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  List.iteri
    (fun i sw ->
      ignore
        (Loss.install net ~sw ~prob:0.3 ~seed:(seed + (101 * i))
           ~classes:Loss.Mode_probes_only ()))
    (Net.switch_ids net);
  let p = Protocol.create net ~modes_for ~anti_entropy:0.25 ~seed () in
  Protocol.raise_alarm p ~sw:0 Packet.Lfa;
  Engine.run engine ~until:5.;
  List.iter
    (fun sw ->
      Alcotest.(check bool)
        (Printf.sprintf "switch %d converged" sw)
        true
        (Protocol.active p ~sw "reroute"))
    (Net.switch_ids net)

let test_cut_vertex_first_probe_loss_converges () =
  (* the acceptance scenario: a linear chain where the middle link eats
     every first-transmission mode probe. Flooding alone can never get
     past it; epoch anti-entropy must, within 5 s sim time. *)
  let topo = T.linear ~n:6 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let id name = (T.node_by_name topo name).T.id in
  let h = Chaos.create ~seed net in
  Chaos.drop_first_probe_per_epoch h ~a:(id "s2") ~b:(id "s3");
  let p = Protocol.create net ~modes_for ~anti_entropy:0.25 ~seed () in
  Protocol.raise_alarm p ~sw:(id "s0") Packet.Lfa;
  Engine.run engine ~until:5.;
  List.iter
    (fun sw ->
      Alcotest.(check bool)
        (Printf.sprintf "switch %d heard the epoch" sw)
        true
        (Protocol.active p ~sw "reroute"))
    (Net.switch_ids net);
  Alcotest.(check bool) "the repair channel did it" true
    (Protocol.readverts p + Protocol.repairs p > 0);
  let violations =
    Chaos.check_quiescence h ~protocol:p ~origins:[ (Packet.Lfa, id "s0") ] ()
  in
  Alcotest.(check (list string)) "region quiescent" [] violations

let test_flooding_alone_fails_cut_vertex () =
  (* the control: without anti-entropy the far side never hears *)
  let topo = T.linear ~n:6 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let id name = (T.node_by_name topo name).T.id in
  let h = Chaos.create ~seed net in
  Chaos.drop_first_probe_per_epoch h ~a:(id "s2") ~b:(id "s3");
  let p = Protocol.create net ~modes_for ~anti_entropy:0. ~seed () in
  Protocol.raise_alarm p ~sw:(id "s0") Packet.Lfa;
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "near side heard" true (Protocol.active p ~sw:(id "s1") "reroute");
  Alcotest.(check bool) "far side did not" false (Protocol.active p ~sw:(id "s4") "reroute");
  let violations =
    Chaos.check_quiescence h ~protocol:p ~origins:[ (Packet.Lfa, id "s0") ] ()
  in
  Alcotest.(check bool) "checker names the hole" true (violations <> [])

(* ---------------- transfer under chaos ---------------- *)

let test_transfer_survives_link_flap () =
  (* ring-6: the chunk path s0-s1-s2-s3 loses its middle link mid-stream;
     the per-round live recompute must fail over to s0-s5-s4-s3 *)
  let topo = T.ring ~n:6 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h = Chaos.create ~seed net in
  Chaos.watch h;
  let x =
    Transfer.send net ~src_sw:0 ~dst_sw:3 ~entries:(entries 400) ~seed
      ~on_complete:(fun _ -> ())
      ()
  in
  Chaos.flap_link h ~a:1 ~b:2 ~start:0.004 ~until:2.0 ~down_dwell:0.5 ~up_dwell:0.2;
  Engine.run engine ~until:10.;
  Alcotest.(check bool) "transfer completed" true (Transfer.complete x);
  Alcotest.(check bool) "failed over at least once" true (Transfer.reroutes x >= 1);
  Alcotest.(check (list string)) "invariants hold"
    []
    (Chaos.check_quiescence h ~transfers:[ x ] ())

let test_transfer_fails_fast_without_path () =
  (* destination crashes for good: the transfer must report failure with
     a reason promptly instead of burning all 10 retry rounds *)
  let topo = T.ring ~n:6 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h = Chaos.create ~seed net in
  let failed_at = ref infinity in
  let reason = ref "" in
  let x =
    Transfer.send net ~src_sw:0 ~dst_sw:3 ~entries:(entries 400) ~seed
      ~on_fail:(fun r ->
        failed_at := Engine.now engine;
        reason := r)
      ~on_complete:(fun _ -> ())
      ()
  in
  Chaos.at h ~time:0.001 (Chaos.Switch_down 3);
  Engine.run engine ~until:30.;
  Alcotest.(check bool) "failed" true (Transfer.failed x);
  Alcotest.(check (option string)) "reason recorded" (Some "destination-down")
    (Transfer.failure_reason x);
  Alcotest.(check string) "on_fail got the reason" "destination-down" !reason;
  (* 3 dead rounds at the 80 ms base timeout: well under a second, far
     from what 10 exponentially backed-off retries would take *)
  Alcotest.(check bool)
    (Printf.sprintf "prompt failure (at %.2fs)" !failed_at)
    true (!failed_at < 2.);
  Alcotest.(check (list string)) "no stuck transfer" []
    (Chaos.check_quiescence h ~transfers:[ x ] ())

let test_transfer_no_static_path () =
  (* both endpoints alive but no route at all: immediate "no-path" *)
  let topo = T.linear ~n:2 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let id name = (T.node_by_name topo name).T.id in
  Net.set_link_up net ~a:(id "s0") ~b:(id "s1") false;
  let x =
    Transfer.send net ~src_sw:(id "s0") ~dst_sw:(id "s1") ~entries:(entries 8)
      ~on_complete:(fun _ -> ())
      ()
  in
  Engine.run engine ~until:5.;
  Alcotest.(check bool) "failed" true (Transfer.failed x);
  Alcotest.(check (option string)) "no-path" (Some "no-path") (Transfer.failure_reason x)

(* ---------------- repurpose under chaos ---------------- *)

let test_repurpose_aborts_on_crashed_destination () =
  (* the state_to switch crashes while the outbound snapshot transfer is
     in flight: repurposing must abort, leave the switch up and
     unreconfigured, and roll the backup routes back *)
  let topo = T.ring ~n:6 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  List.iter
    (fun (sw : T.node) ->
      List.iter
        (fun (other : T.node) ->
          if sw.T.id <> other.T.id then
            match T.shortest_path topo ~src:sw.T.id ~dst:other.T.id with
            | Some p -> Net.install_path net ~dst:other.T.id p
            | None -> ())
        (T.switches topo))
    (T.switches topo);
  let h = Chaos.create ~seed net in
  let installed = ref false in
  let done_called = ref false in
  let abort_reason = ref "" in
  Engine.schedule engine ~at:0.5 (fun () ->
      Repurpose.repurpose net ~sw:1 ~downtime:1.0 ~state_to:4
        ~snapshot:(fun () -> entries 400)
        ~on_abort:(fun r -> abort_reason := r)
        ~install:(fun () -> installed := true)
        ~on_done:(fun _ -> done_called := true)
        ());
  Chaos.at h ~time:0.501 (Chaos.Switch_down 4);
  Engine.run engine ~until:20.;
  Alcotest.(check bool) "aborted" true (!abort_reason <> "");
  Alcotest.(check bool) "install never ran" false !installed;
  Alcotest.(check bool) "on_done never fired" false !done_called;
  Alcotest.(check bool) "switch stayed up" true (Net.switch_is_up net ~sw:1);
  (* the step-(1) backup routes were rolled back *)
  List.iter
    (fun (n : T.node) ->
      Alcotest.(check int)
        (Printf.sprintf "no backup routes left at %d" n.T.id)
        0 (Net.switch net n.T.id).Net.backup_count)
    (T.switches topo)

(* ---------------- invariants ---------------- *)

let test_packet_conservation_under_faults () =
  (* CBR traffic across a flapping ring: every transmitted packet must be
     accounted for as an arrival, a delivery, or a down-switch drop *)
  let topo = T.ring ~n:6 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let hosts = T.hosts topo in
  Net.install_shortest_paths net;
  let h = Chaos.create ~seed net in
  Chaos.watch h;
  let src = (List.hd hosts).T.id and dst = (List.nth hosts 3).T.id in
  ignore (Ff_netsim.Flow.Cbr.start net ~src ~dst ~rate_pps:300. ~stop:8. ());
  Chaos.flap_link h ~a:1 ~b:2 ~start:1.0 ~until:6.0 ~down_dwell:0.5 ~up_dwell:0.5;
  Chaos.crash_switch h ~sw:4 ~at:2.0 ~recover_after:1.5;
  Engine.run engine ~until:10.;
  Alcotest.(check (list string)) "conservation holds" [] (Chaos.check_quiescence h ())

(* ---------------- spec parsing ---------------- *)

let test_spec_parse_and_apply () =
  let spec = "seed=7; cut:s1-s2@0.5; heal:s1-s2@2.0; crash:s4@1.0+1.0; loss:s0@0.3,burst=4" in
  let ds = match Chaos.parse spec with Ok ds -> ds | Error e -> Alcotest.fail e in
  Alcotest.(check (option int)) "seed extracted" (Some 7) (Chaos.spec_seed ds);
  let topo = T.ring ~n:6 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h = Chaos.create ?seed:(Chaos.spec_seed ds) net in
  Chaos.apply h ds;
  Engine.run engine ~until:1.;
  Alcotest.(check bool) "cut applied" false (Net.link_is_up net ~a:1 ~b:2);
  Engine.run engine ~until:1.5;
  Alcotest.(check bool) "crash applied" false (Net.switch_is_up net ~sw:4);
  Engine.run engine ~until:3.;
  Alcotest.(check bool) "healed" true (Net.link_is_up net ~a:1 ~b:2);
  Alcotest.(check bool) "recovered" true (Net.switch_is_up net ~sw:4);
  Alcotest.(check int) "all four fault actions logged" 4 (List.length (Chaos.log h))

let test_spec_rejects_garbage () =
  let bad = [ "cut:s1-s2"; "crash:s4@"; "flap:a-b@1..2"; "loss:s0@weights"; "wibble:3" ] in
  List.iter
    (fun s ->
      match Chaos.parse s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad;
  (* unknown node names surface when applied against a topology *)
  let ds = match Chaos.parse "cut:nope-s1@1.0" with Ok ds -> ds | Error e -> Alcotest.fail e in
  let topo = T.ring ~n:4 () in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let h = Chaos.create net in
  Alcotest.check_raises "unknown node"
    (Invalid_argument "Chaos.apply: unknown node \"nope\"")
    (fun () -> Chaos.apply h ds)

(* A directive naming an unknown node or a non-adjacent pair is rejected
   before anything is scheduled — also the valid directives ahead of it —
   and the error quotes the directive. *)
let test_spec_rejects_before_scheduling () =
  let topo = T.ring ~n:4 () in
  List.iter
    (fun (bad, why) ->
      let spec = "cut:s0-s1@0.5; " ^ bad in
      let ds = match Chaos.parse spec with Ok ds -> ds | Error e -> Alcotest.fail e in
      (match Chaos.check topo ds with
      | Ok () -> Alcotest.failf "accepted %S" spec
      | Error e ->
        Alcotest.(check string) "message quotes the directive" (Printf.sprintf "%S: %s" bad why) e);
      let engine = Engine.create () in
      let net = Net.create engine topo in
      let h = Chaos.create net in
      let pending = Engine.pending engine in
      (match Chaos.apply h ds with
      | () -> Alcotest.failf "applied %S" spec
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "nothing scheduled" pending (Engine.pending engine);
      Engine.run engine ~until:3.;
      Alcotest.(check int) "no fault injected" 0 (Chaos.injected h);
      Alcotest.(check bool) "valid cut not applied" true (Net.link_is_up net ~a:0 ~b:1))
    [ ("cut:s0-s2@1.0", "s0 and s2 are not adjacent");
      ("crash:s9@1.0+1.0", "unknown node \"s9\"");
      ("flap:s1-s2@1.0..6.0/0/0", "down dwell 0 must be finite and > 0");
      ("flap:s1-s2@1.0..6.0/0.3/0", "up dwell 0 must be finite and > 0");
      ("flap:s1-s2@1.0..6.0/1e-300/1e-300",
       "down dwell 1e-300 must advance the clock past end 6");
      ("flap:s1-s2@1.0..6.0/0.3/1e-300", "up dwell 1e-300 must advance the clock past end 6");
      (* half an ulp of an odd-mantissa end: [6 + 2^-50 +. 2^-51] rounds
         up past the end, but [6 +. 2^-51] rounds back to 6 *)
      ("flap:s1-s2@6.0..6.000000000000001/4.440892098500626e-16/4.440892098500626e-16",
       "down dwell 4.44089e-16 must advance the clock past end 6");
      ("flap:s1-s2@6.0..1.0/0.3/0.7", "start 6 is after end 1");
      ("flap:s1-s2@-1.0..6.0/0.3/0.7", "start -1 must be finite and >= 0");
      ("flap:s1-s2@1.0..inf/0.3/0.7", "end inf must be finite and >= 0");
      ("loss:s1@1.5", "loss rate 1.5 must be in [0, 1]");
      ("loss:s1@-0.2", "loss rate -0.2 must be in [0, 1]");
      ("loss:s1@nan", "loss rate nan must be in [0, 1]");
      ("loss:s1@0.3,burst=0", "burst 0 must be finite and >= 1");
      ("loss:s1@0.3,burst=nan", "burst nan must be finite and >= 1");
      ("loss:s1@1.0,burst=4", "loss rate 1 must be in (0, 1) with a burst");
      ("loss:s1@0.9,burst=1", "loss rate 0.9 is infeasible in bursts of mean length 1");
      ("cut:s1-s2@-1", "time -1 must be finite and >= 0");
      ("cut:s1-s2@nan", "time nan must be finite and >= 0");
      ("heal:s1-s2@inf", "time inf must be finite and >= 0");
      ("crash:s1@2.0+-1", "duration -1 must be finite and > 0");
      ("crash:s1@2.0+0", "duration 0 must be finite and > 0");
      ("crash:s1@-2.0+1", "time -2 must be finite and >= 0") ]

(* Fuzz the --chaos grammar: strings built from its verbs, Fig. 2 node
   names, numbers (nan and inf among them), its separators and random
   bytes. [parse] never raises, and neither does [check] on what [parse]
   accepts; a refusal is an [Error] with a message; every directive list
   both accept schedules only finite times >= 0 and positive spans. *)
let prop_spec_fuzz =
  let fig2 = (T.Fig2.build ()).T.Fig2.topo in
  let names = List.map (fun (n : T.node) -> n.T.name) (T.nodes fig2) in
  let name id = (T.node fig2 id).T.name in
  let links = List.map (fun (l : T.link) -> (name l.T.a, name l.T.b)) (T.links fig2) in
  let gen =
    QCheck2.Gen.(
      let node = oneof [ oneofl names; map string_of_int (int_range (-1) 30) ] in
      (* mostly adjacent pairs, so that cuts and flaps get past the
         topology check to their numbers *)
      let link = oneof [ oneofl links; oneofl links; pair node node ] in
      let number =
        oneof
          [ oneofl [ "0"; "1"; "0.3"; "-1"; "nan"; "inf"; "-inf"; "1e-300"; "6.0" ];
            map (Printf.sprintf "%g") (float_range (-2.) 20.);
            map string_of_int (int_range 0 9) ]
      in
      let directive =
        oneof
          [ map3
              (fun verb (a, b) t -> Printf.sprintf "%s:%s-%s@%s" verb a b t)
              (oneofl [ "cut"; "heal" ]) link number;
            map3 (Printf.sprintf "crash:%s@%s+%s") node number number;
            map3
              (fun (a, b) (t0, t1) (down, up) ->
                Printf.sprintf "flap:%s-%s@%s..%s/%s/%s" a b t0 t1 down up)
              link (pair number number) (pair number number);
            map3
              (fun sw rate (opt, v) -> Printf.sprintf "loss:%s@%s%s%s" sw rate opt v)
              node number
              (pair (oneofl [ ""; ",ctl"; ",burst=" ]) (oneofl [ ""; "4"; "0.5" ]));
            map (fun n -> "seed=" ^ n) number ]
      in
      let token =
        frequency
          [ (4, directive);
            ( 1,
              oneofl
                [ "cut:"; "heal:"; "crash:"; "flap:"; "loss:"; "seed="; "burst="; "ctl"; ".";
                  ","; "@"; "+"; "-"; "/"; ":"; ";"; "="; ".." ] );
            (1, node); (1, number); (1, map (String.make 1) char) ]
      in
      map2 String.concat (oneofl [ ""; ";"; "; " ]) (list_size (int_range 0 6) token))
  in
  QCheck2.Test.make ~name:"chaos spec fuzz: parse and check never raise" ~print:Fun.id
    ~count:(if Test_seed.deep then 20_000 else 2_000)
    gen
    (fun spec ->
      let refused = function
        | "" -> QCheck2.Test.fail_reportf "empty refusal of %S" spec
        | _ -> true
      in
      let sane d =
        let times, spans = Chaos.schedule d in
        List.for_all (fun t -> Float.is_finite t && t >= 0.) times
        && List.for_all (fun s -> Float.is_finite s && s > 0.) spans
      in
      match Chaos.parse spec with
      | exception e -> QCheck2.Test.fail_reportf "parse raised %s" (Printexc.to_string e)
      | Error e -> refused e
      | Ok ds -> (
        match Chaos.check fig2 ds with
        | exception e -> QCheck2.Test.fail_reportf "check raised %s" (Printexc.to_string e)
        | Error e -> refused e
        | Ok () -> List.for_all sane ds))

let () =
  Printf.printf "[test_chaos] CHAOS_SEED=%d\n%!" seed;
  Alcotest.run "ff_chaos"
    [
      ( "generators",
        [
          Alcotest.test_case "flap ends up" `Quick test_flap_always_ends_up;
          Alcotest.test_case "crash and partition" `Quick test_crash_and_partition;
          Alcotest.test_case "deterministic schedules" `Quick test_random_flaps_deterministic;
        ] );
      ( "modes",
        [
          Alcotest.test_case "converges under 30% probe loss" `Quick
            test_convergence_under_probe_loss;
          Alcotest.test_case "cut-vertex probe eater" `Quick
            test_cut_vertex_first_probe_loss_converges;
          Alcotest.test_case "flooding alone fails" `Quick test_flooding_alone_fails_cut_vertex;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "survives link flap" `Quick test_transfer_survives_link_flap;
          Alcotest.test_case "fails fast without path" `Quick
            test_transfer_fails_fast_without_path;
          Alcotest.test_case "no static path" `Quick test_transfer_no_static_path;
        ] );
      ( "repurpose",
        [
          Alcotest.test_case "aborts on crashed destination" `Quick
            test_repurpose_aborts_on_crashed_destination;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "packet conservation" `Quick
            test_packet_conservation_under_faults;
        ] );
      ( "spec",
        [
          Alcotest.test_case "parse and apply" `Quick test_spec_parse_and_apply;
          Alcotest.test_case "rejects garbage" `Quick test_spec_rejects_garbage;
          Alcotest.test_case "rejects before scheduling" `Quick
            test_spec_rejects_before_scheduling;
          Test_seed.to_alcotest prop_spec_fuzz;
        ] );
    ]
