(* Differential testing: the optimized Engine/Net/Protocol stack against
   the Ff_oracle reference semantics, over randomized programs.

   Each property drives both implementations through the *same* schedule
   calls in the *same* order, so both sequence counters assign matching
   tie-break keys and the runs are comparable event for event. The
   assertions then demand bit-identical answers — delivery instants,
   sorted drop-reason counts, per-directed-link transmit counts, epochs —
   so any divergence, down to one ULP of float arithmetic or one
   reordered same-instant event, fails the property with its seed. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet
module Protocol = Ff_modes.Protocol
module Chaos = Ff_chaos.Chaos
module Prng = Ff_util.Prng
module Oracle = Ff_oracle.Oracle
module Simnet = Ff_oracle.Simnet

(* ---------------- shared generators ---------------- *)

(* A random connected topology: 3-7 switches (spanning tree plus a few
   chords), one host per switch, capacities and delays drawn from small
   sets so scenarios mix fast and slow links. With [uniform] every link
   costs the same per hop, so probe floods propagate along hop-shortest
   paths — required by the mode-fold differential, whose region spec is
   hop distance (a low-delay detour would otherwise deliver the first,
   region-defining probe over a longer-hop path with a smaller TTL). *)
let random_topology ?(uniform = false) rng =
  let n_sw = 3 + Prng.int rng 5 in
  let topo = T.create () in
  let sws =
    Array.init n_sw (fun i -> T.add_node topo ~kind:T.Switch ~name:(Printf.sprintf "s%d" i))
  in
  let caps = [| 5_000_000.; 10_000_000.; 20_000_000. |] in
  let delays = [| 0.0005; 0.001; 0.002 |] in
  let link a b =
    let capacity = if uniform then 10_000_000. else Prng.choose rng caps in
    let delay = if uniform then 0.001 else Prng.choose rng delays in
    ignore (T.add_link topo ~capacity ~delay a b)
  in
  for i = 1 to n_sw - 1 do
    link sws.(i) sws.(Prng.int rng i)
  done;
  for _ = 1 to Prng.int rng n_sw do
    let a = Prng.int rng n_sw and b = Prng.int rng n_sw in
    if a <> b && T.find_link topo sws.(a) sws.(b) = None then link sws.(a) sws.(b)
  done;
  let hosts =
    Array.mapi
      (fun i sw ->
        let h = T.add_node topo ~kind:T.Host ~name:(Printf.sprintf "h%d" i) in
        link h sw;
        h)
      sws
  in
  (topo, sws, hosts)

let switch_neighbors topo sw =
  List.filter_map
    (fun (peer, _) ->
      match (T.node topo peer).T.kind with T.Switch -> Some peer | T.Host -> None)
    (T.neighbors topo sw)

(* ---------------- event-order differential ---------------- *)

(* Random two-level schedules: top-level events at grid times (so ties are
   common), each spawning leaf events at offsets from its own fire time.
   Labels are assigned at schedule time in both implementations, so the
   recorded pop orders must match exactly — this pins Engine's two-lane
   (time, seq) dispatch to the single sorted-list Oracle.Queue. *)
let run_engine_program prog =
  let e = Engine.create () in
  let order = ref [] in
  let next = ref 0 in
  let fresh () =
    let l = !next in
    incr next;
    l
  in
  List.iter
    (fun (at, children) ->
      let l = fresh () in
      Engine.schedule e ~at (fun () ->
          order := l :: !order;
          List.iter
            (fun d ->
              let cl = fresh () in
              Engine.schedule e ~at:(Engine.now e +. d) (fun () -> order := cl :: !order))
            children))
    prog;
  Engine.run e ~until:1_000.;
  List.rev !order

let run_oracle_program prog =
  let order = ref [] in
  let next = ref 0 in
  let fresh () =
    let l = !next in
    incr next;
    l
  in
  let q = ref Oracle.Queue.empty in
  let push ~at v = q := Oracle.Queue.push !q ~at v in
  List.iter (fun (at, children) -> push ~at (fresh (), children)) prog;
  let rec loop () =
    match Oracle.Queue.pop !q with
    | None -> ()
    | Some ((at, _seq, (l, children)), rest) ->
      q := rest;
      order := l :: !order;
      List.iter (fun d -> push ~at:(at +. d) (fresh (), [])) children;
      loop ()
  in
  loop ();
  List.rev !order

let prop_event_order =
  QCheck.Test.make ~name:"engine pops in the oracle queue's (time, seq) order" ~count:150
    ~long_factor:5
    QCheck.(
      list_of_size (Gen.int_range 0 12)
        (pair (int_range 0 8) (list_of_size (Gen.int_range 0 3) (int_range 0 6))))
    (fun raw ->
      let prog =
        List.map
          (fun (slot, kids) ->
            (0.5 *. float_of_int slot, List.map (fun k -> 0.25 *. float_of_int k) kids))
          raw
      in
      run_engine_program prog = run_oracle_program prog)

(* ---------------- live-routing differential ---------------- *)

let prop_live_routing =
  QCheck.Test.make ~name:"live_shortest_path agrees with edge-list relaxation" ~count:80
    ~long_factor:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed:(seed + 17) in
      let topo, sws, hosts = random_topology rng in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      (* kill a few switches and links *)
      let killed_sws =
        Array.to_list sws |> List.filter (fun _ -> Prng.int rng 6 = 0)
      in
      let killed_links =
        T.links topo
        |> List.filter (fun _ -> Prng.int rng 5 = 0)
        |> List.map (fun (l : T.link) -> (min l.T.a l.T.b, max l.T.a l.T.b))
      in
      List.iter (fun sw -> Net.set_switch_up net ~sw false) killed_sws;
      List.iter (fun (a, b) -> Net.set_link_up net ~a ~b false) killed_links;
      let live_link a b = not (List.mem (min a b, max a b) killed_links) in
      let live_node nd =
        match (T.node topo nd).T.kind with
        | T.Host -> true
        | T.Switch -> not (List.mem nd killed_sws)
      in
      Array.iter
        (fun src ->
          Array.iter
            (fun dst ->
              if src <> dst then begin
                let real = Net.live_shortest_path net ~src ~dst in
                let ref_ = Oracle.Routing.shortest_path ~live_link ~live_node topo ~src ~dst in
                match (real, ref_) with
                | None, None -> ()
                | Some p, Some q ->
                  if List.length p <> List.length q then
                    QCheck.Test.fail_reportf "%d->%d: real length %d, oracle length %d" src
                      dst (List.length p) (List.length q);
                  (* the real path must itself be adjacency-valid and live *)
                  ignore (T.path_links topo p);
                  List.iter
                    (fun nd ->
                      if not (live_node nd) then
                        QCheck.Test.fail_reportf "%d->%d: real path transits dead node %d" src
                          dst nd)
                    p;
                  let rec edges = function
                    | a :: (b :: _ as rest) ->
                      if not (live_link a b) then
                        QCheck.Test.fail_reportf "%d->%d: real path crosses dead link %d-%d"
                          src dst a b;
                      edges rest
                    | _ -> ()
                  in
                  edges p
                | Some _, None ->
                  QCheck.Test.fail_reportf "%d->%d: real finds a path, oracle says unreachable"
                    src dst
                | None, Some _ ->
                  QCheck.Test.fail_reportf "%d->%d: oracle finds a path, real says unreachable"
                    src dst
              end)
            hosts)
        hosts;
      true)

(* ---------------- packet-delivery differential ---------------- *)

(* The tentpole property: a full random scenario — topology, routes,
   backup and pair-route overrides, link/switch fault scripts, several
   flows of randomly sized and spaced packets — executed on the real
   Engine + Net and on the naive Simnet, then compared field by field:
   exact delivery timestamps per flow, sorted drop-reason counts, and
   per-directed-link transmit counts. *)
let delivery_scenario seed =
  let rng = Prng.create ~seed:(seed + 1) in
  let topo, sws, hosts = random_topology rng in
  let n_sw = Array.length sws in
  let engine = Engine.create () in
  let net = Net.create engine topo in
  let sim = Simnet.create topo in
  let harness = Chaos.create net in
  (* record every host delivery, keyed by flow, in arrival order *)
  let real_deliveries : (int, float list) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun h ->
      (Net.host net h).Net.fallback_rx <-
        Some
          (fun pkt ->
            let f = pkt.Packet.flow in
            let prev = try Hashtbl.find real_deliveries f with Not_found -> [] in
            Hashtbl.replace real_deliveries f (Engine.now engine :: prev)))
    hosts;
  (* flows and their oracle-computed primary routes *)
  let n_flows = 1 + Prng.int rng 4 in
  let flows =
    List.init n_flows (fun f ->
        let si = Prng.int rng n_sw in
        let di = (si + 1 + Prng.int rng (n_sw - 1)) mod n_sw in
        (1000 + f, hosts.(si), hosts.(di)))
  in
  List.iter
    (fun (_f, src, dst) ->
      match Oracle.Routing.shortest_path topo ~src ~dst with
      | Some p ->
        Net.install_path net ~dst p;
        Simnet.install_path sim ~dst p
      | None -> ())
    flows;
  (* random backup and pair-route overrides, mirrored into both stacks;
     deliberately allowed to form detours or loops (TTL ends loops
     identically on both sides) *)
  List.iter
    (fun (_f, src, dst) ->
      if Prng.bool rng then begin
        let sw = sws.(Prng.int rng n_sw) in
        match switch_neighbors topo sw with
        | [] -> ()
        | nbrs ->
          let nh = List.nth nbrs (Prng.int rng (List.length nbrs)) in
          if Prng.bool rng then begin
            Net.set_backup_route net ~sw ~dst ~next_hop:nh;
            Simnet.set_backup_route sim ~sw ~dst ~next_hop:nh
          end
          else begin
            Net.set_pair_route net ~sw ~src ~dst ~next_hop:nh;
            Simnet.set_pair_route sim ~sw ~src ~dst ~next_hop:nh
          end
      end)
    flows;
  (* fault script: identical absolute instants on both sides *)
  let links = Array.of_list (T.links topo) in
  for _ = 1 to Prng.int rng 3 do
    let t0 = 0.2 +. Prng.float rng 1.5 in
    let heal = Prng.int rng 3 > 0 in
    let t1 = t0 +. 0.3 +. Prng.float rng 1.2 in
    if Prng.bool rng then begin
      let l = Prng.choose rng links in
      let a = l.T.a and b = l.T.b in
      Chaos.at harness ~time:t0 (Chaos.Link_down (a, b));
      Simnet.schedule sim ~at:t0 (fun () -> Simnet.set_link_up sim ~a ~b false);
      if heal then begin
        Chaos.at harness ~time:t1 (Chaos.Link_up (a, b));
        Simnet.schedule sim ~at:t1 (fun () -> Simnet.set_link_up sim ~a ~b true)
      end
    end
    else begin
      let sw = sws.(Prng.int rng n_sw) in
      Chaos.at harness ~time:t0 (Chaos.Switch_down sw);
      Simnet.schedule sim ~at:t0 (fun () -> Simnet.set_switch_up sim ~sw false);
      if heal then begin
        Chaos.at harness ~time:t1 (Chaos.Switch_up sw);
        Simnet.schedule sim ~at:t1 (fun () -> Simnet.set_switch_up sim ~sw true)
      end
    end
  done;
  (* traffic: departure instants computed once, handed to both stacks *)
  let sizes = [| 200; 600; 1000; 1400 |] in
  List.iter
    (fun (f, src, dst) ->
      let n_pkts = 3 + Prng.int rng 28 in
      let size = Prng.choose rng sizes in
      let ttl = 8 + Prng.int rng 56 in
      let gap_mean = 0.0008 +. Prng.float rng 0.004 in
      let t = ref (0.05 +. Prng.float rng 1.0) in
      for s = 0 to n_pkts - 1 do
        let at = !t in
        Engine.schedule engine ~at (fun () ->
            Net.send_from_host net (Packet.make_data ~size ~seq:s ~ttl ~src ~dst ~flow:f));
        Simnet.schedule sim ~at (fun () ->
            Simnet.send_from_host sim ~src ~dst ~flow:f ~size ~ttl);
        t := !t +. Prng.exponential rng ~mean:gap_mean
      done)
    flows;
  Engine.run engine ~until:12.0;
  Simnet.run sim ~until:12.0;
  (* compare: exact delivery instants per flow *)
  List.iter
    (fun (f, _src, _dst) ->
      let real =
        List.rev (try Hashtbl.find real_deliveries f with Not_found -> [])
      in
      let ref_ = Simnet.deliveries sim ~flow:f in
      if real <> ref_ then
        QCheck.Test.fail_reportf
          "flow %d: delivery instants diverge (real %d pkts, oracle %d pkts)@.real:   %s@.oracle: %s"
          f (List.length real) (List.length ref_)
          (String.concat " " (List.map (Printf.sprintf "%.9f") real))
          (String.concat " " (List.map (Printf.sprintf "%.9f") ref_)))
    flows;
  (* compare: drop accounting *)
  let real_drops = List.sort compare (Net.drops_by_reason net) in
  let ref_drops = Simnet.drops_by_reason sim in
  if real_drops <> ref_drops then
    QCheck.Test.fail_reportf "drop counts diverge@.real:   %s@.oracle: %s"
      (String.concat ", " (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) real_drops))
      (String.concat ", " (List.map (fun (r, n) -> Printf.sprintf "%s=%d" r n) ref_drops));
  (* compare: per-directed-link transmit counts *)
  Array.iter
    (fun (l : T.link) ->
      List.iter
        (fun (from_, to_) ->
          let real = Net.link_tx_packets net ~from_ ~to_ in
          let ref_ = Simnet.link_tx sim ~from_ ~to_ in
          if real <> ref_ then
            QCheck.Test.fail_reportf "link %d->%d: real tx %d, oracle tx %d" from_ to_ real
              ref_)
        [ (l.T.a, l.T.b); (l.T.b, l.T.a) ])
    links;
  true

let prop_delivery =
  QCheck.Test.make ~name:"random scenarios deliver identically on both stacks" ~count:200
    ~long_factor:5
    QCheck.(int_bound 1_000_000)
    delivery_scenario

(* ---------------- mode-protocol differential ---------------- *)

(* Scenario A — lossless network, commands spaced far beyond every dwell:
   the distributed flood must land exactly on the declarative fold. *)
let prop_modes_lossless =
  QCheck.Test.make ~name:"protocol matches the declarative mode fold (lossless)" ~count:40
    ~long_factor:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed:(seed + 5) in
      let topo, sws, _hosts = random_topology ~uniform:true rng in
      let n_sw = Array.length sws in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      let region_ttl = 1 + Prng.int rng n_sw in
      let p =
        Protocol.create net ~region_ttl ~min_dwell:0.3 ~flap_window:30. ~max_holddown:1.2
          ~anti_entropy:0.15 ~seed:7
          ~modes_for:(fun _ -> [ "reroute" ])
          ()
      in
      let attacks = [| Packet.Lfa; Packet.Volumetric |] in
      let n_cmds = 2 + Prng.int rng 5 in
      let cmds =
        List.init n_cmds (fun _ ->
            {
              Oracle.Modes.c_origin = sws.(Prng.int rng n_sw);
              c_attack = Prng.choose rng attacks;
              c_activate = Prng.bool rng;
            })
      in
      (* 3 s spacing: far beyond min_dwell (0.3 s) and the saturated
         holddown (1.2 s), so every command lands on a settled network *)
      List.iteri
        (fun i (c : _ Oracle.Modes.cmd) ->
          Engine.schedule engine
            ~at:(0.5 +. (3.0 *. float_of_int i))
            (fun () ->
              if c.Oracle.Modes.c_activate then Protocol.raise_alarm p ~sw:c.c_origin c.c_attack
              else Protocol.clear_alarm p ~sw:c.c_origin c.c_attack))
        cmds;
      Engine.run engine ~until:(0.5 +. (3.0 *. float_of_int n_cmds) +. 3.0);
      let dist ~origin ~sw = Oracle.Routing.switch_distance topo ~from_:origin ~to_:sw in
      let verdicts =
        Oracle.Modes.predict ~switches:(Array.to_list sws) ~dist ~region_ttl cmds
      in
      List.iter
        (fun (v : _ Oracle.Modes.verdict) ->
          let got = Protocol.epoch p v.Oracle.Modes.v_attack in
          if got <> v.v_epochs then
            QCheck.Test.fail_reportf "%s: protocol issued epoch %d, fold predicts %d"
              (Packet.attack_kind_to_string v.v_attack)
              got v.v_epochs;
          List.iter
            (fun (sw, (ep, act)) ->
              let got_ep = Protocol.known_epoch p ~sw ~attack:v.v_attack in
              let got_act = Protocol.attack_active p ~sw v.v_attack in
              if got_ep <> ep || got_act <> act then
                QCheck.Test.fail_reportf
                  "%s at switch %d: protocol (epoch %d, %b), fold predicts (epoch %d, %b)"
                  (Packet.attack_kind_to_string v.v_attack)
                  sw got_ep got_act ep act)
            v.v_states)
        verdicts;
      (* lossless: every advert must have been confirmed by every peer *)
      if Protocol.pending_adverts p <> 0 then
        QCheck.Test.fail_reportf "lossless run left %d adverts pending"
          (Protocol.pending_adverts p);
      true)

(* Scenario B — faults (cuts, crashes, an adversarial first-probe-eating
   link), all healed early; anti-entropy must converge the full region,
   and the chaos quiescence checker must come back clean. *)
let prop_modes_healing =
  QCheck.Test.make ~name:"protocol converges through healed faults" ~count:25 ~long_factor:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed:(seed + 9) in
      let topo, sws, _hosts = random_topology rng in
      let n_sw = Array.length sws in
      let engine = Engine.create () in
      let net = Net.create engine topo in
      let region_ttl = n_sw + 2 in
      let p =
        Protocol.create net ~region_ttl ~min_dwell:0.1 ~anti_entropy:0.1 ~seed:11
          ~modes_for:(fun _ -> [ "drop" ])
          ()
      in
      let harness = Chaos.create ~seed:(seed + 13) net in
      Chaos.watch harness;
      (* distinct attacks, one raise each, at random origins *)
      let kinds = [| Packet.Lfa; Packet.Volumetric; Packet.Pulsing |] in
      let n_attacks = 1 + Prng.int rng 3 in
      let origins =
        List.init n_attacks (fun i -> (kinds.(i), sws.(Prng.int rng n_sw)))
      in
      let is_origin sw = List.exists (fun (_, o) -> o = sw) origins in
      (* faults: active while the raises flood, all healed by t = 1.5 *)
      let sw_links =
        T.links topo
        |> List.filter (fun (l : T.link) ->
               (T.node topo l.T.a).T.kind = T.Switch && (T.node topo l.T.b).T.kind = T.Switch)
        |> Array.of_list
      in
      for _ = 1 to 1 + Prng.int rng 3 do
        let t0 = 0.2 +. Prng.float rng 0.6 in
        let t1 = 1.2 +. Prng.float rng 0.3 in
        match Prng.int rng 3 with
        | 0 ->
          let l = Prng.choose rng sw_links in
          Chaos.at harness ~time:t0 (Chaos.Link_down (l.T.a, l.T.b));
          Chaos.at harness ~time:t1 (Chaos.Link_up (l.T.a, l.T.b))
        | 1 ->
          let candidates = Array.to_list sws |> List.filter (fun sw -> not (is_origin sw)) in
          (match candidates with
          | [] ->
            let l = Prng.choose rng sw_links in
            Chaos.at harness ~time:t0 (Chaos.Link_down (l.T.a, l.T.b));
            Chaos.at harness ~time:t1 (Chaos.Link_up (l.T.a, l.T.b))
          | l ->
            let sw = List.nth l (Prng.int rng (List.length l)) in
            Chaos.at harness ~time:t0 (Chaos.Switch_down sw);
            Chaos.at harness ~time:t1 (Chaos.Switch_up sw))
        | _ ->
          let l = Prng.choose rng sw_links in
          Chaos.drop_first_probe_per_epoch harness ~a:l.T.a ~b:l.T.b
      done;
      List.iter
        (fun (attack, origin) ->
          Engine.schedule engine
            ~at:(0.4 +. Prng.float rng 0.6)
            (fun () -> Protocol.raise_alarm p ~sw:origin attack))
        origins;
      Engine.run engine ~until:9.5;
      (* convergence: the region covers the whole graph, so every switch
         must have applied epoch 1 of every attack *)
      List.iter
        (fun (attack, _origin) ->
          if Protocol.epoch p attack <> 1 then
            QCheck.Test.fail_reportf "%s: expected a single epoch, protocol issued %d"
              (Packet.attack_kind_to_string attack)
              (Protocol.epoch p attack);
          Array.iter
            (fun sw ->
              if Protocol.known_epoch p ~sw ~attack <> 1 then
                QCheck.Test.fail_reportf "%s: switch %d never converged (known epoch %d)"
                  (Packet.attack_kind_to_string attack)
                  sw
                  (Protocol.known_epoch p ~sw ~attack);
              if not (Protocol.attack_active p ~sw attack) then
                QCheck.Test.fail_reportf "%s: switch %d heard the epoch but is not active"
                  (Packet.attack_kind_to_string attack)
                  sw)
            sws)
        origins;
      match Chaos.check_quiescence harness ~protocol:p ~origins () with
      | [] -> true
      | violations ->
        QCheck.Test.fail_reportf "quiescence violations after healing:@.%s"
          (String.concat "\n" violations))

(* ---------------- sharded-engine differential ---------------- *)

module Psim = Ff_parallel.Psim
module Workload = Ff_parallel.Workload

(* The parallel-engine property: one CBR scenario on a random topology,
   run once on a plain sequential engine and then sharded 1, 2 and ~4
   ways — 2 shards on real domains (the determinism check doubles as the
   race detector: OCaml has no TSan, but a racy counter or heap cannot
   stay bit-identical across interleavings for long), the others through
   the cooperative fallback. Every configuration must reproduce the
   sequential run exactly: per-flow delivery counts and delivery-time
   checksums, total event count, sorted drop reasons, and per-directed-
   link transmit counters. *)
let sharded_scenario seed =
  let rng = Prng.create ~seed:(seed + 7) in
  let topo, sws, _hosts = random_topology rng in
  let n_sw = Array.length sws in
  let rate_pps = 400. +. (float_of_int (Prng.int rng 3) *. 300.) in
  let w = Workload.make ~rate_pps ~duration:0.3 topo in
  let ref_counters, ref_net = Workload.run_reference w in
  let ref_events = Engine.steps (Net.engine ref_net) in
  let ref_drops = Net.drops_by_reason ref_net in
  let links = T.links topo in
  let check label (r : Psim.result) (c : Workload.counters) =
    Array.iteri
      (fun slot n ->
        if c.Workload.delivered.(slot) <> n then
          QCheck.Test.fail_reportf "%s: flow slot %d delivered %d packets, sequential %d"
            label slot c.Workload.delivered.(slot) n;
        if c.Workload.time_sum.(slot) <> ref_counters.Workload.time_sum.(slot) then
          QCheck.Test.fail_reportf
            "%s: flow slot %d delivery-time checksum %.17g, sequential %.17g" label slot
            c.Workload.time_sum.(slot)
            ref_counters.Workload.time_sum.(slot))
      ref_counters.Workload.delivered;
    if r.Psim.events <> ref_events then
      QCheck.Test.fail_reportf "%s: %d events across shards, sequential %d" label
        r.Psim.events ref_events;
    let drops = Psim.drops_by_reason r in
    if drops <> ref_drops then
      QCheck.Test.fail_reportf "%s: drop counts diverge@.sharded:    %s@.sequential: %s"
        label
        (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) drops))
        (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) ref_drops));
    List.iter
      (fun (l : T.link) ->
        List.iter
          (fun (from_, to_) ->
            let sharded = Psim.link_tx_packets r ~from_ ~to_ in
            let ref_tx = Net.link_tx_packets ref_net ~from_ ~to_ in
            if sharded <> ref_tx then
              QCheck.Test.fail_reportf "%s: link %d->%d tx %d, sequential %d" label from_
                to_ sharded ref_tx)
          [ (l.T.a, l.T.b); (l.T.b, l.T.a) ])
      links
  in
  List.iter
    (fun (shards, mode, label) ->
      let c = Workload.fresh_counters w in
      let r =
        Psim.run ~mode ~shards ~topo ~setup:(Workload.setup w c)
          ~until:(Workload.until w) ()
      in
      check label r c)
    [
      (1, Psim.Sequential, "1 shard");
      (2, Psim.Domains, "2 shards (domains)");
      (min 4 n_sw, Psim.Sequential, "4 shards (cooperative)");
    ];
  true

let prop_sharded =
  QCheck.Test.make
    ~name:"sharded runs (1/2/4) match the sequential engine bit for bit" ~count:40
    ~long_factor:3
    QCheck.(int_bound 1_000_000)
    sharded_scenario

let () =
  Alcotest.run "ff_differential"
    [
      ("event order", [ Test_seed.to_alcotest prop_event_order ]);
      ("routing", [ Test_seed.to_alcotest prop_live_routing ]);
      ("delivery", [ Test_seed.to_alcotest prop_delivery ]);
      ( "modes",
        [ Test_seed.to_alcotest prop_modes_lossless; Test_seed.to_alcotest prop_modes_healing ]
      );
      ("sharded", [ Test_seed.to_alcotest prop_sharded ]);
    ]
