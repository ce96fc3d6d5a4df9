module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Sketch = Ff_dataplane.Sketch
module Topology = Ff_topology.Topology
module Transfer = Ff_scaling.Transfer
module B = Ff_boosters

type hardening = { h_seed : int }

let default_hardening = { h_seed = 0xF1E7 }

(* The evasion-resistance profile a [hardening] switches on, shared by
   every booster family: detector and SYN-guard thresholds jitter down by
   up to 0.17, heavy-hitter epochs and the source-marker sync cadence by
   25%, heavy-hitter thresholds by 25%; hash salts and cookie secrets
   rotate every 0.4 s, and an offending source stays marked for 12 s. *)
let threshold_jitter = 0.17
let epoch_jitter = 0.25
let hh_threshold_jitter = 0.25
let rotate_period = 0.4
let src_hold = 12.0

type config = {
  min_age : float;
  check_period : float;
  clear_hold : float;
  probe_interval : float;
  region_ttl : int;
  min_dwell : float;
  drop_rate_limit : float;
  drop_prob : float;
  hardening : hardening option;
}

let default_config =
  {
    min_age = 1.0;
    check_period = 0.05;
    clear_hold = 3.0;
    probe_interval = 0.05;
    region_ttl = 8;
    min_dwell = 1.0;
    drop_rate_limit = 400_000.;
    drop_prob = 0.1;
    hardening = None;
  }

(* The alarm pair every detector of a deployment reports through. *)
type sink = {
  on_alarm : B.Lfa_detector.alarm -> unit;
  on_clear : B.Lfa_detector.alarm -> unit;
}

let modes_for = function
  | Packet.Lfa ->
    [ B.Common.mode_classify; B.Common.mode_reroute; B.Common.mode_obfuscate;
      B.Common.mode_drop ]
  | Packet.Volumetric -> [ B.Common.mode_drop; B.Common.mode_hcf; B.Common.mode_grl ]
  | Packet.Pulsing -> [ B.Common.mode_reroute; B.Common.mode_drop ]
  | Packet.Recon -> [ B.Common.mode_obfuscate ]
  | Packet.Synflood -> [ B.Common.mode_syn_guard ]

(* The switches a mode probe flooded from [sw] reaches: [ttl] switch hops. *)
let region net ~ttl sw =
  let seen = Hashtbl.create 16 in
  Hashtbl.replace seen sw ();
  let frontier = ref [ sw ] in
  for _ = 1 to ttl do
    frontier :=
      List.concat_map
        (fun s ->
          List.filter
            (fun p ->
              let fresh = not (Hashtbl.mem seen p) in
              if fresh then Hashtbl.replace seen p ();
              fresh)
            (Net.neighbors_of net s))
        !frontier
  done;
  seen

let sink net config protocol =
  (* Several independent detectors can feed the same protocol alarm per
     attack class, but [Protocol.clear_alarm] floods a region-wide
     deactivation unconditionally while [raise_alarm] is a no-op when the
     attack is already active. Without reference counting, one source's
     clear switches mitigation off for everyone, and a still-alarmed
     detector never re-raises — the mode deadlocks off while the attack
     runs. Count raises per attack class and only forward the final
     clear. That clear reaches only [region_ttl] hops from where it is
     sent, so it also goes out from every switch that raised since the
     last one and whose region it would miss: a region activated around
     a distant detector is switched off too. *)
  let raised : (Packet.attack_kind, int * int list) Hashtbl.t = Hashtbl.create 4 in
  let find att = match Hashtbl.find_opt raised att with Some r -> r | None -> (0, []) in
  {
    on_alarm =
      (fun a ->
        let att = a.B.Lfa_detector.attack and sw = a.B.Lfa_detector.switch in
        let n, sites = find att in
        Hashtbl.replace raised att (n + 1, if List.mem sw sites then sites else sw :: sites);
        Ff_modes.Protocol.raise_alarm protocol ~sw att);
    on_clear =
      (fun a ->
        let att = a.B.Lfa_detector.attack and sw = a.B.Lfa_detector.switch in
        let n, sites = find att in
        if n > 1 then Hashtbl.replace raised att (n - 1, sites)
        else begin
          Hashtbl.remove raised att;
          (* a site whose region the clears sent so far already cover
             needs no clear of its own; the clearing switch goes last,
             with the freshest epoch *)
          let covered = region net ~ttl:config.region_ttl sw in
          let uncovered s =
            let r = region net ~ttl:config.region_ttl s in
            let fresh = Hashtbl.fold (fun p () acc -> acc || not (Hashtbl.mem covered p)) r false in
            if fresh then Hashtbl.iter (fun p () -> Hashtbl.replace covered p ()) r;
            fresh
          in
          List.iter
            (fun s -> Ff_modes.Protocol.clear_alarm protocol ~sw:s att)
            (List.filter uncovered (List.rev sites));
          Ff_modes.Protocol.clear_alarm protocol ~sw att
        end);
  }

(* Hardening is resolved once per booster family below; each unhardened
   tuple switches the family's hardening off. *)

(* Key-spreading guard: a windowed Bloom of (src, flow) counts each
   source's distinct flows. Past 6 in a 2 s window the source raises a
   [Volumetric] alarm and is marked suspicious, so an attacker must find
   hash collisions to hide volume instead of spraying fresh keys. *)
let install_fanout_guard net config sink ~sw =
  let module Bloom = Ff_dataplane.Bloom in
  let max_flows = 6 and window = 2.0 in
  let seed = match config.hardening with None -> 0xFA6 | Some h -> h.h_seed in
  let bloom = Bloom.create ~seed ~bits:4096 ~hashes:3 () in
  let counts : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let flows src = Option.value ~default:0 (Hashtbl.find_opt counts src) in
  let alarm = { B.Lfa_detector.switch = sw; attack = Packet.Volumetric } in
  Engine.every (Net.engine net) ~start:window ~period:window (fun () ->
      Bloom.reset bloom;
      Hashtbl.reset counts);
  let process _ctx pkt =
    (match pkt.Packet.payload with
    | Packet.Data ->
      let src = pkt.Packet.src in
      let k = Ff_dataplane.Hash.mix ~seed ~lane:src pkt.Packet.flow in
      if not (Bloom.mem bloom k) then begin
        Bloom.add bloom k;
        Hashtbl.replace counts src (flows src + 1);
        (* the first flow over the limit flags the source *)
        if flows src = max_flows + 1 then begin
          sink.on_alarm alarm;
          Engine.after (Net.engine net) ~delay:window (fun () -> sink.on_clear alarm)
        end
      end;
      if flows src > max_flows then pkt.Packet.suspicious <- true
    | _ -> ());
    Net.Continue
  in
  Net.add_stage net ~sw { Net.stage_name = "fanout-guard"; process }

(* The virtual topology is the default-mode forwarding as it stands when
   a pair is first queried. FastFlex's rerouting never rewrites the tables
   (it overrides forwarding per packet), so walking the tables always
   reconstructs the pre-attack path; the topology's shortest path covers
   pairs the tables cannot reach. *)
let install_obfuscator net =
  let topo = Net.topology net in
  let vcache : (int * int, int list option) Hashtbl.t = Hashtbl.create 64 in
  let virtual_path ~src ~dst =
    match Hashtbl.find_opt vcache (src, dst) with
    | Some p -> p
    | None ->
      let p =
        match Net.current_path net ~src ~dst with
        | Some _ as p -> p
        | None -> Topology.shortest_path topo ~src ~dst
      in
      Hashtbl.replace vcache (src, dst) p;
      p
  in
  B.Obfuscator.install net ~virtual_path

(* The [src] switch accumulates per-source suspicious bytes in a sketch;
   once an alarm fires and classification has had time to populate it,
   the sketch is shipped in-band to [dst] (paper 3.4) so mitigation there
   starts from the upstream evidence instead of a cold table. Returns the
   sink that schedules the shipment, and the accumulating stage. *)
let sketch_handoff net sink (src, dst) =
  let suspect = Sketch.create ~rows:3 ~cols:128 () in
  let into = Sketch.create ~rows:3 ~cols:128 () in
  let shipped = ref false in
  let ship () =
    if (not !shipped) && Sketch.total suspect > 0. then begin
      shipped := true;
      ignore (Transfer.send_sketch net ~src_sw:src ~dst_sw:dst ~sketch:suspect ~into)
    end
  in
  let on_alarm a =
    sink.on_alarm a;
    (* let the classify mode mark traffic for ~2 s before snapshotting *)
    Engine.after (Net.engine net) ~delay:2.0 ship
  in
  let process _ctx pkt =
    (match pkt.Packet.payload with
    | Packet.Data when pkt.Packet.suspicious ->
      Sketch.add suspect pkt.Packet.src (float_of_int pkt.Packet.size)
    | _ -> ());
    Net.Continue
  in
  ({ sink with on_alarm }, Some (src, { Net.stage_name = "suspect-sketch"; process }))

(* Detectors exchange their suspicious-source sets through sync probes
   (paper 3.3: detectors "exchange information with each other"), so a
   switch upstream of the congestion — where the path diversity is — can
   mark and police flows its own local evidence could never convict.
   With several detectors, each switch marks the sources any detector
   advertised as suspicious. Per-packet equivalent of
   [Sync.global_value ... > 0.]: the local view's entries are exactly this
   switch's suspicious sources (value 1.), so the local half collapses to
   a set-membership test on the detector instead of materializing the
   whole (host, 1.) list on every packet; remote advertisements are all
   >= 0, so the sum is positive iff either half is. *)
let install_source_markers net config detectors =
  let period_jitter, seed =
    match config.hardening with None -> (0., 0x5C11) | Some h -> (epoch_jitter, h.h_seed)
  in
  let source_sync =
    Ff_modes.Sync.create net ~participants:(List.map fst detectors)
      ~period:(4. *. config.check_period) ~period_jitter ~seed
      ~local_view:(fun ~sw ->
        match List.assoc_opt sw detectors with
        | None -> []
        | Some det ->
          List.filter_map
            (fun host ->
              if B.Lfa_detector.is_suspicious_source det host then Some (host, 1.) else None)
            (Net.host_ids net))
      ~probe_class:9 ()
  in
  let classify_key = B.Common.mode_key B.Common.mode_classify in
  List.iter
    (fun (sw, det) ->
      let marked_somewhere src =
        B.Lfa_detector.is_suspicious_source det src
        || Ff_modes.Sync.remote_contribution source_sync ~sw ~key:src > 0.
      in
      Net.add_stage net ~sw
        {
          Net.stage_name = "suspicious-source-marker";
          process =
            (fun ctx pkt ->
              (match pkt.Packet.payload with
              | Packet.Data | Packet.Traceroute_probe _ ->
                if
                  (not pkt.Packet.suspicious)
                  && B.Common.mode_on ctx.Net.sw classify_key
                  && marked_somewhere pkt.Packet.src
                then pkt.Packet.suspicious <- true
              | _ -> ());
              Net.Continue);
        })
    detectors

type defense =
  | Lfa of {
      sites : (int * (int * int) list) list;
      protect : int list;
      handoff : (int * int) option;
    }
  | Volumetric of {
      sw : int;
      threshold_bps : float;
      by_source : bool;
      pipe : (int * int) option;
      fanout_guard : bool;
    }
  | Syn_guard of { sw : int; protect : int; tracker_capacity : int; syn_threshold_pps : float }
  | Network_wide_hh of { ingresses : int list }
  | Global_rate_limit of {
      participants : int list;
      tenants : (int * int) list;
      limits : (int * float) list;
    }

type deployment = {
  protocol : Ff_modes.Protocol.t;
  detectors : (int * B.Lfa_detector.t) list;
  droppers : (int * B.Dropper.t) list;
  reroute : B.Reroute.t option;
  obfuscator : B.Obfuscator.t option;
  heavy_hitters : B.Heavy_hitter.t list;
  hop_count_filters : B.Hop_count_filter.t list;
  syn_guards : B.Syn_guard.t list;
  network_hhs : B.Network_wide_hh.t list;
  rate_limits : B.Global_rate_limit.t list;
}

let pervasive topo =
  let switches = List.map (fun (n : Topology.node) -> n.Topology.id) (Topology.switches topo) in
  List.filter_map
    (fun sw ->
      match List.filter (fun (peer, _) -> List.mem peer switches) (Topology.neighbors topo sw) with
      | [] -> None
      | peers -> Some (sw, List.map (fun (peer, _) -> (sw, peer)) peers))
    switches

let install_dropper net config sw =
  (sw, B.Dropper.install net ~sw ~rate_limit:config.drop_rate_limit ~drop_prob:config.drop_prob)

(* Each stack installs in a fixed order, which is also the stage order at
   every switch it touches. *)
let install_stack net config sink d = function
  | Lfa { sites; protect; handoff } ->
    if d.reroute <> None then invalid_arg "Orchestrator.deploy: more than one Lfa stack";
    let sink, sketch_stage =
      Option.fold ~none:(sink, None) ~some:(sketch_handoff net sink) handoff
    in
    let threshold_jitter, seed =
      match config.hardening with
      | None -> (0., 0x1FA_D)
      | Some h -> (threshold_jitter, h.h_seed)
    in
    let detectors =
      List.map
        (fun (sw, watched) ->
          ( sw,
            B.Lfa_detector.install net ~sw ~watched ~check_period:config.check_period
              ~threshold_jitter ~seed ~min_age:config.min_age ~clear_hold:config.clear_hold
              ~on_alarm:sink.on_alarm ~on_clear:sink.on_clear ))
        sites
    in
    if List.length detectors > 1 then install_source_markers net config detectors;
    (* after the detector's classifier, so marks are visible; before the
       dropper, so policed packets still count as evidence *)
    Option.iter (fun (sw, stage) -> Net.add_stage net ~sw stage) sketch_stage;
    (* dropping happens where classification happens, before rerouting
       can steer the packet away *)
    let droppers = List.map (fun (sw, _) -> install_dropper net config sw) sites in
    let reroute = B.Reroute.install net ~roots:protect ~probe_interval:config.probe_interval () in
    let obfuscator = install_obfuscator net in
    { d with detectors = d.detectors @ detectors; droppers = d.droppers @ droppers;
      reroute = Some reroute; obfuscator = Some obfuscator }
  | Volumetric { sw; threshold_bps; by_source; pipe; fanout_guard } ->
    let epoch_jitter, threshold_jitter, rotate_period, src_hold, seed =
      match config.hardening with
      | None -> (0., 0., 0., 0., 0x44_11)
      | Some h -> (epoch_jitter, hh_threshold_jitter, rotate_period, src_hold, h.h_seed)
    in
    let stages, slots = Option.value pipe ~default:(4, 64) in
    let hh =
      B.Heavy_hitter.install net ~sw ~stages ~slots ~threshold_bps ~by_source ~epoch_jitter
        ~threshold_jitter ~rotate_period ~src_hold ~seed ~on_alarm:sink.on_alarm
        ~on_clear:sink.on_clear ()
    in
    (* marking, and the fanout guard's marks, must precede policing *)
    Net.add_stage net ~sw (B.Heavy_hitter.mark_offenders_stage hh);
    if fanout_guard then install_fanout_guard net config sink ~sw;
    let dropper = install_dropper net config sw in
    let hcf = B.Hop_count_filter.install net ~sw in
    { d with heavy_hitters = d.heavy_hitters @ [ hh ]; droppers = d.droppers @ [ dropper ];
      hop_count_filters = d.hop_count_filters @ [ hcf ] }
  | Syn_guard { sw; protect; tracker_capacity; syn_threshold_pps } ->
    let threshold_jitter, rotate_period, seed =
      match config.hardening with
      | None -> (0., 0., 0x5EED)
      | Some h -> (threshold_jitter, rotate_period, h.h_seed)
    in
    let guard =
      B.Syn_guard.install net ~sw ~protect ~tracker_capacity ~syn_threshold_pps
        ~clear_hold:config.clear_hold ~threshold_jitter ~rotate_period ~seed
        ~on_alarm:sink.on_alarm ~on_clear:sink.on_clear
    in
    { d with syn_guards = d.syn_guards @ [ guard ] }
  | Network_wide_hh { ingresses } ->
    (* numbered within the deployment, so stage names and sync probe
       classes do not depend on earlier runs in the process *)
    let nw =
      B.Network_wide_hh.install net ~id:(List.length d.network_hhs + 1) ~ingresses
        ~on_alarm:sink.on_alarm ~on_clear:sink.on_clear
    in
    { d with network_hhs = d.network_hhs @ [ nw ] }
  | Global_rate_limit { participants; tenants; limits } ->
    let grl = B.Global_rate_limit.install net ~participants ~tenants ~limits in
    { d with rate_limits = d.rate_limits @ [ grl ] }

let deploy net ?(config = default_config) defenses =
  let protocol =
    Ff_modes.Protocol.create net ~region_ttl:config.region_ttl ~min_dwell:config.min_dwell
      ~modes_for ()
  in
  let sink = sink net config protocol in
  List.fold_left (install_stack net config sink)
    { protocol; detectors = []; droppers = []; reroute = None; obfuscator = None;
      heavy_hitters = []; hop_count_filters = []; syn_guards = []; network_hhs = [];
      rate_limits = [] }
    defenses

type synguard = {
  sg_protocol : Ff_modes.Protocol.t;
  sg_guard : B.Syn_guard.t;
}

let deploy_synguard net ~sw ~protect ?config () =
  let d =
    deploy net ?config
      [ Syn_guard { sw; protect; tracker_capacity = 4096; syn_threshold_pps = 200. } ]
  in
  { sg_protocol = d.protocol; sg_guard = List.hd d.syn_guards }

type wide = {
  w_protocol : Ff_modes.Protocol.t;
  w_detectors : (int * B.Lfa_detector.t) list;
  w_reroute : B.Reroute.t;
  w_obfuscator : B.Obfuscator.t;
  w_droppers : (int * B.Dropper.t) list;
}

let deploy_wide net ~protect ?config () =
  let sites = pervasive (Net.topology net) in
  let d = deploy net ?config [ Lfa { sites; protect; handoff = None } ] in
  { w_protocol = d.protocol; w_detectors = d.detectors; w_reroute = Option.get d.reroute;
    w_obfuscator = Option.get d.obfuscator; w_droppers = d.droppers }
