module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Sketch = Ff_dataplane.Sketch
module Topology = Ff_topology.Topology
module Transfer = Ff_scaling.Transfer
module B = Ff_boosters

type hardening = {
  h_seed : int;
  h_threshold_jitter : float;
  h_jitter_period : float;
  h_epoch_jitter : float;
  h_hh_threshold_jitter : float;
  h_rotate_period : float;
  h_src_hold : float;
}

let default_hardening =
  {
    h_seed = 0xF1E7;
    h_threshold_jitter = 0.17;
    h_jitter_period = 2.0;
    h_epoch_jitter = 0.25;
    h_hh_threshold_jitter = 0.25;
    h_rotate_period = 0.4;
    h_src_hold = 12.0;
  }

type config = {
  high_threshold : float;
  suspicious_rate : float;
  min_age : float;
  dst_flows_min : int;
  check_period : float;
  clear_hold : float;
  probe_interval : float;
  region_ttl : int;
  min_dwell : float;
  anti_entropy : float;
  drop_rate_limit : float;
  drop_prob : float;
  hardening : hardening option;
}

let default_config =
  {
    high_threshold = 0.85;
    suspicious_rate = 1_500_000.;
    min_age = 1.0;
    dst_flows_min = 8;
    check_period = 0.05;
    clear_hold = 3.0;
    probe_interval = 0.05;
    region_ttl = 8;
    min_dwell = 1.0;
    anti_entropy = 0.5;
    drop_rate_limit = 400_000.;
    drop_prob = 0.1;
    hardening = None;
  }

type sink = {
  s_protocol : Ff_modes.Protocol.t;
  on_alarm : B.Lfa_detector.alarm -> unit;
  on_clear : B.Lfa_detector.alarm -> unit;
}

let modes_for = function
  | Packet.Lfa ->
    [ B.Common.mode_classify; B.Common.mode_reroute; B.Common.mode_obfuscate;
      B.Common.mode_drop ]
  | Packet.Volumetric -> [ B.Common.mode_drop; B.Common.mode_hcf ]
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

let sink net config =
  let protocol =
    Ff_modes.Protocol.create net ~region_ttl:config.region_ttl ~min_dwell:config.min_dwell
      ~anti_entropy:config.anti_entropy ~modes_for ()
  in
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
    s_protocol = protocol;
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

(* Hardening is resolved once per booster family below. Each unhardened
   tuple matches the booster's install defaults, so a [None] config stays
   bit-identical to the pre-hardening deploys. *)

let install_detector net config sink ~sw ~watched =
  let threshold_jitter, jitter_period, seed =
    match config.hardening with
    | None -> (0., 2.0, 0x1FA_D)
    | Some h -> (h.h_threshold_jitter, h.h_jitter_period, h.h_seed)
  in
  B.Lfa_detector.install net ~sw ~watched ~check_period:config.check_period
    ~high_threshold:config.high_threshold ~threshold_jitter ~jitter_period ~seed
    ~suspicious_rate:config.suspicious_rate ~min_age:config.min_age
    ~clear_hold:config.clear_hold ~dst_flows_min:config.dst_flows_min
    ~on_alarm:sink.on_alarm ~on_clear:sink.on_clear ()

let install_heavy_hitter net config sink ~sw ~threshold_bps ?stages ?slots ?key_of () =
  let epoch_jitter, threshold_jitter, rotate_period, src_hold, seed =
    match config.hardening with
    | None -> (0., 0., 0., 0., 0x44_11)
    | Some h ->
      (h.h_epoch_jitter, h.h_hh_threshold_jitter, h.h_rotate_period, h.h_src_hold, h.h_seed)
  in
  let hh =
    B.Heavy_hitter.install net ~sw ?stages ?slots ?key_of ~threshold_bps ~epoch_jitter
      ~threshold_jitter ~rotate_period ~src_hold ~seed ~on_alarm:sink.on_alarm
      ~on_clear:sink.on_clear ()
  in
  (* marking must precede policing in the stage pipeline *)
  Net.add_stage net ~sw (B.Heavy_hitter.mark_offenders_stage hh);
  hh

(* Detectors exchange their suspicious-source sets through sync probes
   (paper 3.3: detectors "exchange information with each other"), so a
   switch upstream of the congestion — where the path diversity is — can
   mark and police flows its own local evidence could never convict. *)
let source_sync net config detectors =
  let period_jitter, seed =
    match config.hardening with
    | None -> (0., 0x5C11)
    | Some h -> (h.h_epoch_jitter, h.h_seed)
  in
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

(* The virtual topology is the default-mode forwarding as it stands at
   deploy time. FastFlex's rerouting never rewrites the tables (it
   overrides forwarding per packet), so walking the tables always
   reconstructs the pre-attack path; [fallback] covers pairs the tables
   cannot reach. *)
let install_obfuscator net ~fallback =
  let vcache : (int * int, int list option) Hashtbl.t = Hashtbl.create 64 in
  let virtual_path ~src ~dst =
    match Hashtbl.find_opt vcache (src, dst) with
    | Some p -> p
    | None ->
      let p =
        match Net.current_path net ~src ~dst with
        | Some _ as p -> p
        | None -> fallback ~src ~dst
      in
      Hashtbl.replace vcache (src, dst) p;
      p
  in
  B.Obfuscator.install net ~virtual_path ()

type t = {
  protocol : Ff_modes.Protocol.t;
  detector : B.Lfa_detector.t;
  reroute : B.Reroute.t;
  obfuscator : B.Obfuscator.t;
  droppers : B.Dropper.t list;
  suspect_sketch : Sketch.t;  (** per-source suspicious bytes, kept at [agg] *)
  victim_sketch : Sketch.t;  (** [victim_agg]'s copy, filled by state transfer *)
  mutable state_transfer : Transfer.t option;
}

let deploy net ~landmarks ~default_plan ?(config = default_config) () =
  let lm : Topology.Fig2.landmarks = landmarks in
  let sink = sink net config in
  let watched =
    List.map
      (fun (l : Topology.link) ->
        if l.Topology.a = lm.Topology.Fig2.agg then (l.Topology.a, l.Topology.b)
        else (l.Topology.b, l.Topology.a))
      lm.Topology.Fig2.critical
  in
  (* The agg switch accumulates per-source suspicious bytes in a sketch;
     once the alarm fires and classification has had time to populate it,
     the sketch is shipped in-band to the victim-side aggregation switch
     (paper 3.4) so mitigation there starts from the upstream evidence
     instead of a cold table. *)
  let suspect_sketch = Sketch.create ~rows:3 ~cols:128 () in
  let victim_sketch = Sketch.create ~rows:3 ~cols:128 () in
  let self = ref None in
  let ship_sketch () =
    match !self with
    | Some t when t.state_transfer = None && Sketch.total suspect_sketch > 0. ->
      t.state_transfer <-
        Some
          (Transfer.send_sketch net ~src_sw:lm.Topology.Fig2.agg
             ~dst_sw:lm.Topology.Fig2.victim_agg ~sketch:suspect_sketch
             ~into:victim_sketch ())
    | _ -> ()
  in
  let detector =
    install_detector net config
      {
        sink with
        on_alarm =
          (fun a ->
            sink.on_alarm a;
            (* let the classify mode mark traffic for ~2 s before snapshotting *)
            Engine.after (Net.engine net) ~delay:2.0 ship_sketch);
      }
      ~sw:lm.Topology.Fig2.agg ~watched
  in
  (* after the detector's classifier, so marks are visible; before the
     dropper, so policed packets still count as evidence *)
  Net.add_stage net ~sw:lm.Topology.Fig2.agg
    {
      Net.stage_name = "suspect-sketch";
      process =
        (fun _ctx pkt ->
          (match pkt.Packet.payload with
          | Packet.Data when pkt.Packet.suspicious ->
            Sketch.add suspect_sketch pkt.Packet.src (float_of_int pkt.Packet.size)
          | _ -> ());
          Net.Continue);
    };
  (* dropping happens where classification happens, before rerouting can
     steer the packet away *)
  let droppers =
    [ B.Dropper.install net ~sw:lm.Topology.Fig2.agg ~rate_limit:config.drop_rate_limit
        ~drop_prob:config.drop_prob () ]
  in
  let reroute =
    B.Reroute.install net
      ~roots:(lm.Topology.Fig2.victim :: lm.Topology.Fig2.decoys)
      ~probe_interval:config.probe_interval ()
  in
  let obfuscator =
    install_obfuscator net ~fallback:(fun ~src ~dst ->
        Ff_te.Solver.plan_path default_plan ~src ~dst)
  in
  let t =
    { protocol = sink.s_protocol; detector; reroute; obfuscator; droppers; suspect_sketch;
      victim_sketch; state_transfer = None }
  in
  self := Some t;
  t

let suspect_sketch t = t.suspect_sketch
let victim_sketch t = t.victim_sketch
let state_transfer t = t.state_transfer

let dropped_packets t =
  List.fold_left (fun acc d -> acc + B.Dropper.dropped d) 0 t.droppers

let mode_log t = Ff_modes.Protocol.log t.protocol

type volumetric = {
  v_protocol : Ff_modes.Protocol.t;
  v_hh : B.Heavy_hitter.t;
  v_dropper : B.Dropper.t;
  v_hcf : B.Hop_count_filter.t;
}

let deploy_volumetric net ~sw ?(config = default_config) ?(threshold_bps = 4_000_000.) () =
  let sink = sink net config in
  let hh = install_heavy_hitter net config sink ~sw ~threshold_bps () in
  let dropper =
    B.Dropper.install net ~sw ~rate_limit:config.drop_rate_limit ~drop_prob:config.drop_prob ()
  in
  let hcf = B.Hop_count_filter.install net ~sw () in
  { v_protocol = sink.s_protocol; v_hh = hh; v_dropper = dropper; v_hcf = hcf }

type synguard = {
  sg_protocol : Ff_modes.Protocol.t;
  sg_guard : B.Syn_guard.t;
}

let deploy_synguard net ~sw ~protect ?(config = default_config)
    ?(tracker_capacity = 4096) ?(syn_threshold_pps = 200.) () =
  let sink = sink net config in
  let threshold_jitter, rotate_period, seed =
    match config.hardening with
    | None -> (0., 0., 0x5EED)
    | Some h -> (h.h_threshold_jitter, h.h_rotate_period, h.h_seed)
  in
  let guard =
    B.Syn_guard.install net ~sw ~protect ~tracker_capacity ~syn_threshold_pps
      ~clear_hold:config.clear_hold ~threshold_jitter ~rotate_period ~seed
      ~on_alarm:sink.on_alarm ~on_clear:sink.on_clear ()
  in
  { sg_protocol = sink.s_protocol; sg_guard = guard }

type wide = {
  w_protocol : Ff_modes.Protocol.t;
  w_detectors : (int * B.Lfa_detector.t) list;
  w_reroute : B.Reroute.t;
  w_obfuscator : B.Obfuscator.t;
  w_droppers : (int * B.Dropper.t) list;
}

let deploy_wide net ~protect ?(config = default_config) ?on_mode () =
  let topo = Net.topology net in
  let sink = sink net config in
  (match on_mode with
  | Some f -> Ff_modes.Protocol.on_transition sink.s_protocol f
  | None -> ());
  let detectors =
    List.filter_map
      (fun sw ->
        match Net.neighbors_of net sw with
        | [] -> None
        | peers ->
          let watched = List.map (fun peer -> (sw, peer)) peers in
          Some (sw, install_detector net config sink ~sw ~watched))
      (Net.switch_ids net)
  in
  let detector_switches = List.map fst detectors in
  let source_sync = source_sync net config detectors in
  let classify_key = B.Common.mode_key B.Common.mode_classify in
  (* Per-packet equivalent of [Sync.global_value ... > 0.]: the local view's
     entries are exactly this switch's suspicious sources (value 1.), so the
     local half collapses to a set-membership test on the detector instead
     of materializing the whole (host, 1.) list on every packet; remote
     advertisements are all >= 0, so the sum is positive iff either half is. *)
  let marker_stage sw =
    let det = List.assoc_opt sw detectors in
    let marked_somewhere src =
      (match det with
      | Some d -> B.Lfa_detector.is_suspicious_source d src
      | None -> false)
      || Ff_modes.Sync.remote_contribution source_sync ~sw ~key:src > 0.
    in
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
    }
  in
  List.iter (fun sw -> Net.add_stage net ~sw (marker_stage sw)) detector_switches;
  let droppers =
    List.map
      (fun sw ->
        (sw, B.Dropper.install net ~sw ~rate_limit:config.drop_rate_limit
               ~drop_prob:config.drop_prob ()))
      detector_switches
  in
  let reroute = B.Reroute.install net ~roots:protect ~probe_interval:config.probe_interval () in
  let obfuscator =
    install_obfuscator net ~fallback:(fun ~src ~dst -> Topology.shortest_path topo ~src ~dst)
  in
  { w_protocol = sink.s_protocol; w_detectors = detectors; w_reroute = reroute;
    w_obfuscator = obfuscator; w_droppers = droppers }

let wide_mode_log w = Ff_modes.Protocol.log w.w_protocol

let wide_marked w =
  List.fold_left (fun acc (_, d) -> acc + B.Lfa_detector.marks d) 0 w.w_detectors

let wide_dropped w =
  List.fold_left (fun acc (_, d) -> acc + B.Dropper.dropped d) 0 w.w_droppers
