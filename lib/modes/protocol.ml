module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Prng = Ff_util.Prng

type attack = Packet.attack_kind

(* Per-(switch, attack) anti-entropy state: the latest (epoch, activate)
   this switch is responsible for spreading, which neighbors have not yet
   confirmed it, and the backoff timer driving re-advertisement. A probe
   flood is fire-and-forget, so a single lost probe used to strand a
   switch in the wrong mode until the next epoch; the advert closes that
   hole by re-sending until every neighbor acks. *)
type advert = {
  mutable ad_epoch : int;
  mutable ad_activate : bool;
  mutable ad_ttl : int; (* region_ttl carried by this switch's re-sends *)
  mutable pending : int list; (* neighbors not yet confirmed at ad_epoch *)
  mutable interval : float; (* current backoff interval *)
  mutable due : float; (* absolute time of the next re-advertisement *)
}

type sw_state = {
  (* per attack kind *)
  seen_epoch : (attack, int) Hashtbl.t;
  active_attacks : (attack, float) Hashtbl.t; (* activation time *)
  pending_clear : (attack, int) Hashtbl.t; (* epoch of a clear waiting for dwell *)
  adverts : (attack, advert) Hashtbl.t;
}

type t = {
  net : Net.t;
  region_ttl : int;
  min_dwell : float;
  flap_window : float;
  max_holddown : float;
  anti_entropy : float; (* base readvert period; <= 0 disables *)
  rng : Prng.t;
  modes_for : attack -> string list;
  epochs : (attack, int) Hashtbl.t;
  states : (int, sw_state) Hashtbl.t;
  mutable history : (float * int * attack * bool) list;
  mutable observers : (sw:int -> attack:attack -> active:bool -> unit) list;
      (* notified on every applied transition — the hybrid fluid tier
         subscribes to track the hot (mode-changing) region *)
  mutable transitions : int;
  mutable raises : int;
  mutable readverts : int;
  mutable repairs : int;
  flap_times : (attack, float list) Hashtbl.t; (* recent activation times *)
  max_flap_entries : int;
}

let mode_var name = "mode:" ^ name

let state t sw =
  match Hashtbl.find_opt t.states sw with
  | Some s -> s
  | None ->
    let s =
      {
        seen_epoch = Hashtbl.create 4;
        active_attacks = Hashtbl.create 4;
        pending_clear = Hashtbl.create 4;
        adverts = Hashtbl.create 4;
      }
    in
    Hashtbl.replace t.states sw s;
    s

let refresh_vars t sw =
  let st = state t sw in
  let sw_rec = Net.switch t.net sw in
  let vars = sw_rec.Net.vars in
  (* recompute every mode var from the set of active attacks; the interned
     flag bit is the copy per-packet booster stages actually read *)
  let write m on =
    Hashtbl.replace vars (mode_var m) (if on then 1. else 0.);
    Net.set_flag sw_rec ~mask:(Net.flag_mask (mode_var m)) on
  in
  List.iter
    (fun attack -> List.iter (fun m -> write m false) (t.modes_for attack))
    Packet.all_attack_kinds;
  Hashtbl.iter
    (fun attack _ -> List.iter (fun m -> write m true) (t.modes_for attack))
    st.active_attacks

let on_transition t f = t.observers <- f :: t.observers

let record t sw attack activated =
  t.history <- (Net.now t.net, sw, attack, activated) :: t.history;
  List.iter (fun f -> f ~sw ~attack ~active:activated) t.observers;
  t.transitions <- t.transitions + 1;
  Net.obs_emit t.net
    (Ff_obs.Event.Mode_transition
       { sw; attack = Packet.attack_kind_to_string attack; activated });
  match Net.metrics t.net with
  | None -> ()
  | Some m ->
    Ff_obs.Metrics.Counter.incr
      (Ff_obs.Metrics.counter m ~scope:(Ff_obs.Metrics.Switch sw) "mode_transitions")

let current_dwell t attack =
  let now = Net.now t.net in
  let recent =
    List.filter
      (fun at -> now -. at <= t.flap_window)
      (try Hashtbl.find t.flap_times attack with Not_found -> [])
  in
  let flaps = List.length recent in
  if flaps <= 1 then t.min_dwell
  else Float.min t.max_holddown (t.min_dwell *. (2. ** float_of_int (flaps - 1)))

(* Prune on insert: age out entries past the window AND hard-cap the list
   at the depth where the exponential holddown saturates at [max_holddown]
   — beyond that extra entries change nothing, so sustained flapping (even
   many activations within one window) cannot grow the list without
   bound. *)
let note_activation t attack =
  let now = Net.now t.net in
  let previous = try Hashtbl.find t.flap_times attack with Not_found -> [] in
  let recent =
    List.filteri
      (fun i at -> i < t.max_flap_entries - 1 && now -. at <= t.flap_window)
      previous
  in
  Hashtbl.replace t.flap_times attack (now :: recent)

let flap_entries t attack =
  List.length (try Hashtbl.find t.flap_times attack with Not_found -> [])

(* ---------------- anti-entropy bookkeeping ---------------- *)

let known_epoch t ~sw ~attack =
  let st = state t sw in
  let seen = match Hashtbl.find_opt st.seen_epoch attack with Some e -> e | None -> 0 in
  match Hashtbl.find_opt st.adverts attack with
  | Some ad when ad.ad_epoch > seen -> ad.ad_epoch
  | _ -> seen

(* Re-advertisements fire [0.75,1.25]x the nominal delay so neighbors that
   learned an epoch in the same flood don't re-send in lockstep. *)
let jittered t base = base *. (0.75 +. (0.5 *. Prng.float t.rng 1.))

(* The switch now knows (epoch, activate): start (or refresh) the advert
   responsible for keeping its neighbors at least this fresh. [ttl] is the
   region budget this switch's own re-sends may spend — 0 at the region
   boundary, where re-advertising would grow the region by one hop per
   round. [confirmed] neighbors (the probe's sender) already have it. *)
let note_known t ~sw ~attack ~epoch ~activate ~ttl ~confirmed =
  if t.anti_entropy > 0. then begin
    let st = state t sw in
    let ad =
      match Hashtbl.find_opt st.adverts attack with
      | Some ad -> ad
      | None ->
        let ad =
          { ad_epoch = 0; ad_activate = false; ad_ttl = 0; pending = [];
            interval = t.anti_entropy; due = 0. }
        in
        Hashtbl.replace st.adverts attack ad;
        ad
    in
    if epoch > ad.ad_epoch then begin
      ad.ad_epoch <- epoch;
      ad.ad_activate <- activate;
      ad.ad_ttl <- ttl;
      ad.pending <-
        (if ttl > 0 then
           List.filter (fun p -> not (List.mem p confirmed)) (Net.neighbors_of t.net sw)
         else []);
      ad.interval <- t.anti_entropy;
      ad.due <- Net.now t.net +. jittered t t.anti_entropy
    end
    else if epoch = ad.ad_epoch && confirmed <> [] then
      ad.pending <- List.filter (fun p -> not (List.mem p confirmed)) ad.pending
  end

let confirm t ~sw ~attack ~epoch ~neighbor =
  let st = state t sw in
  match Hashtbl.find_opt st.adverts attack with
  | Some ad when ad.ad_epoch = epoch ->
    if List.mem neighbor ad.pending then
      ad.pending <- List.filter (fun p -> p <> neighbor) ad.pending
  | _ -> ()

let probe_packet ~sw ~attack ~epoch ~activate ~ttl =
  Packet.make_control ~src:sw ~dst:sw ~flow:0
    ~payload:(Packet.Mode_probe { attack; epoch; origin = sw; activate; region_ttl = ttl })

(* An ack is an ordinary equal-epoch probe with region_ttl = 0: it confirms
   the sender without changing the wire format, and the zero ttl keeps it
   from being re-flooded or re-acked (no ping-pong). *)
let send_ack t ~sw ~to_ ~attack ~epoch ~activate =
  if t.anti_entropy > 0. then
    Net.emit_from_switch t.net ~sw ~next:to_
      (probe_packet ~sw ~attack ~epoch ~activate ~ttl:0)

(* A neighbor just sent a probe with an epoch behind ours: it missed an
   update. Send our latest directly — the stimulus-driven fast path of
   anti-entropy (the timer-driven readvert is the slow path). *)
let repair t ~sw ~to_ ~attack =
  let st = state t sw in
  match Hashtbl.find_opt st.adverts attack with
  | Some ad when ad.ad_epoch > 0 ->
    t.repairs <- t.repairs + 1;
    if Net.obs_active t.net then
      Net.obs_emit t.net
        (Ff_obs.Event.Repair
           { subsystem = "mode"; node = sw;
             info = Packet.attack_kind_to_string attack });
    Net.emit_from_switch t.net ~sw ~next:to_
      (probe_packet ~sw ~attack ~epoch:ad.ad_epoch ~activate:ad.ad_activate
         ~ttl:ad.ad_ttl)
  | _ -> ()

(* ---------------- epoch application ---------------- *)

let activate_at t ~sw ~attack ~epoch =
  let st = state t sw in
  let fresh =
    match Hashtbl.find_opt st.seen_epoch attack with Some e -> epoch > e | None -> true
  in
  if fresh then begin
    Hashtbl.replace st.seen_epoch attack epoch;
    Hashtbl.remove st.pending_clear attack;
    if not (Hashtbl.mem st.active_attacks attack) then begin
      Hashtbl.replace st.active_attacks attack (Net.now t.net);
      refresh_vars t sw;
      record t sw attack true
    end;
    true
  end
  else false

(* Outcome of processing a probe at one switch: [`Stale] probes stop here;
   fresh ones keep flooding whether applied now or deferred by the dwell. *)
let rec deactivate_at t ~sw ~attack ~epoch =
  let st = state t sw in
  let fresh =
    match Hashtbl.find_opt st.seen_epoch attack with Some e -> epoch > e | None -> true
  in
  if not fresh then `Stale
  else
    match Hashtbl.find_opt st.active_attacks attack with
    | None ->
      Hashtbl.replace st.seen_epoch attack epoch;
      `Applied
    | Some activated_at ->
      let now = Net.now t.net in
      let dwell = current_dwell t attack in
      (* epsilon slack: the expiry timer fires at exactly activated+dwell
         and must count as expired despite floating-point rounding *)
      if now -. activated_at >= dwell -. 1e-9 then begin
        Hashtbl.replace st.seen_epoch attack epoch;
        Hashtbl.remove st.active_attacks attack;
        refresh_vars t sw;
        record t sw attack false;
        `Applied
      end
      else if Hashtbl.mem st.pending_clear attack then begin
        (* a newer clear arrived while one is queued: keep the freshest
           epoch; the already-scheduled dwell timer applies whatever is
           stored when it fires *)
        let stored = Hashtbl.find st.pending_clear attack in
        if epoch > stored then Hashtbl.replace st.pending_clear attack epoch;
        `Deferred
      end
      else begin
        (* honor the dwell: apply the clear when it expires, unless a newer
           activation supersedes it in the meantime *)
        Hashtbl.replace st.pending_clear attack epoch;
        Engine.after (Net.engine t.net)
          ~delay:(Float.max 0. (activated_at +. dwell -. now))
          (fun () ->
            match Hashtbl.find_opt st.pending_clear attack with
            | Some e ->
              Hashtbl.remove st.pending_clear attack;
              ignore (deactivate_at t ~sw ~attack ~epoch:e)
            | None -> ());
        `Deferred
      end

let flood t ~from_sw ~except ~attack ~epoch ~activate ~ttl =
  if ttl > 0 then begin
    Net.obs_emit t.net (Ff_obs.Event.Probe { sw = from_sw; kind = "mode" });
    Net.flood_from_switch t.net ~sw:from_sw ~except (fun () ->
        probe_packet ~sw:from_sw ~attack ~epoch ~activate ~ttl)
  end

let handle_probe t ~sw ~in_port ~attack ~epoch ~activate ~region_ttl =
  let known = known_epoch t ~sw ~attack in
  let from_neighbor = in_port >= 0 && List.mem in_port (Net.neighbors_of t.net sw) in
  if epoch > known then begin
    let fresh =
      if activate then activate_at t ~sw ~attack ~epoch
      else deactivate_at t ~sw ~attack ~epoch <> `Stale
    in
    if fresh then begin
      note_known t ~sw ~attack ~epoch ~activate
        ~ttl:(max 0 (region_ttl - 1))
        ~confirmed:(if from_neighbor then [ in_port ] else []);
      (* re-flood fresh information through the region *)
      flood t ~from_sw:sw ~except:[ in_port ] ~attack ~epoch ~activate
        ~ttl:(region_ttl - 1);
      if from_neighbor && region_ttl > 0 then
        send_ack t ~sw ~to_:in_port ~attack ~epoch ~activate
    end
  end
  else if epoch = known && known > 0 then begin
    if from_neighbor then begin
      (* the sender provably holds our epoch: stop re-advertising to it *)
      confirm t ~sw ~attack ~epoch ~neighbor:in_port;
      if region_ttl > 0 then send_ack t ~sw ~to_:in_port ~attack ~epoch ~activate
    end
  end
  else if from_neighbor && known > 0 then
    (* the sender is behind: push our fresher state straight back *)
    repair t ~sw ~to_:in_port ~attack

let stage t =
  {
    Net.stage_name = "mode-protocol";
    process =
      (fun ctx pkt ->
        match pkt.Packet.payload with
        | Packet.Mode_probe { attack; epoch; activate; region_ttl; _ } ->
          handle_probe t ~sw:ctx.Net.sw.Net.sw_id ~in_port:ctx.Net.in_port ~attack
            ~epoch ~activate ~region_ttl;
          Net.Absorb
        | _ -> Net.Continue);
  }

(* Timer-driven slow path: walk this switch's adverts and re-send to any
   neighbor still pending past its due time. Runs on the rare thunk lane —
   it never touches per-packet state, so the packet hot path stays
   allocation-free. Backoff doubles up to 8x base so a partitioned
   neighbor costs O(1/8 base) sends per second, not a constant hammer. *)
let anti_entropy_tick t sw =
  match Hashtbl.find_opt t.states sw with
  | None -> ()
  | Some st ->
    let now = Net.now t.net in
    Hashtbl.iter
      (fun attack ad ->
        if ad.pending <> [] && now >= ad.due -. 1e-9 then begin
          t.readverts <- t.readverts + 1;
          if Net.obs_active t.net then
            Net.obs_emit t.net (Ff_obs.Event.Probe { sw; kind = "mode-readvert" });
          List.iter
            (fun peer ->
              Net.emit_from_switch t.net ~sw ~next:peer
                (probe_packet ~sw ~attack ~epoch:ad.ad_epoch
                   ~activate:ad.ad_activate ~ttl:ad.ad_ttl))
            ad.pending;
          ad.interval <- Float.min (ad.interval *. 2.) (8. *. t.anti_entropy);
          ad.due <- now +. jittered t ad.interval
        end)
      st.adverts

let create net ?(region_ttl = 8) ?(min_dwell = 1.0) ?(flap_window = 10.)
    ?(max_holddown = 16.) ?(anti_entropy = 0.5) ?(seed = 11) ~modes_for () =
  let t =
    {
      net;
      region_ttl;
      min_dwell;
      flap_window;
      max_holddown;
      anti_entropy;
      rng = Prng.create ~seed;
      modes_for;
      epochs = Hashtbl.create 4;
      states = Hashtbl.create 16;
      history = [];
      observers = [];
      transitions = 0;
      raises = 0;
      readverts = 0;
      repairs = 0;
      flap_times = Hashtbl.create 4;
      max_flap_entries =
        (let ratio = Float.max 1. (max_holddown /. Float.max 1e-9 min_dwell) in
         2 + int_of_float (ceil (log ratio /. log 2.)));
    }
  in
  List.iter (fun sw -> Net.add_stage net ~sw (stage t)) (Net.switch_ids net);
  if anti_entropy > 0. then begin
    let engine = Net.engine net in
    List.iter
      (fun sw ->
        (* per-switch jittered phase and period: readvert scans must not
           synchronize across the region *)
        let period = anti_entropy *. (0.9 +. (0.2 *. Prng.float t.rng 1.)) in
        let start = Engine.now engine +. (anti_entropy *. (0.5 +. (0.5 *. Prng.float t.rng 1.))) in
        Engine.every engine ~start ~period (fun () -> anti_entropy_tick t sw))
      (Net.switch_ids net)
  end;
  t

let next_epoch t attack =
  let e = 1 + (try Hashtbl.find t.epochs attack with Not_found -> 0) in
  Hashtbl.replace t.epochs attack e;
  e

let raise_alarm t ~sw attack =
  t.raises <- t.raises + 1;
  let st = state t sw in
  if not (Hashtbl.mem st.active_attacks attack) then begin
    note_activation t attack;
    let epoch = next_epoch t attack in
    if activate_at t ~sw ~attack ~epoch then begin
      note_known t ~sw ~attack ~epoch ~activate:true ~ttl:t.region_ttl ~confirmed:[];
      flood t ~from_sw:sw ~except:[] ~attack ~epoch ~activate:true ~ttl:t.region_ttl
    end
  end

let clear_alarm t ~sw attack =
  let epoch = next_epoch t attack in
  (match deactivate_at t ~sw ~attack ~epoch with `Stale | `Applied | `Deferred -> ());
  note_known t ~sw ~attack ~epoch ~activate:false ~ttl:t.region_ttl ~confirmed:[];
  flood t ~from_sw:sw ~except:[] ~attack ~epoch ~activate:false ~ttl:t.region_ttl

let active t ~sw mode =
  match Hashtbl.find_opt (Net.switch t.net sw).Net.vars (mode_var mode) with
  | Some v -> v > 0.
  | None -> false

let attack_active t ~sw attack = Hashtbl.mem (state t sw).active_attacks attack

let active_anywhere t mode = List.exists (fun sw -> active t ~sw mode) (Net.switch_ids t.net)

let switches_with_mode t mode = List.filter (fun sw -> active t ~sw mode) (Net.switch_ids t.net)

let epoch t attack = try Hashtbl.find t.epochs attack with Not_found -> 0

let region_ttl t = t.region_ttl

let log t = List.rev t.history

let transitions t = t.transitions

let raises t = t.raises

let readverts t = t.readverts

let repairs t = t.repairs

let pending_adverts t =
  Hashtbl.fold
    (fun _sw st acc ->
      Hashtbl.fold
        (fun _attack ad acc -> if ad.pending = [] then acc else acc + 1)
        st.adverts acc)
    t.states 0
