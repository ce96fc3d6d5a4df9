module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Prng = Ff_util.Prng

type attack = Packet.attack_kind

(* ---------------- the switch transition ---------------- *)

(* One switch's state for one attack: the newest epoch applied, and the
   advert — the (epoch, activate) this switch is responsible for spreading
   and the neighbors that have not confirmed it yet. A flood is
   fire-and-forget, so one lost probe would strand a switch in the wrong
   mode until the next epoch; the advert closes that hole by re-sending
   until every neighbor acks. *)
type node = {
  mutable seen : int;
  mutable active : bool;
  mutable ad_epoch : int;
  mutable ad_activate : bool;
  mutable ad_ttl : int;
  mutable pending : int list;
}

type input =
  | Probe of { from : int; epoch : int; activate : bool; ttl : int }
  | Alarm of { epoch : int; activate : bool; ttl : int }
  | Readvert

type send = Ack | Repair | Resend

type 'c io = {
  learned : 'c -> seen:int -> active:bool -> ad_epoch:int -> unit;
  flood : 'c -> except:int -> epoch:int -> activate:bool -> ttl:int -> unit;
  send : 'c -> send -> to_:int -> epoch:int -> activate:bool -> ttl:int -> unit;
}

(* Take (epoch, activate) as this switch's own: apply it, and make the
   advert responsible for spreading it to every neighbor but [confirmed].
   [ttl] is the region budget the advert's re-sends carry: 0 at the region
   boundary, where re-advertising would grow the region by one hop per
   round. *)
let learn io ~anti_entropy ~neighbors c n ~epoch ~activate ~ttl ~confirmed =
  let seen = n.seen and active = n.active and ad_epoch = n.ad_epoch in
  n.seen <- epoch;
  n.active <- activate;
  if anti_entropy then begin
    n.ad_epoch <- epoch;
    n.ad_activate <- activate;
    n.ad_ttl <- ttl;
    n.pending <- (if ttl > 0 then List.filter (fun p -> p <> confirmed) neighbors else [])
  end;
  io.learned c ~seen ~active ~ad_epoch

let step io ~anti_entropy ~neighbors c n input =
  match input with
  | Alarm { epoch; activate; ttl } ->
    (* epochs come from one counter per attack, so an alarm's is fresh *)
    learn io ~anti_entropy ~neighbors c n ~epoch ~activate ~ttl ~confirmed:(-1);
    if ttl > 0 then io.flood c ~except:(-1) ~epoch ~activate ~ttl
  | Probe { from; epoch; activate; ttl } ->
    let from_neighbor = from >= 0 && List.mem from neighbors in
    let known = max n.seen n.ad_epoch in
    if epoch > known then begin
      (* fresh: apply, re-flood through the region, ack the sender *)
      learn io ~anti_entropy ~neighbors c n ~epoch ~activate ~ttl:(max 0 (ttl - 1))
        ~confirmed:(if from_neighbor then from else -1);
      if ttl - 1 > 0 then io.flood c ~except:from ~epoch ~activate ~ttl:(ttl - 1);
      (* an ack is an equal-epoch probe with ttl 0: it confirms the sender
         without a new wire format, and is itself never re-flooded or
         re-acked *)
      if anti_entropy && from_neighbor && ttl > 0 then
        io.send c Ack ~to_:from ~epoch ~activate ~ttl:0
    end
    else if epoch = known && known > 0 then begin
      if from_neighbor then begin
        (* the sender provably holds our epoch: stop re-advertising to it *)
        if n.ad_epoch = epoch && List.mem from n.pending then
          n.pending <- List.filter (fun p -> p <> from) n.pending;
        if anti_entropy && ttl > 0 then io.send c Ack ~to_:from ~epoch ~activate ~ttl:0
      end
    end
    else if from_neighbor && known > 0 && n.ad_epoch > 0 then
      (* the sender is behind: push our fresher state straight back — the
         fast path of anti-entropy, the timed readvert being the slow one *)
      io.send c Repair ~to_:from ~epoch:n.ad_epoch ~activate:n.ad_activate ~ttl:n.ad_ttl
  | Readvert ->
    List.iter
      (fun peer ->
        io.send c Resend ~to_:peer ~epoch:n.ad_epoch ~activate:n.ad_activate ~ttl:n.ad_ttl)
      n.pending

(* ---------------- the runtime around it ---------------- *)

(* Per-(switch, attack) runtime state: the transition's [node] plus what
   the clock decides — when the attack went active (its dwell), a clear
   held back by the dwell, and the jittered, backed-off due time of the
   next re-advertisement. *)
type slot = {
  owner : t;
  sw : int;
  attack : attack;
  node : node;
  mutable pending_clear : int; (* epoch of a clear waiting for the dwell; 0 = none *)
  mutable activated_at : float;
  mutable interval : float; (* current readvert backoff interval *)
  mutable due : float; (* absolute time of the next re-advertisement *)
}

and t = {
  net : Net.t;
  region_ttl : int;
  min_dwell : float;
  flap_window : float;
  max_holddown : float;
  anti_entropy : float; (* base readvert period; <= 0 disables *)
  rng : Prng.t;
  modes_for : attack -> string list;
  epochs : (attack, int) Hashtbl.t;
  states : (int, (attack, slot) Hashtbl.t) Hashtbl.t;
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

let slots t sw =
  match Hashtbl.find_opt t.states sw with
  | Some s -> s
  | None ->
    let s = Hashtbl.create 4 in
    Hashtbl.replace t.states sw s;
    s

let slot t sw attack =
  let slots = slots t sw in
  match Hashtbl.find_opt slots attack with
  | Some s -> s
  | None ->
    let s =
      {
        owner = t;
        sw;
        attack;
        node =
          { seen = 0; active = false; ad_epoch = 0; ad_activate = false; ad_ttl = 0;
            pending = [] };
        pending_clear = 0;
        activated_at = 0.;
        interval = t.anti_entropy;
        due = 0.;
      }
    in
    Hashtbl.replace slots attack s;
    s

(* recompute every mode flag from the set of active attacks *)
let refresh_flags t sw =
  let sw_rec = Net.switch t.net sw in
  let write m on = Net.set_flag sw_rec ~mask:(Net.flag_mask (mode_var m)) on in
  List.iter
    (fun attack -> List.iter (fun m -> write m false) (t.modes_for attack))
    Packet.all_attack_kinds;
  Hashtbl.iter
    (fun attack s -> if s.node.active then List.iter (fun m -> write m true) (t.modes_for attack))
    (slots t sw)

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

let find_slot t ~sw attack =
  match Hashtbl.find_opt t.states sw with
  | Some slots -> Hashtbl.find_opt slots attack
  | None -> None

let known_epoch t ~sw ~attack =
  match find_slot t ~sw attack with
  | Some s -> max s.node.seen s.node.ad_epoch
  | None -> 0

(* Re-advertisements fire [0.75,1.25]x the nominal delay so neighbors that
   learned an epoch in the same flood don't re-send in lockstep. *)
let jittered t base = base *. (0.75 +. (0.5 *. Prng.float t.rng 1.))

let probe_packet ~sw ~attack ~epoch ~activate ~ttl =
  Packet.make_control ~src:sw ~dst:sw ~flow:0
    ~payload:(Packet.Mode_probe { attack; epoch; origin = sw; activate; region_ttl = ttl })

(* The clock-bound half of a clear at an active switch: apply it once the
   attack has been on for the current dwell, else hold the freshest
   epoch in [pending_clear] and retry when the dwell ends — unless a
   newer activation supersedes it in the meantime. *)
let rec clear_after_dwell s ~epoch =
  let t = s.owner in
  let now = Net.now t.net in
  let dwell = current_dwell t s.attack in
  (* epsilon slack: the expiry timer fires at exactly activated+dwell
     and must count as expired despite floating-point rounding *)
  if now -. s.activated_at >= dwell -. 1e-9 then begin
    s.node.seen <- epoch;
    s.node.active <- false;
    refresh_flags t s.sw;
    record t s.sw s.attack false
  end
  else if s.pending_clear > 0 then begin
    (* the already-scheduled dwell timer applies whatever is stored *)
    if epoch > s.pending_clear then s.pending_clear <- epoch
  end
  else begin
    s.pending_clear <- epoch;
    Engine.after (Net.engine t.net)
      ~delay:(Float.max 0. (s.activated_at +. dwell -. now))
      (fun () ->
        let e = s.pending_clear in
        if e > 0 then begin
          s.pending_clear <- 0;
          if e > s.node.seen then
            if s.node.active then clear_after_dwell s ~epoch:e else s.node.seen <- e
        end)
  end

(* [step] has just written the node: record an activation, hold a clear
   back behind the dwell, and time the advert's first re-send. *)
let learned s ~seen ~active ~ad_epoch =
  let t = s.owner and n = s.node in
  if n.active then begin
    s.pending_clear <- 0;
    if not active then begin
      s.activated_at <- Net.now t.net;
      refresh_flags t s.sw;
      record t s.sw s.attack true
    end
  end
  else if active then begin
    let epoch = n.seen in
    n.seen <- seen;
    n.active <- true;
    clear_after_dwell s ~epoch
  end;
  if n.ad_epoch > ad_epoch then begin
    s.interval <- t.anti_entropy;
    s.due <- Net.now t.net +. jittered t t.anti_entropy
  end

let flood s ~except ~epoch ~activate ~ttl =
  let t = s.owner and sw = s.sw and attack = s.attack in
  Net.obs_emit t.net (Ff_obs.Event.Probe { sw; kind = "mode" });
  Net.flood_from_switch t.net ~sw ~except:(if except < 0 then [] else [ except ]) (fun () ->
      probe_packet ~sw ~attack ~epoch ~activate ~ttl)

let send s kind ~to_ ~epoch ~activate ~ttl =
  let t = s.owner in
  (match kind with
   | Repair ->
     t.repairs <- t.repairs + 1;
     if Net.obs_active t.net then
       Net.obs_emit t.net
         (Ff_obs.Event.Repair
            { subsystem = "mode"; node = s.sw; info = Packet.attack_kind_to_string s.attack })
   | Ack | Resend -> ());
  Net.emit_from_switch t.net ~sw:s.sw ~next:to_
    (probe_packet ~sw:s.sw ~attack:s.attack ~epoch ~activate ~ttl)

let io = { learned; flood; send }

let step_at t s input =
  step io ~anti_entropy:(t.anti_entropy > 0.) ~neighbors:(Net.neighbors_of t.net s.sw) s s.node
    input

let stage t =
  {
    Net.stage_name = "mode-protocol";
    process =
      (fun ctx pkt ->
        match pkt.Packet.payload with
        | Packet.Mode_probe { attack; epoch; activate; region_ttl; _ } ->
          let s = slot t ctx.Net.sw.Net.sw_id attack in
          step_at t s (Probe { from = ctx.Net.in_port; epoch; activate; ttl = region_ttl });
          Net.Absorb
        | _ -> Net.Continue);
  }

(* Timer-driven slow path: re-send each advert still pending past its due
   time. Runs on the rare thunk lane — it never touches per-packet state,
   so the packet hot path stays allocation-free. Backoff doubles up to 8x
   base so a partitioned neighbor costs O(1/8 base) sends per second, not
   a constant hammer. *)
let anti_entropy_tick t sw =
  match Hashtbl.find_opt t.states sw with
  | None -> ()
  | Some slots ->
    let now = Net.now t.net in
    Hashtbl.iter
      (fun _ s ->
        if s.node.pending <> [] && now >= s.due -. 1e-9 then begin
          t.readverts <- t.readverts + 1;
          if Net.obs_active t.net then
            Net.obs_emit t.net (Ff_obs.Event.Probe { sw; kind = "mode-readvert" });
          step_at t s Readvert;
          s.interval <- Float.min (s.interval *. 2.) (8. *. t.anti_entropy);
          s.due <- now +. jittered t s.interval
        end)
      slots

let check_arg what ok v =
  if not ok then invalid_arg (Printf.sprintf "Protocol.create: %s (got %g)" what v)

let create net ?(region_ttl = 8) ?(min_dwell = 1.0) ?(flap_window = 10.)
    ?(max_holddown = 16.) ?(anti_entropy = 0.5) ?(seed = 11) ~modes_for () =
  check_arg "region_ttl must be >= 0" (region_ttl >= 0) (float_of_int region_ttl);
  check_arg "min_dwell must be finite and > 0" (Float.is_finite min_dwell && min_dwell > 0.)
    min_dwell;
  check_arg "flap_window must be finite and >= 0"
    (Float.is_finite flap_window && flap_window >= 0.) flap_window;
  check_arg "max_holddown must be >= min_dwell" (max_holddown >= min_dwell) max_holddown;
  check_arg "anti_entropy must be finite" (Float.is_finite anti_entropy) anti_entropy;
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

let attack_active t ~sw attack =
  match find_slot t ~sw attack with Some s -> s.node.active | None -> false

let raise_alarm t ~sw attack =
  t.raises <- t.raises + 1;
  if not (attack_active t ~sw attack) then begin
    note_activation t attack;
    let epoch = next_epoch t attack in
    step_at t (slot t sw attack) (Alarm { epoch; activate = true; ttl = t.region_ttl })
  end

let clear_alarm t ~sw attack =
  let epoch = next_epoch t attack in
  step_at t (slot t sw attack) (Alarm { epoch; activate = false; ttl = t.region_ttl })

let active t ~sw mode = Net.flag_on (Net.switch t.net sw) ~mask:(Net.flag_mask (mode_var mode))

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
    (fun _sw slots acc ->
      Hashtbl.fold (fun _attack s acc -> if s.node.pending = [] then acc else acc + 1) slots acc)
    t.states 0
