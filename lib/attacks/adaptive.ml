module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet
module Hash = Ff_dataplane.Hash
module Prng = Ff_util.Prng

type strategy = Threshold_hug | Collision_probe | Epoch_time

let strategy_name = function
  | Threshold_hug -> "threshold-hug"
  | Collision_probe -> "collision-probe"
  | Epoch_time -> "epoch-time"

(* Tuning constants: the arena (Scenario.adversarial_spec) varies only
   the seed and the attack window. *)
let observe_period = 0.5 (* decision-loop cadence, s *)
let tx_period = 0.02 (* emitter pacing quantum, s *)
let packet_size = 1000 (* every crafted packet, B *)
let keys_per_emitter = 2 (* hugger fan-out per (bot, target) *)

(* threshold hugger *)
let hug_start_rate = 4_000_000. (* aggregate b/s at ramp start *)
let hug_growth = 1.35 (* multiplicative ramp per tick *)
let hug_settle = 6.0 (* back-off dwell after an alarm, s *)
let hug_probe_hold = 3.0 (* how long a midpoint must stay clean, s *)
let hug_precision = 0.10 (* stop when hi/lo <= 1 + precision *)
let hug_idle_frac = 0.02 (* settle-phase rate, fraction of start *)

(* collision prober *)
let cp_trial_rate = 1_400_000. (* per-key trial rate, b/s *)
let cp_trials = 2 (* parallel pair trials per round *)
let cp_trial_len = 2.5 (* trial duration, s (>= 2 HH epochs) *)
(* one pair at a time, blasting just under the bottleneck capacity:
   stacking pairs or overshooting only manufactures congestion loss,
   which the loss-based feedback cannot tell apart from policing and
   prunes as if the defense had caught up *)
let cp_blast_rate = 8_500_000.
let cp_pairs_wanted = 1
let cp_loss_found = 0.25 (* trial loss below this = not policed *)
let cp_loss_dead = 0.6 (* blast loss above this = caught *)

(* epoch timer *)
let et_cal_rate = 3_000_000. (* calibration burst rate, b/s *)
(* a burst must outlive the defense's worst-case detection latency
   (rest of the current epoch + one full epoch + mode propagation) or
   it is never policed and yields no onset *)
let et_cal_len = 2.6
let et_cal_gap = 1.3 (* gap between bursts, s *)
let et_onsets_needed = 5 (* onsets before period estimation *)
let et_pulse_rate = 11_200_000. (* aggregate pulse rate, b/s *)
(* pulse width as a fraction of the pulse period (two learned epochs —
   pulsing every epoch would fill every epoch with a full duty cycle of
   bytes regardless of phase) *)
let et_pulse_duty = 0.25
(* few senders, each well over the per-sender threshold when a pulse
   is mis-timed: spraying the pulse over the whole botnet would slip
   under per-sender accounting by dilution alone, no timing needed *)
let et_pulse_bots = 4

(* ---------------- observation: per-key delivery stats ---------------- *)

(* What the botnet can legitimately measure about a crafted flow: its own
   send count and the receive count at a host it controls. Window fields
   reset every observation tick; totals accumulate from [reset_total]
   (per-trial accounting). *)
type keystat = {
  mutable sent_w : int;
  mutable rcvd_w : int;
  mutable sent_t : int;
  mutable rcvd_t : int;
  mutable last_loss : float; (* previous completed window's loss *)
}

(* ---------------- emitters ---------------- *)

(* A crafted constant-rate packet source under full attacker control:
   arbitrary flow keys (rotated per packet — the collision prober's
   interleaved heavy/mouse pair), retunable rate, and a probe flag that
   routes its packet count into the work-factor probe tally. *)
type emitter = {
  e_src : int;
  e_dst : int;
  e_keys : int array;
  mutable e_key_i : int;
  mutable e_rate : float; (* bits/s *)
  mutable e_credit : float;
  mutable e_on : bool;
  mutable e_probe : bool;
  mutable e_pulse : bool; (* gated on the epoch timer's predicted blind window *)
  mutable e_seq : int;
}

(* ---------------- strategy state ---------------- *)

type hug_phase =
  | Ramping
  | Settling of float (* no earlier than *)
  | Probing of float (* midpoint under observation since *)
  | Holding

type hug_state = {
  mutable h_phase : hug_phase;
  mutable h_rate : float; (* current aggregate bits/s *)
  mutable h_lo : float; (* highest rate observed safe *)
  mutable h_hi : float; (* lowest rate observed mitigated *)
  mutable h_retx : int; (* total sensor retransmissions at last tick *)
  mutable h_trips : int;
}

type cp_trial = { t_h : int; t_m : int; t_em : emitter }

type cp_state = {
  mutable c_trials : cp_trial list;
  mutable c_round_ends : float;
  mutable c_found : cp_trial list; (* promoted to blast emitters *)
  mutable c_bot_i : int;
  mutable c_rounds : int;
}

type et_phase = Calibrating | Pulsing

type et_state = {
  mutable p_phase : et_phase;
  mutable p_onsets : float list;
  mutable p_cal : (emitter * int * float) option; (* emitter, key, burst start *)
  mutable p_next_cal : float;
  mutable p_cal_bot : int;
  mutable p_period : float;
  mutable p_anchor : float; (* estimated epoch boundary offset *)
  mutable p_pulsing_since : float;
  mutable p_pulse_loss : float; (* EWMA of pulse-window loss *)
  mutable p_recals : int;
}

type state = Hug of hug_state | Cp of cp_state | Et of et_state

type t = {
  net : Net.t;
  start : float;
  stop : float;
  bots : int array;
  targets : int array;
  sinks : int array;
  rng : Prng.t;
  emitters : emitter list ref;
  keystats : (int, keystat) Hashtbl.t;
  sensors : Flow.Tcp.t array;
  mutable sensor_sent : int; (* TCP sensor packets counted as probes *)
  mutable probes : int;
  mutable fp : int; (* running decision fingerprint *)
  mutable log : (float * string) list;
  state : state;
}

let fp_mix t v = t.fp <- Hash.mix ~seed:t.fp ~lane:0 v
let fp_mix_f t x = fp_mix t (Int64.to_int (Int64.bits_of_float x))

let logf t fmt =
  Printf.ksprintf
    (fun s ->
      fp_mix t (Hashtbl.hash s);
      t.log <- (Net.now t.net, s) :: t.log)
    fmt

(* The attacker crafts its own flow keys from its seeded RNG — it is
   searching the defense's hash space, not asking the network for ids.
   The offset keeps crafted keys disjoint from the net's allocator so a
   crafted key can never cross-wire a benign flow's sink receiver. *)
let fresh_key t = 0x10000 + Prng.int t.rng 0x3FFF_FFFF

let keystat t key =
  match Hashtbl.find_opt t.keystats key with
  | Some ks -> ks
  | None ->
    let ks = { sent_w = 0; rcvd_w = 0; sent_t = 0; rcvd_t = 0; last_loss = 0. } in
    Hashtbl.replace t.keystats key ks;
    ks

(* Register a receiver on an attacker-controlled sink for a crafted key:
   the only delivery feedback a real botnet has. *)
let track t ~sink ~key =
  let ks = keystat t key in
  Hashtbl.replace (Net.host t.net sink).Net.receivers key
    (fun _pkt ->
      ks.rcvd_w <- ks.rcvd_w + 1;
      ks.rcvd_t <- ks.rcvd_t + 1)

let untrack t ~sink ~key =
  Hashtbl.remove (Net.host t.net sink).Net.receivers key;
  Hashtbl.remove t.keystats key

let window_loss t key =
  match Hashtbl.find_opt t.keystats key with
  | None -> 0.
  | Some ks -> if ks.sent_w <= 4 then ks.last_loss else 1. -. (float_of_int ks.rcvd_w /. float_of_int ks.sent_w)

let total_loss t key =
  match Hashtbl.find_opt t.keystats key with
  | None -> 0.
  | Some ks ->
    if ks.sent_t = 0 then 0. else 1. -. (float_of_int ks.rcvd_t /. float_of_int ks.sent_t)

let roll_windows t =
  Hashtbl.iter
    (fun _ ks ->
      if ks.sent_w > 4 then
        ks.last_loss <- 1. -. (float_of_int ks.rcvd_w /. float_of_int ks.sent_w);
      ks.sent_w <- 0;
      ks.rcvd_w <- 0)
    t.keystats

let new_emitter t ~src ~dst ~keys ~rate ~probe =
  let e =
    { e_src = src; e_dst = dst; e_keys = keys; e_key_i = 0; e_rate = rate;
      e_credit = 0.; e_on = true; e_probe = probe; e_pulse = false; e_seq = 0 }
  in
  t.emitters := e :: !(t.emitters);
  e

(* Is [now] inside the epoch timer's predicted blind window — the pulse
   straddling a learned epoch boundary? Evaluated per tx tick: the
   windows are sub-second, far finer than the decision loop's cadence. *)
let et_in_pulse (e : et_state) now =
  let half = et_pulse_duty *. e.p_period /. 2. in
  let u = Float.rem (now -. e.p_anchor +. (1000. *. e.p_period)) e.p_period in
  u >= e.p_period -. half || u < half

let tx_tick t () =
  let now = Net.now t.net in
  let pulse_on =
    match t.state with
    | Et e -> e.p_phase = Pulsing && et_in_pulse e now
    | _ -> false
  in
  if now >= t.start && now < t.stop then
    List.iter
      (fun e ->
        if e.e_on && (not e.e_pulse || pulse_on) && e.e_rate > 0. then begin
          e.e_credit <-
            e.e_credit +. (e.e_rate *. tx_period /. (8. *. float_of_int packet_size));
          let n = int_of_float e.e_credit in
          let n = if n > 2000 then 2000 else n in
          e.e_credit <- e.e_credit -. float_of_int n;
          for _ = 1 to n do
            let key = e.e_keys.(e.e_key_i) in
            e.e_key_i <- (e.e_key_i + 1) mod Array.length e.e_keys;
            e.e_seq <- e.e_seq + 1;
            (match Hashtbl.find_opt t.keystats key with
            | Some ks ->
              ks.sent_w <- ks.sent_w + 1;
              ks.sent_t <- ks.sent_t + 1
            | None -> ());
            if e.e_probe then t.probes <- t.probes + 1;
            Net.send_from_host t.net
              (Packet.make_data ~size:packet_size ~seq:e.e_seq ~ttl:64 ~src:e.e_src ~dst:e.e_dst
                 ~flow:key)
          done
        end)
      !(t.emitters)

(* ---------------- threshold hugger ---------------- *)

(* The per-(bot, target) flood emitters the hugger retunes as one knob:
   aggregate rate spread evenly, several keys per emitter so the fan-in
   at each decoy looks like Crossfire (and so per-key rates stay small). *)
let hug_apply t (h : hug_state) rate =
  h.h_rate <- rate;
  let n = List.length !(t.emitters) in
  if n > 0 then begin
    let per = rate /. float_of_int n in
    List.iter (fun e -> e.e_rate <- per) !(t.emitters)
  end;
  fp_mix_f t rate

let hug_setup t h =
  Array.iteri
    (fun ti target ->
      Array.iteri
        (fun bi bot ->
          ignore (ti, bi);
          let keys = Array.init keys_per_emitter (fun _ -> fresh_key t) in
          ignore (new_emitter t ~src:bot ~dst:target ~keys ~rate:0. ~probe:false))
        t.bots)
    t.targets;
  hug_apply t h hug_start_rate

(* Mitigation signal: the TCP sensor flows toward each target are exactly
   the persistent low-rate traffic the defense polices once alarmed, so a
   jump in their retransmissions is the attacker's tell. *)
let sensors_retx t =
  Array.fold_left (fun acc s -> acc + Flow.Tcp.retransmissions s) 0 t.sensors

let hug_decide t (h : hug_state) now =
  let retx = sensors_retx t in
  let tripped = retx - h.h_retx >= 2 in
  h.h_retx <- retx;
  let idle = hug_idle_frac *. hug_start_rate in
  let back_off () =
    h.h_hi <- h.h_rate;
    if h.h_lo >= h.h_hi then h.h_lo <- h.h_hi /. hug_growth;
    h.h_trips <- h.h_trips + 1;
    logf t "hug: tripped at %.0f" h.h_rate;
    hug_apply t h idle;
    h.h_phase <- Settling (now +. hug_settle)
  in
  let narrow_or_hold () =
    if h.h_hi /. h.h_lo <= 1. +. hug_precision then begin
      logf t "hug: holding at %.0f" h.h_lo;
      hug_apply t h h.h_lo;
      h.h_phase <- Holding
    end
    else begin
      let mid = (h.h_lo +. h.h_hi) /. 2. in
      hug_apply t h mid;
      h.h_phase <- Probing now
    end
  in
  match h.h_phase with
  | Ramping ->
    if tripped then back_off ()
    else begin
      h.h_lo <- Float.max h.h_lo h.h_rate;
      hug_apply t h (h.h_rate *. hug_growth)
    end
  | Settling until ->
    (* wait out the defense's clear-hold: resume only once the sensors
       have been clean past the deadline *)
    if now >= until && not tripped then narrow_or_hold ()
  | Probing since ->
    if tripped then back_off ()
    else if now -. since >= hug_probe_hold then begin
      h.h_lo <- h.h_rate;
      narrow_or_hold ()
    end
  | Holding -> if tripped then back_off ()

(* ---------------- collision prober ---------------- *)

let cp_start_round t (c : cp_state) now =
  let sink = t.sinks.(0) in
  c.c_rounds <- c.c_rounds + 1;
  let trials =
    List.init cp_trials (fun _ ->
        let bot = t.bots.(c.c_bot_i) in
        c.c_bot_i <- (c.c_bot_i + 1) mod Array.length t.bots;
        let h = fresh_key t and m = fresh_key t in
        track t ~sink ~key:h;
        track t ~sink ~key:m;
        (* interleaved heavy/mouse pair: every packet of [h] is chased by
           one of [m], so if they collide in the HashPipe's first stage
           neither residency ever accumulates a full epoch of bytes *)
        let em =
          new_emitter t ~src:bot ~dst:sink ~keys:[| h; m |]
            ~rate:(2. *. cp_trial_rate) ~probe:true
        in
        { t_h = h; t_m = m; t_em = em })
  in
  c.c_trials <- trials;
  c.c_round_ends <- now +. cp_trial_len;
  fp_mix t c.c_rounds;
  logf t "cp: round %d (%d trials)" c.c_rounds (List.length trials)

let cp_decide t (c : cp_state) now =
  let sink = t.sinks.(0) in
  (* prune blasting pairs the defense caught up with (salt rotation) *)
  let live, dead =
    List.partition (fun tr -> window_loss t tr.t_h < cp_loss_dead) c.c_found
  in
  List.iter
    (fun tr ->
      tr.t_em.e_on <- false;
      untrack t ~sink ~key:tr.t_h;
      untrack t ~sink ~key:tr.t_m;
      logf t "cp: pair (%d,%d) went stale" tr.t_h tr.t_m)
    dead;
  c.c_found <- live;
  (* score a finished trial round *)
  if c.c_trials <> [] && now >= c.c_round_ends then begin
    List.iter
      (fun tr ->
        (* both keys must come through clean: "heavy hidden, mouse
           policed" means a third party occupies the heavy's slot, not
           our chaser — such cover evaporates the moment the blast
           congests the path and the hider backs off *)
        let loss = Float.max (total_loss t tr.t_h) (total_loss t tr.t_m) in
        fp_mix_f t loss;
        if loss <= cp_loss_found && tr.t_em.e_seq > 50 then begin
          (* evaded the heavy-hitter for a whole trial: promote to blast *)
          tr.t_em.e_probe <- false;
          tr.t_em.e_rate <- cp_blast_rate;
          c.c_found <- tr :: c.c_found;
          logf t "cp: collision found (%d,%d) loss=%.2f" tr.t_h tr.t_m loss
        end
        else begin
          tr.t_em.e_on <- false;
          untrack t ~sink ~key:tr.t_h;
          untrack t ~sink ~key:tr.t_m
        end)
      c.c_trials;
    c.c_trials <- []
  end;
  if c.c_trials = [] && List.length c.c_found < cp_pairs_wanted then
    cp_start_round t c now

(* ---------------- epoch timer ---------------- *)

(* Fold the observed mitigation onsets over candidate periods and keep the
   longest period that concentrates them: onsets live on the epoch-tick
   lattice, so every divisor of the true period also scores high
   (sub-harmonics), while multiples split into clusters and score low. *)
let et_estimate_period onsets =
  let n = float_of_int (List.length onsets) in
  let score p =
    let sx = ref 0. and sy = ref 0. in
    List.iter
      (fun o ->
        let a = 2. *. Float.pi *. o /. p in
        sx := !sx +. cos a;
        sy := !sy +. sin a)
      onsets;
    sqrt (((!sx *. !sx) +. (!sy *. !sy))) /. n
  in
  let best = ref 0. and best_p = ref 1.0 in
  let p = ref 0.4 in
  while !p <= 2.4 do
    let s = score !p in
    (* strictly-better keeps the scan deterministic; the >= on the
       tail pass below prefers the longest near-max period *)
    if s > !best then begin
      best := s;
      best_p := !p
    end;
    p := !p +. 0.01
  done;
  let chosen = ref !best_p in
  let p = ref 0.4 in
  while !p <= 2.4 do
    if score !p >= 0.92 *. !best && !p > !chosen then chosen := !p;
    p := !p +. 0.01
  done;
  (* refine: pairwise onset spacings are integer multiples of the true
     period, so a weighted ratio estimate removes the scan's 0.01
     quantization — a 2% period error walks the pulse train off the
     boundaries within a dozen epochs *)
  let p0 = !chosen in
  let os = Array.of_list onsets in
  let sum_d = ref 0. and sum_m = ref 0. in
  Array.iteri
    (fun i oi ->
      Array.iteri
        (fun j oj ->
          if j > i then begin
            let d = oj -. oi in
            let m = Float.round (d /. p0) in
            if m >= 1. then begin
              sum_d := !sum_d +. d;
              sum_m := !sum_m +. m
            end
          end)
        os)
    os;
  if !sum_m > 0. then !sum_d /. !sum_m else p0

let et_anchor onsets p =
  let sx = ref 0. and sy = ref 0. in
  List.iter
    (fun o ->
      let a = 2. *. Float.pi *. o /. p in
      sx := !sx +. cos a;
      sy := !sy +. sin a)
    onsets;
  let a = atan2 !sy !sx in
  let b = a /. (2. *. Float.pi) *. p in
  if b < 0. then b +. p else b

let et_end_cal t (e : et_state) ~onset =
  match e.p_cal with
  | None -> ()
  | Some (em, key, started) ->
    em.e_on <- false;
    untrack t ~sink:t.sinks.(0) ~key;
    e.p_cal <- None;
    (match onset with
    | Some at ->
      e.p_onsets <- at :: e.p_onsets;
      fp_mix_f t at;
      logf t "et: onset at %.2f (burst from %.2f)" at started
    | None -> ())

(* decorrelate the calibration cadence from the epoch lattice: with a
   fixed gap the onsets land on every k-th boundary and the period scan
   locks onto the k-fold super-harmonic *)
(* Wide randomization on purpose: detection latency quantizes onsets
   onto the epoch lattice, so a narrow gap distribution can make every
   consecutive onset spacing the same multiple of the true period — and
   then the period, its divisors and that multiple all explain the data
   equally well. Spreading burst starts across well over one epoch mixes
   the spacing multiples and leaves the true period as the unique gcd. *)
let et_gap t = et_cal_gap *. (0.6 +. Prng.float t.rng 1.4)

let et_begin_cal t (e : et_state) now =
  let sink = t.sinks.(0) in
  let bot = t.bots.(e.p_cal_bot) in
  e.p_cal_bot <- (e.p_cal_bot + 1) mod Array.length t.bots;
  let key = fresh_key t in
  track t ~sink ~key;
  let em = new_emitter t ~src:bot ~dst:sink ~keys:[| key |] ~rate:et_cal_rate ~probe:true in
  e.p_cal <- Some (em, key, now);
  (* Fine-grained onset watcher: the decision loop's 0.5 s cadence is far
     too coarse to localize an epoch boundary, so each burst runs its own
     50 ms delivery-rate monitor. Policing shows as the delivered rate
     collapsing below 40% of a previously healthy (>= 70%) level; the
     window midpoint is the onset estimate. *)
  let expect = et_cal_rate *. 0.05 /. (8. *. float_of_int packet_size) in
  let prev_rcvd = ref (keystat t key).rcvd_t in
  let healthy = ref false in
  let engine = Net.engine t.net in
  Engine.every engine ~start:(now +. 0.05) ~until:(now +. et_cal_len) ~period:0.05
    (fun () ->
      match e.p_cal with
      | Some (_, k, started) when k = key -> begin
        let rcvd = (keystat t key).rcvd_t in
        let got = float_of_int (rcvd - !prev_rcvd) in
        prev_rcvd := rcvd;
        let tnow = Net.now t.net in
        if got >= 0.7 *. expect then healthy := true
        else if !healthy && got <= 0.4 *. expect && tnow -. started > 0.15 then begin
          et_end_cal t e ~onset:(Some (tnow -. 0.025));
          e.p_next_cal <- tnow +. et_gap t
        end
      end
      | _ -> ())

let et_enter_pulsing t e now =
  let p = et_estimate_period (List.rev e.p_onsets) in
  let b = et_anchor e.p_onsets p in
  (* pulse every SECOND epoch: a pulse train with period equal to the
     epoch length puts a full duty cycle of bytes into every epoch no
     matter the phase (each epoch sees the tail of one pulse and the head
     of the next). Straddling only hides volume when the epochs between
     pulses are quiet, so each measured epoch contains half a pulse. *)
  e.p_period <- 2. *. p;
  e.p_anchor <- b;
  e.p_phase <- Pulsing;
  e.p_pulsing_since <- now;
  e.p_pulse_loss <- 0.;
  fp_mix_f t p;
  fp_mix_f t b;
  logf t "et: pulsing period=%.2f anchor=%.2f" p b;
  (* a strided subset of pulse bots, fresh keys: striding spreads the
     senders across upstream pods so no shared uplink dilutes their rate
     before it reaches the per-sender accounting, and each sender stays
     under threshold only when its pulse straddles an epoch boundary *)
  let sink = t.sinks.(0) in
  let nb = min et_pulse_bots (Array.length t.bots) in
  let stride = Stdlib.max 1 (Array.length t.bots / nb) in
  let per_bot = et_pulse_rate /. float_of_int nb in
  for i = 0 to nb - 1 do
    let bot = t.bots.(i * stride mod Array.length t.bots) in
    let key = fresh_key t in
    track t ~sink ~key;
    let em = new_emitter t ~src:bot ~dst:sink ~keys:[| key |] ~rate:per_bot ~probe:false in
    em.e_pulse <- true
  done

let et_leave_pulsing t e now =
  List.iter (fun em -> em.e_on <- false) !(t.emitters);
  e.p_onsets <- [];
  e.p_recals <- e.p_recals + 1;
  e.p_phase <- Calibrating;
  e.p_next_cal <- now +. et_gap t;
  logf t "et: recalibrating (#%d)" e.p_recals

let et_decide t (e : et_state) now =
  match e.p_phase with
  | Calibrating -> begin
    match e.p_cal with
    | Some (_, _, started) ->
      (* onset detection lives in the 50 ms watcher attached to the burst;
         here we only expire bursts that ran their full length un-policed *)
      if now -. started >= et_cal_len then begin
        et_end_cal t e ~onset:None;
        e.p_next_cal <- now +. et_gap t
      end
    | None ->
      if List.length e.p_onsets >= et_onsets_needed then et_enter_pulsing t e now
      else if now >= e.p_next_cal then et_begin_cal t e now
  end
  | Pulsing ->
    (* the 0.02 s transmit tick gates [e_pulse] emitters on the predicted
       blind window itself; the decision tick only watches for policing *)
    let loss =
      List.fold_left
        (fun acc em ->
          if em.e_pulse then Float.max acc (window_loss t em.e_keys.(0)) else acc)
        0. !(t.emitters)
    in
    e.p_pulse_loss <- (0.7 *. e.p_pulse_loss) +. (0.3 *. loss);
    if now -. e.p_pulsing_since > 3. *. e.p_period && e.p_pulse_loss > 0.5 then
      et_leave_pulsing t e now

(* ---------------- lifecycle ---------------- *)

let observe_tick t () =
  let now = Net.now t.net in
  if now >= t.start && now < t.stop then begin
    (* TCP sensor packets are probes too: they are the observation budget *)
    let s = Array.fold_left (fun acc f -> acc + Flow.Tcp.sent_packets f) 0 t.sensors in
    t.probes <- t.probes + (s - t.sensor_sent);
    t.sensor_sent <- s;
    (match t.state with
    | Hug h -> hug_decide t h now
    | Cp c -> cp_decide t c now
    | Et e -> et_decide t e now);
    roll_windows t
  end
  else if now >= t.stop then List.iter (fun e -> e.e_on <- false) !(t.emitters)

let launch net ~strategy ~bots ~targets ~sinks ~seed ~start ~stop =
  if bots = [] then invalid_arg "Adaptive.launch: no bots";
  let state =
    match strategy with
    | Threshold_hug ->
      Hug
        { h_phase = Ramping; h_rate = 0.; h_lo = hug_start_rate /. 2.; h_hi = infinity;
          h_retx = 0; h_trips = 0 }
    | Collision_probe ->
      Cp { c_trials = []; c_round_ends = 0.; c_found = []; c_bot_i = 0; c_rounds = 0 }
    | Epoch_time ->
      Et
        { p_phase = Calibrating; p_onsets = []; p_cal = None; p_next_cal = start;
          p_cal_bot = 0; p_period = 1.0; p_anchor = 0.; p_pulsing_since = 0.;
          p_pulse_loss = 0.; p_recals = 0 }
  in
  let bots = Array.of_list bots in
  let sensors =
    match strategy with
    | Threshold_hug ->
      (* one persistent low-rate sensor per target, started before the
         attack so the flows are aged when classification looks at them *)
      Array.of_list
        (List.mapi
           (fun i target ->
             Flow.Tcp.start net ~src:bots.(i mod Array.length bots) ~dst:target
               ~at:(Float.max 0.5 (start -. 5.)) ~max_cwnd:2. ())
           targets)
    | _ -> [||]
  in
  if strategy <> Threshold_hug && sinks = [] then invalid_arg "Adaptive.launch: no sinks";
  let t =
    {
      net;
      start;
      stop;
      bots;
      targets = Array.of_list targets;
      sinks = Array.of_list sinks;
      rng = Prng.create ~seed;
      emitters = ref [];
      keystats = Hashtbl.create 64;
      sensors;
      sensor_sent = 0;
      probes = 0;
      fp = seed;
      log = [];
      state;
    }
  in
  (match t.state with Hug h -> hug_setup t h | _ -> ());
  let engine = Net.engine net in
  Engine.every engine ~start ~period:tx_period (tx_tick t);
  Engine.every engine ~start:(start +. observe_period) ~period:observe_period (observe_tick t);
  t

let probes_sent t = t.probes
let log t = List.rev t.log

let fingerprint t =
  let fp = ref t.fp in
  let mix v = fp := Hash.mix ~seed:!fp ~lane:1 v in
  mix t.probes;
  List.iter (fun e -> mix e.e_seq) !(t.emitters);
  (match t.state with
  | Hug h ->
    mix h.h_trips;
    mix (Int64.to_int (Int64.bits_of_float h.h_rate));
    mix (Int64.to_int (Int64.bits_of_float h.h_lo))
  | Cp c ->
    mix c.c_rounds;
    mix (List.length c.c_found)
  | Et e ->
    mix (List.length e.p_onsets);
    mix e.p_recals;
    mix (Int64.to_int (Int64.bits_of_float e.p_period)));
  !fp

let summary t =
  match t.state with
  | Hug h ->
    Printf.sprintf "hug: rate=%.0f lo=%.0f hi=%s trips=%d"
      h.h_rate h.h_lo
      (if h.h_hi = infinity then "inf" else Printf.sprintf "%.0f" h.h_hi)
      h.h_trips
  | Cp c ->
    Printf.sprintf "cp: rounds=%d found=%d" c.c_rounds (List.length c.c_found)
  | Et e ->
    Printf.sprintf "et: onsets=%d period=%.2f recals=%d phase=%s"
      (List.length e.p_onsets) e.p_period e.p_recals
      (match e.p_phase with Calibrating -> "cal" | Pulsing -> "pulse")
