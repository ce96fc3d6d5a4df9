module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Hashpipe = Ff_dataplane.Hashpipe
module Prng = Ff_util.Prng

type t = {
  net : Net.t;
  sw : int;
  epoch : float;
  threshold_bps : float;
  key_of : Packet.t -> int;
  pipe : Hashpipe.t;
  (* Hardening knobs (all inert at 0., keeping the default booster
     bit-identical): [epoch_jitter] perturbs each epoch's length by a
     uniform factor in [1-j, 1+j] so an epoch-timing adversary cannot
     predict the measurement boundaries; [threshold_jitter] shrinks the
     effective per-epoch threshold by up to that fraction so a hugger
     cannot sit just under it; [rotate_period] > 0 re-salts the HashPipe
     hash at the first epoch boundary after each period elapses, so
     probed collisions go stale within about an epoch. Rotating exactly
     at the boundary — after the offender scan and the reset — means a
     rotation never touches an epoch's accounting; mid-epoch reseeding
     would remap every live key and the resulting eviction churn loses
     counts faster than the attack does. *)
  epoch_jitter : float;
  threshold_jitter : float;
  rotate_period : float;
  (* [src_hold] > 0 makes offender marking sticky by *source*: any packet
     matching the offender list also brands its sender, and everything
     from a branded sender stays suspicious for [src_hold] seconds
     (refreshed on re-offense). Detection has an inherent one-epoch
     latency, so without this a patient attacker gets a free epoch of
     damage out of every fresh flow key; with it, a burned bot stays
     policed no matter how its flows are re-keyed or re-hashed. *)
  src_hold : float;
  held : (int, float) Hashtbl.t;
  rng : Prng.t;
  mutable next_rotate : float;
  mutable threshold_eff : float;
  mutable offenders : int list;
  mutable alarmed : bool;
  mutable epochs : int;
  mutable rotations : int;
  on_alarm : Lfa_detector.alarm -> unit;
  on_clear : Lfa_detector.alarm -> unit;
}

let stage t =
  {
    Net.stage_name = "heavy-hitter";
    process =
      (fun _ctx pkt ->
        (match pkt.Packet.payload with
        | Packet.Data ->
          Hashpipe.update t.pipe ~key:(t.key_of pkt) ~weight:(float_of_int pkt.Packet.size)
        | _ -> ());
        Net.Continue);
  }

let epoch_tick t () =
  (* bytes accumulated over one epoch -> bits/s *)
  let threshold_bytes = t.threshold_eff *. t.epoch /. 8. in
  let heavy = Hashpipe.heavy_hitters t.pipe ~threshold:threshold_bytes in
  t.offenders <- List.map fst heavy;
  t.epochs <- t.epochs + 1;
  (* while any source is still branded, the mitigation must stay armed —
     clearing the alarm would switch the dropper off mid-hold *)
  let holding =
    t.src_hold > 0.
    && Hashtbl.fold (fun _ until acc -> acc || until > Net.now t.net) t.held false
  in
  (match (heavy, t.alarmed) with
  | _ :: _, false ->
    t.alarmed <- true;
    t.on_alarm { Lfa_detector.switch = t.sw; attack = Packet.Volumetric }
  | [], true when not holding ->
    t.alarmed <- false;
    t.on_clear { Lfa_detector.switch = t.sw; attack = Packet.Volumetric }
  | _ -> ());
  if t.threshold_jitter > 0. then
    t.threshold_eff <- t.threshold_bps *. (1. -. Prng.float t.rng t.threshold_jitter);
  Hashpipe.reset t.pipe;
  if t.rotate_period > 0. then begin
    let now = Net.now t.net in
    if now >= t.next_rotate then begin
      t.rotations <- t.rotations + 1;
      t.next_rotate <- now +. t.rotate_period;
      Hashpipe.reseed t.pipe (Prng.int t.rng 0x3FFFFFFF)
    end
  end

let install net ~sw ?(epoch = 1.0) ~stages ~slots ~threshold_bps ~by_source ~epoch_jitter
    ~threshold_jitter ~rotate_period ~src_hold ~seed ~on_alarm ~on_clear () =
  let key_of =
    if by_source then fun (p : Packet.t) -> p.Packet.src else fun (p : Packet.t) -> p.Packet.flow
  in
  let t =
    {
      net;
      sw;
      epoch;
      threshold_bps;
      key_of;
      pipe = Hashpipe.create ~stages ~slots_per_stage:slots ();
      epoch_jitter;
      threshold_jitter;
      rotate_period;
      src_hold;
      held = Hashtbl.create 16;
      rng = Prng.create ~seed:(seed lxor (sw * 0x45D9F3B));
      next_rotate = rotate_period;
      threshold_eff = threshold_bps;
      offenders = [];
      alarmed = false;
      epochs = 0;
      rotations = 0;
      on_alarm;
      on_clear;
    }
  in
  Net.add_stage net ~sw (stage t);
  let engine = Net.engine net in
  if epoch_jitter <= 0. then Engine.every engine ~period:epoch (epoch_tick t)
  else begin
    (* Jittered epochs can't ride [Engine.every]'s fixed period: each tick
       draws the next epoch length, so the chain reschedules itself. *)
    let rec tick () =
      epoch_tick t ();
      let f = 1. -. t.epoch_jitter +. Prng.float t.rng (2. *. t.epoch_jitter) in
      Engine.after engine ~delay:(t.epoch *. f) tick
    in
    Engine.after engine ~delay:epoch tick
  end;
  t

let top t ~k =
  let all = Hashpipe.heavy_hitters t.pipe ~threshold:0. in
  List.filteri (fun i _ -> i < k) all

let offenders t = t.offenders
let alarmed t = t.alarmed
let rotations t = t.rotations

let mark_offenders_stage t =
  {
    Net.stage_name = "hh-marker";
    process =
      (fun _ctx pkt ->
        (match pkt.Packet.payload with
        | Packet.Data ->
          let offender = List.mem (t.key_of pkt) t.offenders in
          if offender then begin
            pkt.Packet.suspicious <- true;
            if t.src_hold > 0. then
              Hashtbl.replace t.held pkt.Packet.src (Net.now t.net +. t.src_hold)
          end
          else if t.src_hold > 0. then begin
            match Hashtbl.find_opt t.held pkt.Packet.src with
            | Some until when Net.now t.net < until -> pkt.Packet.suspicious <- true
            | Some _ -> Hashtbl.remove t.held pkt.Packet.src
            | None -> ()
          end
        | _ -> ());
        Net.Continue);
  }
