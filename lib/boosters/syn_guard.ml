module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow
module Packet = Ff_dataplane.Packet
module Cuckoo = Ff_dataplane.Cuckoo
module Hash = Ff_dataplane.Hash
module Prng = Ff_util.Prng

(* CuckooGuard-style split-proxy SYN defense. The data-plane agent sits at
   the protected server's edge switch: while the syn_guard mode is active
   it absorbs every SYN toward the server and answers with a stateless
   SYN-cookie, validates the returning handshake ack, and admits the flow
   into a cuckoo-filter tracker; data of flows the tracker does not know
   is dropped at the switch. The server-side agent is the listener's
   [trust_validated] flag: a validated ack forwarded by the edge
   establishes directly — the server's accept backlog never sees the
   flood. *)

let check_period = 0.1

type t = {
  net : Net.t;
  sw : int;
  protect : int;
  tracker : Cuckoo.t;
  mode : int;  (* interned syn_guard mode bit *)
  syn_threshold_pps : float;
  clear_hold : float;
  threshold_jitter : float;
  prng : Prng.t;
  mutable secret : int;
  mutable prev_secret : int;
  mutable eff_threshold : float;
  mutable syn_seen : int;  (* SYNs toward [protect] since the last check *)
  mutable alarmed : bool;
  mutable low_since : float;
  on_alarm : Lfa_detector.alarm -> unit;
  on_clear : Lfa_detector.alarm -> unit;
  mutable cookies_sent : int;
  mutable validated : int;
  mutable rejected : int;
  mutable unverified_drops : int;
  mutable insert_failures : int;
  mutable deletions : int;
}

(* One tracker key per connection: the flow id is the 5-tuple surrogate,
   salted with the claimed source so a colliding id from another host
   does not alias. *)
let flow_key (pkt : Packet.t) = (pkt.Packet.flow * 0x9E3779B9) lxor pkt.Packet.src

let cookie t (pkt : Packet.t) ~secret =
  let c = Hash.mix ~seed:secret ~lane:3 (flow_key pkt) in
  ignore t;
  if c = 0 then 1 else c

let cookie_valid t pkt c =
  c <> 0 && (c = cookie t pkt ~secret:t.secret || c = cookie t pkt ~secret:t.prev_secret)

let guard_stage t =
  let protect = t.protect in
  {
    Net.stage_name = "syn-guard";
    process =
      (fun ctx (pkt : Packet.t) ->
        if pkt.Packet.dst <> protect then Net.Continue
        else begin
          (* the SYN rate is observed whether or not the mode is active —
             it is what raises the alarm in the first place *)
          (match pkt.Packet.payload with
          | Packet.Syn -> t.syn_seen <- t.syn_seen + 1
          | _ -> ());
          if not (Common.mode_on ctx.Net.sw t.mode) then Net.Continue
          else
            match pkt.Packet.payload with
            | Packet.Syn ->
              (* stateless proxy: answer with a cookie, keep nothing *)
              t.cookies_sent <- t.cookies_sent + 1;
              let reply =
                Packet.make_control
                  ~payload:(Packet.Syn_ack { cookie = cookie t pkt ~secret:t.secret })
                  ~src:protect ~dst:pkt.Packet.src ~flow:pkt.Packet.flow
              in
              Net.inject_at_switch t.net ~sw:t.sw reply;
              Net.Absorb
            | Packet.Handshake_ack { cookie = c } ->
              if cookie_valid t pkt c then begin
                t.validated <- t.validated + 1;
                if not (Cuckoo.insert t.tracker (flow_key pkt)) then
                  t.insert_failures <- t.insert_failures + 1;
                Net.Continue
              end
              else begin
                t.rejected <- t.rejected + 1;
                Net.Drop "bad-cookie"
              end
            | Packet.Fin ->
              if Cuckoo.delete t.tracker (flow_key pkt) then
                t.deletions <- t.deletions + 1;
              Net.Continue
            | Packet.Data | Packet.Ack _ ->
              if Cuckoo.member t.tracker (flow_key pkt) then Net.Continue
              else begin
                t.unverified_drops <- t.unverified_drops + 1;
                Net.Drop "unverified-flow"
              end
            | _ -> Net.Continue
        end);
  }

let check t () =
  let rate = float_of_int t.syn_seen /. check_period in
  t.syn_seen <- 0;
  (* threshold jitter (hardening): deny a threshold-hugging flood a
     stable safe rate by redrawing the effective threshold each check *)
  if t.threshold_jitter > 0. then
    t.eff_threshold <-
      t.syn_threshold_pps *. (1. -. Prng.float t.prng t.threshold_jitter);
  let now = Net.now t.net in
  if rate > t.eff_threshold then begin
    t.low_since <- infinity;
    if not t.alarmed then begin
      t.alarmed <- true;
      t.on_alarm { Lfa_detector.switch = t.sw; attack = Packet.Synflood }
    end
  end
  else if t.alarmed then begin
    if t.low_since = infinity then t.low_since <- now;
    if now -. t.low_since >= t.clear_hold then begin
      t.alarmed <- false;
      t.low_since <- infinity;
      t.on_clear { Lfa_detector.switch = t.sw; attack = Packet.Synflood }
    end
  end

let rotate t () =
  t.prev_secret <- t.secret;
  t.secret <- (Prng.int t.prng max_int lor 1)

let install net ~sw ~protect ~tracker_capacity ~syn_threshold_pps ~clear_hold
    ~threshold_jitter ~rotate_period ~seed ~on_alarm ~on_clear =
  let prng = Prng.create ~seed:(seed lxor (sw * 0x9E3779B9)) in
  let t =
    {
      net;
      sw;
      protect;
      tracker = Cuckoo.create ~seed ~capacity:tracker_capacity ();
      mode = Common.mode_key Common.mode_syn_guard;
      syn_threshold_pps;
      clear_hold;
      threshold_jitter;
      prng;
      secret = Prng.int prng max_int lor 1;
      prev_secret = 0;
      eff_threshold = syn_threshold_pps;
      syn_seen = 0;
      alarmed = false;
      low_since = infinity;
      on_alarm;
      on_clear;
      cookies_sent = 0;
      validated = 0;
      rejected = 0;
      unverified_drops = 0;
      insert_failures = 0;
      deletions = 0;
    }
  in
  Net.add_stage net ~sw (guard_stage t);
  Engine.every (Net.engine net) ~period:check_period (check t);
  if rotate_period > 0. then Engine.every (Net.engine net) ~period:rotate_period (rotate t);
  t

let attach_server_agent t listener =
  (* the host half of the split proxy: follow the edge switch's mode so
     validated acks establish without a backlog entry *)
  let sw_rec = Net.switch t.net t.sw in
  Engine.every (Net.engine t.net) ~period:check_period (fun () ->
      Flow.Listener.set_trust_validated listener (Common.mode_on sw_rec t.mode))

let tracker t = t.tracker
let alarmed t = t.alarmed
let cookies_sent t = t.cookies_sent
let validated t = t.validated
let rejected t = t.rejected
let unverified_drops t = t.unverified_drops
let insert_failures t = t.insert_failures
let deletions t = t.deletions
