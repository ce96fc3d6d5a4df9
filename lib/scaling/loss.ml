module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet

type class_filter = All | Control_only | Data_only | State_chunks_only | Mode_probes_only

type model =
  | Bernoulli
  | Gilbert_elliott of { p_gb : float; p_bg : float; good_loss : float; bad_loss : float }

type t = {
  prob : float;
  model : model;
  rng : Ff_util.Prng.t;
  classes : class_filter;
  mutable enabled : bool;
  mutable dropped : int;
  mutable seen : int;
  (* Gilbert–Elliott chain state + burst-run statistics *)
  mutable bad : bool;
  mutable cur_burst : int;
  mutable bursts : int;
  mutable burst_total : int;
}

let matches t (pkt : Packet.t) =
  match t.classes with
  | All -> true
  | Control_only -> Packet.is_control pkt
  | Data_only -> not (Packet.is_control pkt)
  | State_chunks_only -> (
    match pkt.Packet.payload with Packet.State_chunk _ -> true | _ -> false)
  | Mode_probes_only -> (
    match pkt.Packet.payload with Packet.Mode_probe _ -> true | _ -> false)

(* One decision per matched packet. Bernoulli draws once (bit-compatible
   with the pre-model rng stream); the Gilbert–Elliott chain draws for the
   loss and then for the state transition, stepping the two-state Markov
   chain per packet — loss arrives in bursts whose length is geometric
   with mean 1/p_bg while the chain sits in the bad state. *)
let decide t =
  match t.model with
  | Bernoulli -> Ff_util.Prng.float t.rng 1. < t.prob
  | Gilbert_elliott { p_gb; p_bg; good_loss; bad_loss } ->
    let loss_p = if t.bad then bad_loss else good_loss in
    let drop = loss_p > 0. && Ff_util.Prng.float t.rng 1. < loss_p in
    (if t.bad then begin
       if Ff_util.Prng.float t.rng 1. < p_bg then t.bad <- false
     end
     else if Ff_util.Prng.float t.rng 1. < p_gb then t.bad <- true);
    drop

let note_burst t drop =
  if drop then t.cur_burst <- t.cur_burst + 1
  else if t.cur_burst > 0 then begin
    t.bursts <- t.bursts + 1;
    t.burst_total <- t.burst_total + t.cur_burst;
    t.cur_burst <- 0
  end

let install net ~sw ~prob ?(seed = 99) ?(classes = All) ?(model = Bernoulli) () =
  assert (prob >= 0. && prob <= 1.);
  (match model with
  | Bernoulli -> ()
  | Gilbert_elliott { p_gb; p_bg; good_loss; bad_loss } ->
    assert (p_gb >= 0. && p_gb <= 1. && p_bg > 0. && p_bg <= 1.);
    assert (good_loss >= 0. && good_loss <= 1. && bad_loss >= 0. && bad_loss <= 1.));
  let t =
    { prob; model; rng = Ff_util.Prng.create ~seed:(seed + sw); classes;
      enabled = true; dropped = 0; seen = 0; bad = false; cur_burst = 0;
      bursts = 0; burst_total = 0 }
  in
  Net.add_stage ~front:true net ~sw
    {
      Net.stage_name = "loss-injection";
      process =
        (fun _ctx pkt ->
          if t.enabled && matches t pkt then begin
            t.seen <- t.seen + 1;
            let drop = decide t in
            note_burst t drop;
            if drop then begin
              t.dropped <- t.dropped + 1;
              Net.Drop "injected-loss"
            end
            else Net.Continue
          end
          else Net.Continue);
    };
  t

let dropped t = t.dropped
let seen t = t.seen
let set_enabled t on = t.enabled <- on

let bursts t = t.bursts + (if t.cur_burst > 0 then 1 else 0)

let mean_burst_len t =
  let n = bursts t in
  if n = 0 then 0. else float_of_int (t.burst_total + t.cur_burst) /. float_of_int n
