(** The Crossfire-style rolling link-flooding adversary (paper section 4;
    Kang et al., IEEE S&P '13).

    The attacker controls bot hosts and targets a victim it never sends a
    byte to: it maps paths to {e public decoy servers} near the victim with
    traceroute, picks the decoy group whose paths cross a chosen target
    link, and has every bot open many persistent low-rate TCP flows to
    those decoys — individually indistinguishable from legitimate traffic,
    collectively enough to flood the link.

    The {e rolling} behaviour: the attacker keeps tracerouting its decoys;
    when the observed path differs from the baseline it learned before
    attacking (i.e. the defense rerouted its flows), it shifts the flood to
    the next decoy group — faster than a periodic TE controller can chase.
    A [roll_schedule] can additionally force rolls at fixed times (the
    paper's rounds 1-3), making baseline and FastFlex runs face the same
    adversary timeline. *)

type t

val launch :
  Ff_netsim.Net.t ->
  bots:int list ->
  decoy_groups:int list list ->
  ?start:float ->
  ?stop:float ->
  ?flows_per_bot:int ->
  ?recon_interval:float ->
  ?roll_on_path_change:bool ->
  ?roll_schedule:float list ->
  unit ->
  t
(** Each decoy group is the set of public servers whose paths share one
    target link. Bot windows are capped at 4 packets (low-rate), and the
    attacker rolls at most once every 3 s. Defaults: 3 flows per bot,
    traceroute every 1 s, rolling on path change enabled. *)

val rolls : t -> float list
(** Times the attacker shifted target (oldest first). *)

val current_group : t -> int
val bot_flows : t -> Ff_netsim.Flow.Tcp.t list
(** Currently active attack flows. *)

val attack_rate : t -> now:float -> float
(** Aggregate goodput its flows achieve, bytes/s (what the attacker
    believes it is landing on the target). *)

val observed_paths : t -> (int * int list) list
(** Decoy -> last observed traceroute responders. *)

val stop_now : t -> unit

(** The rolling flood's {e volume} expressed as fluid aggregates in the
    hybrid tier: each bot offers a constant-rate aggregate toward every
    decoy of the current group, rolled between groups on a fixed schedule.
    The aggregates are [Fluid_only] — the defense observes them through
    link utilization (which folds in fluid load) instead of paying
    per-packet simulation cost for the flood itself; pair it with {!launch}
    for the packet-level recon/low-rate-TCP machinery the classifiers
    inspect. *)
module Fluid_volume : sig
  type t

  val launch :
    Ff_fluid.Hybrid.t ->
    bots:int list ->
    decoy_groups:int list list ->
    rate_bps_per_flow:float ->
    packet_size:int ->
    start:float ->
    stop:float ->
    roll_schedule:float list ->
    t

  val rolls : t -> float list
end
