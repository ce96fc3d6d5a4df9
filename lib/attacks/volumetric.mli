(** Volumetric DDoS: bots blast constant-bit-rate traffic straight at the
    victim, optionally with spoofed sources (which hop-count filtering
    catches: the spoofed source's expected TTL does not match the bot's
    real path length). *)

type t

val launch :
  Ff_netsim.Net.t ->
  bots:int list ->
  victim:int ->
  rate_pps_per_bot:float ->
  ?start:float ->
  ?spoof_as:int list ->
  unit ->
  t
(** From [start] (default 0). With [spoof_as], each bot claims a source
    identity drawn round-robin from the list, emitting with initial TTL
    48 (visibly different from the simulator's default 64). *)

val flows : t -> Ff_netsim.Flow.Cbr.t list
val packets_sent : t -> int
val stop_now : t -> unit
