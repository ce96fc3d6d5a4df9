(** Pulsing (shrew-style) attack: short high-rate bursts with a low duty
    cycle, sized to repeatedly trip TCP's loss recovery while keeping a
    low average rate that evades simple volume thresholds. *)

type t

val launch :
  Ff_netsim.Net.t ->
  bots:int list ->
  victim:int ->
  burst_pps:float ->
  ?duty:float ->
  ?start:float ->
  unit ->
  t
(** Bursts every 1 s; defaults: 0.2 duty (200 ms bursts), from 0. *)

val flows : t -> Ff_netsim.Flow.Cbr.t list
val average_rate_pps : t -> float
