(** Packet-dropping / rate-limiting booster (paper section 4.1,
    "Packet-dropping defense", and step (5), the "illusion of success").

    While the ["drop"] mode is active, packets marked suspicious pass
    through a per-flow token-bucket meter (12 kB of burst); traffic beyond
    [rate_limit] (bits/s) is dropped. On top, a deterministic pseudo-random [drop_prob] discards a
    fraction of the remaining suspicious packets so that the attacker keeps
    observing loss on its flows even after rerouting has relieved the
    target link — and so keeps believing the attack works. *)

type t

val install : Ff_netsim.Net.t -> sw:int -> rate_limit:float -> drop_prob:float -> t

val dropped : t -> int
val metered_flows : t -> int
