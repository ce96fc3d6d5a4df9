(** Hop-count filtering booster (after NetHCF, ICNP '19): line-rate
    spoofed-IP filtering.

    Packets from a source normally arrive with a stable TTL (initial TTL
    minus path length). The booster learns each source's expected arriving
    TTL (an EWMA of weight 0.3); in filtering mode (["hcf"]), packets
    whose TTL deviates by more than 2 hops are spoofed and dropped.

    Learning is {e reinforcement-only}: once a source has a fingerprint,
    only in-tolerance packets update it. This is NetHCF's defense against
    poisoning — without it, a spoofed flood arriving before the filter
    mode activates drags the estimate toward itself and the legitimate
    owner of the address gets filtered. Slow legitimate path changes stay
    within tolerance and still track. *)

type t

val install : Ff_netsim.Net.t -> sw:int -> t

val filtered : t -> int
val learned_sources : t -> int
