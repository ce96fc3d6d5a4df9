(** Topology obfuscation booster (paper section 4.1, after NetHide,
    USENIX Security '18).

    While the ["obfuscate"] mode is active, a switch about to answer a
    traceroute probe (TTL expiring here) answers with the hop the {e
    virtual} topology would have — the pre-attack default path — instead of
    its real identity. The attacker mapping the network keeps seeing the
    topology as it was before mitigation rerouted its flows, so a rolling
    attacker gets no signal to roll on (paper Figure 2 (c)-(d)). *)

type t

val install : Ff_netsim.Net.t -> virtual_path:(src:int -> dst:int -> int list option) -> t
(** [virtual_path ~src ~dst] returns the node list (hosts included) the
    virtual topology routes that pair over — typically the default-mode TE
    plan captured before the attack. Installed on every switch, ahead of
    TTL processing. *)

val obfuscated_replies : t -> int

