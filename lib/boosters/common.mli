(** Conventions shared by all booster runtimes.

    A mode's activation is one interned flag bit per switch
    ({!Ff_netsim.Net.flag_mask}) named by [Ff_modes.Protocol.mode_var]:
    [Ff_modes.Protocol] writes it, the stages here read it — the loose
    coupling a real data plane has, where a mode bit in switch memory
    gates a table. *)

val mode_active : Ff_netsim.Net.switch -> string -> bool
(** [mode_active sw name] interns the name on every call; fine off the
    hot path (tests, periodic checks). Per-packet code should build the key
    once with {!mode_key} and test it with {!mode_on}. *)

val mode_key : string -> int
(** One-hot flag mask for mode [name], interned once at booster-install
    time. *)

val mode_on : Ff_netsim.Net.switch -> int -> bool
(** Single-[land] flag test over a key from {!mode_key} — the per-packet
    read path. *)

val set_mode : Ff_netsim.Net.switch -> string -> bool -> unit
(** Directly toggle a mode (tests and standalone examples; production
    paths go through the mode protocol). *)

(** Standard mode names used by the shipped boosters. *)

val mode_classify : string
(** LFA detector classifies and marks flows. *)

val mode_reroute : string
val mode_obfuscate : string
val mode_drop : string
val mode_hcf : string
val mode_acl : string
val mode_grl : string

val mode_syn_guard : string
(** SYN-cookie split-proxy interception at an edge switch. *)

(** {1 Local rate views}

    The local views the network-wide boosters advertise through
    [Ff_modes.Sync]: byte counters per (switch, key) over a 1 s window. *)

type local_rates

val local_rates : Ff_netsim.Net.t -> local_rates
val count : local_rates -> sw:int -> key:int -> float -> unit

val local_rate : local_rates -> sw:int -> key:int -> float
(** Bits/s; 0. for a pair never counted. *)

val local_view : local_rates -> sw:int -> (int * float) list
(** Every key counted at [sw], with its {!local_rate}. *)
