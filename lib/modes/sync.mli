(** Distributed detection synchronization (paper section 3.3: "FastFlex
    needs to additionally synchronize different detectors' views
    periodically, e.g., similarly using probing packets").

    A generic service: each participating switch contributes a local view
    (integer-keyed float summaries — per-flow byte counts, per-tenant
    rates, serialized sketch cells); every [period] the views flood the
    network in sync probes; each participant merges what it hears, so
    every detector holds an approximation of the network-wide aggregate.

    The "minimizing synchronization" knob from the paper is [threshold]:
    entries below it are not advertised, trading detection sensitivity for
    probe volume. *)

type t

val create :
  Ff_netsim.Net.t ->
  participants:int list ->
  period:float ->
  local_view:(sw:int -> (int * float) list) ->
  ?threshold:float ->
  ?staleness:float ->
  ?period_jitter:float ->
  ?seed:int ->
  ?probe_class:int ->
  unit ->
  t
(** [local_view ~sw] is polled at each round. [threshold] (default 0.)
    suppresses small entries from probes. Remote entries older than
    [staleness] (default 3 periods) no longer count. [probe_class]
    disambiguates multiple sync services on one network (default 1).
    [period_jitter] > 0 draws each advertisement gap uniformly from
    [period*(1-j), period*(1+j)] (seeded, deterministic) so an adversary
    cannot learn and straddle the sync cadence; 0. (default) keeps the
    fixed-period schedule bit-identical. *)

val global_value : t -> sw:int -> key:int -> float
(** [sw]'s current estimate of the network-wide sum for [key]: its own
    live local view plus the freshest advertisement from every other
    participant. *)

val global_view : t -> sw:int -> (int * float) list
(** All keys with a non-zero global estimate at [sw], sorted by key. *)

val remote_contribution : t -> sw:int -> key:int -> float
(** The non-local part of [global_value]. *)

val rounds : t -> int
val probes_sent : t -> int
