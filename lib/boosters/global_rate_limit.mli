(** Distributed global rate limiting (paper section 3.3, "Distributed
    detection"; after cloud control with distributed rate limiting,
    SIGCOMM '07).

    Some attacks are only visible network-wide: each participating switch
    counts a tenant's local bytes, and the [Ff_modes.Sync] service (probe
    class 0) floods its local rates every 0.2 s. Switches merge
    the views they receive, so each holds an estimate of the tenant's
    {e global} rate: its own local rate plus the other participants'
    fresh advertisements. While the
    ["grl"] mode is active (a [Volumetric] alarm's mode change switches it
    on, [Orchestrator.modes_for]), a tenant above its limit is policed
    probabilistically with drop probability [1 - limit/global] — the
    aggregate converges to the limit wherever the traffic enters. *)

type t

val install :
  Ff_netsim.Net.t ->
  participants:int list ->
  tenants:(int * int) list ->
  limits:(int * float) list ->
  t
(** [tenants] maps source hosts to tenants (unassigned sources are not
    policed); [limits] gives each tenant's global limit in bits/s.
    [Orchestrator.deploy] installs it for a [Global_rate_limit]
    defense. *)

val global_rate : t -> sw:int -> tenant:int -> float
(** The switch-local estimate of the tenant's network-wide rate (bits/s). *)

val local_rate : t -> sw:int -> tenant:int -> float
val dropped : t -> int
val sync_probes : t -> int
