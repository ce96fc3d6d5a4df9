(** Network-wide heavy-hitter detection (paper section 3.3's distributed
    detection example; after Harrison et al., SOSR '18).

    Some attacks are invisible locally: a distributed flood sends moderate
    traffic toward one destination from many ingresses, so no single
    switch sees a heavy hitter. Each ingress counts per-destination bytes;
    the [Ff_modes.Sync] service floods the views periodically; every
    ingress then holds the {e network-wide} per-destination rate and can
    raise a volumetric alarm that no local counter could justify. *)

type t

val install :
  Ff_netsim.Net.t ->
  id:int ->
  ingresses:int list ->
  on_alarm:(Lfa_detector.alarm -> unit) ->
  on_clear:(Lfa_detector.alarm -> unit) ->
  t
(** Checks every 0.5 s and syncs every 0.25 s; an ingress whose global
    view holds a destination above 6 Mb/s raises a [Volumetric] alarm at
    itself, and clears it once its view falls back under. Local entries under
    100 kb/s are not advertised (the paper's "minimize synchronization"
    knob). Instances with distinct [id]s coexist on one net: the id names
    the counting stage ([nw-hh-counter-<id>]) and the sync probe class
    ([100 + id]). [Orchestrator.deploy] installs it for a
    [Network_wide_hh] defense, numbering from 1 within the deployment
    and passing the deployment's alarm sink. *)

val global_rate : t -> sw:int -> dst:int -> float
(** The ingress's estimate of the destination's network-wide inbound rate. *)

val local_rate : t -> sw:int -> dst:int -> float

val offenders : t -> int list
(** Destinations currently above threshold (globally). *)

val alarmed : t -> bool
(** Some ingress's alarm is up. *)

val sync_probes : t -> int
