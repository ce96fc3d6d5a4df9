(** Analytic (fluid) flow populations for the hybrid simulation tier.

    Steady-state flows are not simulated packet by packet. Instead they are
    grouped into {e path classes} — flows sharing (src, dst, kind) follow
    the same cached route and receive the same per-flow rate — and the
    whole population advances analytically between {e rate events}: a rate
    event re-solves a progressive max-min filling over the links each
    class crosses, and between events every class accrues delivered bytes
    linearly at its solved rate.

    {b The solver is incremental.} It keeps the bottleneck structure of the
    last solve in dense arrays keyed by directed-link index
    ({!Ff_netsim.Net.link_index}): per-link availability, member-weighted
    bound demand, and a class↔link incidence graph. Max-min decomposes
    exactly along {e contended} links (demand > availability — the only
    links that can saturate during filling): classes crossing no contended
    link take their bound outright, the rest split into connected
    components through shared contended links, each water-filled with its
    own level in a canonical order. A solve therefore re-fills only the
    components reachable from dirtied inputs — membership changes, AIMD cap
    motion, packet-rate drift on a link, re-routes, packet-loss events —
    and splices the result into the untouched global solution {e
    bit-identically} to a from-scratch solve (enforced by a QCheck
    differential property against {!Always_full}). When the dirty region
    covers more than [full_frac] of the active classes, it falls back to a
    full solve; {!solver_stats} reports how much work each path took.

    Coupling with the packet tier is bidirectional:

    - each solve subtracts the measured packet rate
      ({!Ff_netsim.Net.link_packet_bps_i}) from a link's capacity before
      filling, so packet traffic displaces fluid traffic;
    - the solved per-link fluid load is pushed into the packet engine via
      {!Ff_netsim.Net.set_fluid_load_i}, where it consumes transmit capacity
      and folds into {!Ff_netsim.Net.utilization}, so detectors and queues
      see fluid floods;
    - with {!enable_loss_coupling}, queue-overflow drops in the packet
      tier cut the AIMD cap of adaptive classes crossing the dropping
      link (multiplicative halving, at most once per RTT).

    Rate semantics: [Constant] classes offer a fixed rate (CBR-like; any
    shortfall under congestion is simply not delivered — fluid "drops"),
    [Adaptive] classes model TCP-class AIMD. The cap is closed-form —
    [cap(t) = min(max_rate, base + (mss/rtt²)·(t − t0))] with [base]/[t0]
    reset on each cut — so its value never depends on how often the solver
    ran, which is what makes lazy (incremental) and eager (full) solving
    agree bitwise.

    Determinism: the population only schedules engine events while at
    least one flow is attached. A simulation that never attaches a fluid
    flow therefore runs the exact same event sequence as one without the
    fluid tier at all — the bit-identity anchor for the hybrid engine. *)

type kind =
  | Constant of { rate : float }  (** offered per-flow rate, bits/s *)
  | Adaptive of { rtt : float; max_rate : float }
      (** AIMD-capped per-flow rate: additive increase one MSS/RTT each
          RTT, multiplicative back-off toward the bottleneck share (or on
          packet loss, see {!enable_loss_coupling}); [max_rate] models the
          receive-window ceiling, bits/s *)

type solver_mode =
  | Incremental
      (** re-fill only the components reachable from dirtied inputs *)
  | Always_full  (** re-fill everything at every solve (the reference) *)

type solver_stats = {
  solves : int;  (** solver passes that had work to do *)
  skipped : int;  (** passes where nothing was dirty (solution kept) *)
  full_solves : int;  (** passes that fell back to (or forced) a full fill *)
  touched_classes : int;  (** cumulative classes re-assigned across solves *)
  seen_classes : int;  (** cumulative active classes across solves *)
  loss_cuts : int;  (** AIMD cuts triggered by packet-tier drops *)
  max_component : int;  (** largest water-filled component *)
}

type t

type flow = int
(** A flow is a dense integer handle into per-flow columns of its [t]:
    class id, attached flag, and unboxed banked-bytes and join-point
    columns. A handle is meaningful only together with the [t] that
    issued it, so every per-flow accessor takes that [t] first. Handles
    are issued in add order and stay valid until {!clear}. The handle is
    a plain [int] so that a caller can keep flow ids in its own column
    and pass that column to {!sum_delivered_bytes}; an accessor given an
    int this population did not issue raises [Invalid_argument]. *)

val create :
  ?update_period:float ->
  ?solver:solver_mode ->
  ?full_frac:float ->
  Ff_netsim.Net.t ->
  unit ->
  t
(** [update_period] (default 0.25 s) is the background re-solve period
    that keeps fluid rates coupled to drifting packet-tier load; population
    changes additionally trigger a solve at the time of the change (batched
    per instant). AIMD additive increase adds one 1500 B segment per RTT
    every RTT. [solver] (default {!Incremental}) selects the
    solving strategy — both produce bit-identical rates. [full_frac]
    (default 0.6) is the touched-classes fraction past which an incremental
    pass falls back to a full fill. *)

val add : t -> src:int -> dst:int -> kind -> flow
(** Admit a flow (attached immediately); its path class is created on
    first use and the route resolved from the packet tier's current
    routing state. The same (src, dst, kind) — kinds compared field by
    field with [Float.equal] — always maps to the same class, and class
    ids are assigned in first-add order. The lookup hashes the (src, dst)
    pair as one int, so it allocates nothing for an existing class.
    Raises [Invalid_argument] when [src] or [dst] is not a node of the
    net's topology. *)

val detach : t -> flow -> unit
(** Take the flow out of the fluid population (demotion to packet level).
    Accrued bytes up to now are banked first; no-op if detached. *)

val attach : t -> flow -> unit
(** Re-admit a detached flow (promotion back from packet level); accrual
    restarts from the current instant. No-op if already attached. *)

val is_attached : t -> flow -> bool
val src : t -> flow -> int
val dst : t -> flow -> int

val class_id : t -> flow -> int
(** Dense id of the flow's path class, stable for the population's
    lifetime — the hybrid tier's bucketing key. *)

val path_crosses : t -> flow -> f:(int -> bool) -> bool
(** [path_crosses t fl ~f] is true when some node on the flow's cached
    route satisfies [f]. Allocation-free. *)

val rate : t -> flow -> float
(** Per-flow allocated rate (bits/s) from the most recent solve; 0. while
    detached. *)

val cap : t -> flow -> float
(** The class's AIMD cap as of the most recent solve ([Adaptive]); the
    offered rate for [Constant] classes. *)

val delivered_bytes : t -> flow -> float
(** Cumulative bytes delivered across all attachment spans, accrued up to
    the current simulation time. *)

val sum_delivered_bytes :
  t ->
  flows:flow array ->
  first:int ->
  count:int ->
  extra:float array ->
  extra_of:int array ->
  float
(** The batched form of {!delivered_bytes} for a caller that keeps flow
    ids in a column: over [i] from [first] to [first + count - 1], it
    folds [acc +. (fluid_part +. extra_part)] from [0.], where
    [fluid_part] is [delivered_bytes t flows.(i)] and [extra_part] is
    [extra.(extra_of.(i))]; a negative flow id or extra index contributes
    [0.]. It advances once and allocates nothing. Raises
    [Invalid_argument] when the range leaves [flows] or [extra_of], or an
    index leaves [extra] or the population. *)

val recompute : t -> unit
(** Advance accruals to now and re-solve rates synchronously. Callers that
    batch several population changes at one instant (the hybrid tier's
    demote/promote sweeps) call this once at the end of the batch. *)

val refresh_paths : t -> unit
(** Re-resolve every class's route from the packet tier (after reroutes or
    mode changes). Accruals are advanced first; rates refresh on the next
    solve. *)

val clear : t -> unit
(** Reset the population for engine reuse (after {!Ff_netsim.Engine.clear}):
    drops all classes and flows, zeroes the fluid loads pushed into the
    packet tier, and resets statistics — while keeping the dense per-link
    scratch allocated, so a cleared instance re-runs without re-allocating.
    Outstanding {!flow} handles become invalid. *)

(** {2 Dirty-set API}

    External inputs that invalidate part of the solution mark it dirty
    here instead of forcing a full re-solve; the next solver pass re-fills
    exactly the affected components. *)

val mark_link_dirty : t -> int -> unit
(** Mark a directed link (by {!Ff_netsim.Net.link_index}) as having
    changed externally — e.g. a capacity or background-load change the
    drift scan would otherwise only notice later. Out-of-range indices are
    ignored. *)

val enable_loss_coupling : t -> unit
(** Install this population as the net's drop hook
    ({!Ff_netsim.Net.set_drop_hook}): queue-overflow drops mark the link
    and cut the AIMD cap of adaptive classes crossing it at the next
    solve. The hook mutates only solver-side flags — packet-tier behavior
    and the All_packet bit-identity anchor are unaffected. *)

(** {2 Population statistics} *)

val classes : t -> int

val total_delivered_bytes : t -> float
(** Aggregate bytes delivered by the whole population since creation
    (including spans of flows later detached or removed). *)

val hop_bytes : t -> float
(** Aggregate bytes x links-traversed — the fluid tier's work measure; one
    packet-equivalent is [packet_size] hop-bytes. *)

val rate_events : t -> int
(** Number of solver invocations (including skipped ones). *)

val solver_stats : t -> solver_stats

val touched_frac : t -> float
(** [touched_classes / seen_classes] — the fraction of active classes the
    solver actually re-assigned, cumulatively. 1.0 means every solve was
    effectively full. *)

val dump_rates : t -> (int * float * float) list
(** [(class id, per-flow rate, cap)] for every class, in id order — the
    differential tests' bitwise comparison surface. *)
