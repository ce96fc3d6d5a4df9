(** The hybrid fluid/packet flow population.

    A {e member} is a long-lived flow that can be simulated at either
    fidelity: analytically in the {!Fluid} tier while it crosses only
    quiet regions, or packet-by-packet ({!Ff_netsim.Flow.Cbr} /
    {!Ff_netsim.Flow.Tcp}) while its path touches a {e hot} node — one
    inside an attacked / mode-changing / chaos-faulted region. Hot nodes
    are tracked as a per-node counter fed by {!mark_hot}/{!clear_hot} —
    for the common case from the mode protocol's applied transitions
    ([Ff_modes.Protocol.on_transition], which [Scenario.run] registers
    for a spec with a fluid population). Every hot-set change schedules a
    single coalesced re-evaluation sweep at the current instant that
    demotes/promotes the members whose tier no longer matches their path.

    Demotion detaches the member from the fluid tier (banking accrued
    bytes) and starts a real packet flow at the current time; TCP members
    restart from a fresh congestion-window epoch (documented fidelity
    seam). Promotion silences the packet flow but {e retires} its handle
    instead of dropping it — packets still in flight keep landing on the
    retired flow's counter — and re-attaches the fluid flow, so
    {!delivered_bytes} is exactly conserved across any number of
    round-trips.

    Forcing: {!force} [All_packet] makes {!add_flow} call the packet-flow
    constructors directly — same calls, same order, no fluid bookkeeping,
    no extra events — so a forced-packet hybrid run is bit-identical to
    the pre-hybrid engine (a QCheck property in [test_fluid] holds this). *)

type force =
  | Auto  (** fluid while cold, packet while hot (the hybrid proper) *)
  | All_packet  (** bit-identical to the pure packet engine *)
  | All_fluid  (** never demote (fluid-only populations / upper bound) *)

(** Per-member tier policy, for members whose fidelity is a modelling
    choice rather than a function of region state: attack volume launched
    as a fluid aggregate stays [Fluid_only] (the defense sees it through
    link utilization), while a flow under per-packet scrutiny can be
    pinned [Packet_only]. *)
type tier = Tier_auto | Fluid_only | Packet_only

type profile =
  | Cbr of { rate_pps : float; packet_size : int }
  | Tcp of { max_cwnd : float; packet_size : int }

type t

type member
(** A member is a dense integer handle into per-member columns of its [t]:
    a state byte (tier and flags), fluid flow id, packet slot, the next
    member of its path-class bucket, and the profile value it was added
    with (members added with one value share it); an admitted member's
    endpoints are those of its fluid class. Packet-level flows and the
    demotion count live in a slot that exists only for members that have
    been at packet level. A handle is meaningful only with the [t] that
    issued it, so every per-member accessor takes that [t] first. Handles
    are issued in add order: the members returned by consecutive
    {!add_flow} calls form a contiguous range (see
    {!sum_delivered_bytes}).

    Three orders are part of the simulation's output and are kept
    exactly: the demote/promote sweep visits path-class buckets in the
    order of a [Hashtbl] keyed by fluid class id, and the members of a
    bucket newest first; {!sum_delivered_bytes}
    adds members oldest first. *)

(** [update_period] is passed through to {!Fluid.create} (default
    solver); loss coupling ({!Fluid.enable_loss_coupling}) is always
    installed.
    [demote_budget] caps how many [Tier_auto] members may be concurrently
    demoted to the packet tier (default unlimited): at 10^6-flow scale an
    attack crossing most paths would otherwise flip the population to
    packet level and erase the fluid tier's throughput win. Members denied
    by the budget stay on the fluid tier and are counted in
    {!demote_denied}; [Packet_only] members are never denied. *)
val create :
  ?force:force ->
  ?update_period:float ->
  ?demote_budget:int ->
  Ff_netsim.Net.t ->
  unit ->
  t
val net : t -> Ff_netsim.Net.t
val fluid : t -> Fluid.t

val add_flow :
  t -> src:int -> dst:int -> ?at:float -> ?tier:tier -> profile -> member
(** Admit a member at time [at] (default now; scheduling is only used when
    [at] is in the future and the member is not forced to packet level).
    {!stop_member} retires it. Passing one profile value for many members
    lets them share it. *)

val stop_member : t -> member -> unit
(** Permanently retire a member now (delivered bytes stay readable). *)

val delivered_bytes : t -> member -> float
(** Bytes delivered across every fluid span and packet span (including
    retired packet flows), conserved across demote/promote round-trips. *)

val sum_delivered_bytes : t -> first:member -> count:int -> float
(** [sum_delivered_bytes t ~first ~count] is the sum of {!delivered_bytes}
    over the [count] members added consecutively from [first], bit for bit
    equal to folding [acc +. delivered_bytes t m] oldest first from [0.]
    (each member's term is its fluid part plus its packet part). It reads
    every packet slot once, advances the fluid tier once, and allocates
    nothing for members that never left the fluid tier — the goodput probe
    of a 10^6-member population. Raises [Invalid_argument] when the range
    leaves the population. *)

val is_demoted : t -> member -> bool

val mark_hot : t -> node:int -> unit
(** Increment a node's hot counter (counters nest: overlapping attacks /
    faults each contribute); schedules a coalesced re-evaluation sweep. *)

val clear_hot : t -> node:int -> unit

(** {2 Accounting} *)

val demoted_count : t -> int
(** Members currently at packet level due to demotion (excludes
    [Packet_only]/[All_packet] members). *)

val demoted_peak : t -> int
val demotions : t -> int
val promotions : t -> int

val demote_denied : t -> int
(** Demotions suppressed by the [demote_budget] cap. While the budget is
    spent, a hot path class with members already demoted counts each
    member it still holds on the fluid tier at every sweep; one with none
    demoted is denied wholesale, counting all its members once, as it
    turns hot. A sweep that finds budget free demotes what the hot
    classes still hold. *)

val check_buckets : t -> (unit, string) result
(** Recounts, from member state, each path class's live (attached and
    not done) and demoted [Tier_auto] members, and compares them with the
    counts the sweep keeps. The sweep costs O(classes) plus, per class it
    walks, the members up to the last one it demotes or promotes; it
    relies on these counts to stop. [Error] names the first class that
    disagrees. *)
