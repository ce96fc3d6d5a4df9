(** Deterministic, seeded fault injection for the in-band control
    channels — plus the invariant checker that says whether the system
    healed.

    FastFlex moves mode probes and state chunks over the very data plane
    that is under attack, so the conditions that make those channels
    necessary (loss, congestion, failing links) are exactly the
    conditions they must survive. This harness drives the existing [Net]
    failure model ([set_link_up] / [set_switch_up]) and [Loss] stages
    from scripted and randomized schedules: link flaps with configurable
    dwell, switch crashes and recoveries, regional partitions, correlated
    burst loss, and targeted probe loss. Every applied action is
    timestamped in {!log} and emitted as an [Ff_obs.Event.Fault], so a
    trace shows the full fault → detection → repair timeline next to the
    [Repair] events the healing layers emit.

    Everything is driven by one seeded [Prng]: the same seed, schedule
    and workload replay the identical run. *)

type t

type action =
  | Link_down of int * int
  | Link_up of int * int
  | Switch_down of int
  | Switch_up of int

val create : ?seed:int -> Ff_netsim.Net.t -> t
(** A harness over the network. [seed] (default 1) drives dwell/stagger
    randomization in the generators. *)

val at : t -> time:float -> action -> unit
(** Schedule an action at an absolute simulation time. *)

val log : t -> (float * action) list
(** Every applied action with its application time, oldest first. *)

val injected : t -> int
(** Number of actions applied so far. *)

val strategic :
  t -> period:float -> start:float -> until:float -> decide:(unit -> action list) -> unit
(** Condition-driven fault scheduling: poll [decide] every [period]
    seconds in [start, until] and apply the actions it returns. The hook
    that turns random faults into strategic ones — an adaptive adversary
    ({!Ff_attacks.Adaptive}) exposes its belief state (e.g.
    "mitigation detected"), and [decide] converts it into targeted
    faults such as cutting a detour link exactly while the defense is
    rerouting. Applied actions are logged and traced like any other. *)

val action_to_string : action -> string

(** {1 Schedule generators} *)

val flap_link :
  t -> a:int -> b:int -> start:float -> until:float -> down_dwell:float -> up_dwell:float -> unit
(** Cycle the a-b link down/up from [start]: down for [down_dwell], up
    for [up_dwell], repeating while the next cut would land before
    [until]. The link is always left up afterwards. *)

val crash_switch : t -> sw:int -> at:float -> recover_after:float -> unit
(** Take the switch down at [at]; bring it back [recover_after] later. *)

val random_link_flaps :
  t -> n:int -> start:float -> until:float -> mean_down:float -> mean_up:float -> unit
(** Pick [n] distinct switch-switch links with the harness rng and flap
    each with exponentially distributed dwells (means [mean_down] /
    [mean_up]), staggered starts. Links are restored by [until]. *)

val partition : t -> groups:int list list -> at:float -> heal_at:float -> unit
(** At [at], cut every link whose endpoints sit in two different listed
    groups (nodes absent from every group keep all their links); restore
    exactly those links at [heal_at]. *)

val burst_loss :
  t ->
  sw:int ->
  start:float ->
  until:float ->
  loss:float ->
  mean_burst:float ->
  ?classes:Ff_scaling.Loss.class_filter ->
  unit ->
  Ff_scaling.Loss.t
(** Correlated (Gilbert–Elliott) loss at a switch, active only in
    [start, until): drops arrive in bursts of mean length [mean_burst]
    with long-run rate [loss]. Returns the underlying [Loss] stage for
    its statistics. *)

val drop_first_probe_per_epoch : t -> a:int -> b:int -> unit
(** Adversarial link: both directions of a-b drop the {e first} mode
    probe of every distinct (attack, epoch, activate) that crosses, and
    pass everything else — the exact failure anti-entropy exists for
    (fire-and-forget flooding never converges across such a link). *)

(** {1 Invariants} *)

val watch : t -> unit
(** Install a packet-conservation tracer (replaces any tracer set via
    [Net.set_tracer]). Call before traffic starts; {!check_quiescence}
    then verifies that every packet transmitted since was received by a
    switch, delivered to a host, or dropped at a down switch. *)

val check_quiescence :
  t ->
  ?protocol:Ff_modes.Protocol.t ->
  ?origins:(Ff_dataplane.Packet.attack_kind * int) list ->
  ?transfers:Ff_scaling.Transfer.t list ->
  unit ->
  string list
(** Run after fault injection has stopped and the engine has drained (no
    packets in flight). Returns human-readable violations, [[]] when the
    system healed:

    - {e no stuck advert} (when [protocol] is given): every anti-entropy
      advert has been confirmed by all its neighbors
      ([Protocol.pending_adverts] is 0) — otherwise some switch keeps
      re-advertising forever to a peer that never acked;
    - {e no half-activated region}: for each [(attack, origin)] in
      [origins], every live switch within [Protocol.region_ttl] hops of
      [origin] over the live graph agrees with the origin's latest known
      epoch ([Protocol.known_epoch]);
    - {e no stuck transfer}: each listed transfer is either [complete] or
      [failed];
    - {e packet conservation} (when {!watch} was armed): transmissions =
      switch arrivals + host deliveries + down-switch drops. Traceroute
      probes terminate outside this accounting — keep them out of chaos
      scenarios. *)

(** {1 Schedule specs}

    The CLI wires chaos in as [--chaos "<spec>"]: semicolon-separated
    directives over named or numeric nodes.

    {v
    seed=7                         harness seed
    cut:s2-s3@1.0                  link down at t=1
    heal:s2-s3@4.0                 link up at t=4
    crash:s5@2.0+1.5               switch down at t=2, up at t=3.5
    flap:s1-s2@1.0..6.0/0.3/0.7    flap: 0.3 s down, 0.7 s up
    loss:s4@0.3                    30% Bernoulli loss at the switch
    loss:s4@0.3,burst=4            30% loss in bursts of mean length 4
    loss:s4@0.3,ctl                30% loss, control packets only
    v} *)

type directive

val parse : string -> (directive list, string) result
(** Parse a spec string; [Error] carries the offending directive. *)

val spec_seed : directive list -> int option
(** The [seed=N] directive's value, if present — pass it to {!create}. *)

val schedule : directive -> float list * float list
(** [(times, spans)]: the instants a directive acts at (cut and heal
    time, crash time, flap start and end) and the lengths it waits for
    (crash duration, flap dwells); both empty for [seed] and [loss]. *)

val check : Ff_topology.Topology.t -> directive list -> (unit, string) result
(** Resolve every directive's nodes against the topology: each named node
    exists, each [cut]/[heal]/[flap] pair is adjacent, each [crash]/[loss]
    target is a switch. Check its numbers: times finite and [>= 0], crash
    durations and flap dwells finite and [> 0], each flap dwell at least
    one ulp of the flap's end (so it moves the clock), a flap's start no
    later than its end, a loss rate in [[0, 1]] (in [(0, 1)] with a burst), and
    a burst finite, [>= 1] and feasible for its rate. [Error] quotes the
    first directive that fails and says why. *)

val apply : t -> directive list -> unit
(** {!check} the directives against the network's topology, then install
    every directive's schedule. Raises [Invalid_argument] before
    scheduling anything if a directive fails the check. *)
