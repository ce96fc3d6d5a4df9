(** The multimode data plane (paper sections 2.2 and 3.3).

    Each switch holds a set of active {e modes} — named booster activations
    such as ["reroute"], ["obfuscate"], ["drop"]. Mode changes are
    performed entirely in the data plane: a detector raises an alarm at its
    switch, which floods a [Mode_probe] through the region (bounded by
    [region_ttl]); every switch that receives a fresher epoch activates the
    modes mapped to the attack kind and re-floods. All-clear probes
    deactivate, subject to a minimum dwell time and an anti-flapping
    hold-down that doubles under repeated oscillation (the paper's
    stability concern for attackers that intentionally trigger mode
    changes).

    Activation state is mirrored into each switch's [vars] table under the
    key ["mode:<name>"] so booster stages can gate themselves without a
    dependency on this module. *)

type t

type attack = Ff_dataplane.Packet.attack_kind

val mode_var : string -> string
(** ["mode:" ^ name] — the switch-vars key mirroring a mode's activation. *)

val create :
  Ff_netsim.Net.t ->
  ?region_ttl:int ->
  ?min_dwell:float ->
  ?flap_window:float ->
  ?max_holddown:float ->
  ?anti_entropy:float ->
  ?seed:int ->
  modes_for:(attack -> string list) ->
  unit ->
  t
(** Installs a ["mode-protocol"] stage on every switch. Defaults:
    [region_ttl] 8 hops, [min_dwell] 1 s, [flap_window] 10 s,
    [max_holddown] 16 s, [anti_entropy] 0.5 s.

    [anti_entropy] is the base re-advertisement period of the epoch
    anti-entropy layer: every switch keeps, per attack, the latest
    (epoch, activate) it has seen plus the set of neighbors that have not
    yet confirmed it (via equal-epoch probes, including zero-ttl acks),
    and re-sends to the stragglers on a jittered timer whose interval
    backs off exponentially to 8x the base. A lost probe therefore heals
    in O(anti_entropy) instead of stranding a switch until the next
    epoch. Receiving a probe with a stale epoch triggers an immediate
    direct repair, independent of the timer. Pass [anti_entropy <= 0.] to
    disable (the pre-hardening fire-and-forget behavior). [seed] drives
    the jitter deterministically. *)

val raise_alarm : t -> sw:int -> attack -> unit
(** Called by a detector at its own switch: activates locally and floods
    activation probes. Idempotent while already active. *)

val clear_alarm : t -> sw:int -> attack -> unit
(** Floods deactivation with a fresh epoch; switches apply it only after
    their dwell expires. It deactivates the attack region-wide regardless
    of other detectors still alarmed for it, so detectors go through
    [Fastflex.Orchestrator.sink], which forwards only the last clear. *)

val active : t -> sw:int -> string -> bool
(** Is a mode active at a switch? *)

val attack_active : t -> sw:int -> attack -> bool

val active_anywhere : t -> string -> bool

val switches_with_mode : t -> string -> int list

val epoch : t -> attack -> int
(** Latest epoch issued for this attack kind. *)

val known_epoch : t -> sw:int -> attack:attack -> int
(** Latest epoch this switch has learned (applied or queued behind the
    dwell); 0 if it has never heard of the attack. The chaos invariant
    checker compares this across a region. *)

val region_ttl : t -> int

val readverts : t -> int
(** Timer-driven anti-entropy re-advertisement rounds sent so far. *)

val repairs : t -> int
(** Stale-probe-triggered direct repairs sent so far. *)

val pending_adverts : t -> int
(** Number of (switch, attack) adverts still waiting on at least one
    unconfirmed neighbor. Once every fault has healed and the engine has
    drained past the backoff horizon, this must be 0 — a non-zero value
    means a switch is re-advertising into the void forever (a neighbor
    that never acked), which the quiescence checker reports. *)

val current_dwell : t -> attack -> float
(** The dwell currently enforced for the attack (grows under flapping). *)

val flap_entries : t -> attack -> int
(** Activation timestamps currently retained for the anti-flapping
    holddown. Pruned on insert and hard-capped at the depth where the
    holddown saturates at [max_holddown], so it stays O(1) under
    sustained flapping. *)

val on_transition : t -> (sw:int -> attack:attack -> active:bool -> unit) -> unit
(** Register an observer called on every {e applied} transition (same
    stream as {!log}, delivered as it happens). The hybrid fluid tier
    subscribes to track which switches are inside a mode-changing region
    and demote the flows crossing them to packet level. Observers must not
    re-enter the protocol. *)

val log : t -> (float * int * attack * bool) list
(** Mode-change history: (time, switch, attack, activated), oldest first. *)

val transitions : t -> int
(** Total number of state changes applied across all switches. *)
