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

    A mode's activation is the switch's interned flag bit for
    [mode_var name] ({!Ff_netsim.Net.flag_mask}), so booster stages gate
    themselves without a dependency on this module. *)

type t

type attack = Ff_dataplane.Packet.attack_kind

val mode_var : string -> string
(** ["mode:" ^ name] — the flag name of a mode's activation bit. *)

(** {1 The switch transition}

    What one switch decides, for one attack kind, with the clock taken
    out. The ["mode-protocol"] stage runs every probe through {!step}, and
    the model checker of the test suite explores the same function over
    every delivery order and loss of a small graph.

    Left around it in the runtime, because they read the clock: the dwell
    that holds a clear back ([learned] undoes the step's clear and applies
    it when the dwell ends, or on a timer), the flap hold-down that grows
    the dwell, the jittered due times and backoff of re-advertisements,
    and the counters, observation events and mode flags. *)

type node = {
  mutable seen : int;  (** newest epoch applied *)
  mutable active : bool;  (** the attack's modes are on *)
  mutable ad_epoch : int;  (** the advert: the newest epoch this switch spreads *)
  mutable ad_activate : bool;
  mutable ad_ttl : int;  (** region budget its re-sends carry *)
  mutable pending : int list;  (** neighbors not yet confirmed at [ad_epoch] *)
}
(** A switch's protocol state for one attack. The advert stays at 0 with
    anti-entropy off. *)

type input =
  | Probe of { from : int; epoch : int; activate : bool; ttl : int }
      (** a mode probe from neighbor [from] ([-1]: injected locally) *)
  | Alarm of { epoch : int; activate : bool; ttl : int }
      (** the local half of {!raise_alarm} / {!clear_alarm}, [ttl] the
          region budget *)
  | Readvert  (** one anti-entropy round: re-send the advert to [pending] *)

type send =
  | Ack  (** equal epoch, ttl 0: confirms the receiver holds it *)
  | Repair  (** our advert, back to a sender that is behind *)
  | Resend  (** our advert, to a neighbor still pending *)

type 'c io = {
  learned : 'c -> seen:int -> active:bool -> ad_epoch:int -> unit;
      (** the step wrote a fresher epoch into the node; the labels hold
          the values before it. Called before any probe goes out. *)
  flood : 'c -> except:int -> epoch:int -> activate:bool -> ttl:int -> unit;
      (** one probe to every neighbor but [except] ([-1]: none) *)
  send : 'c -> send -> to_:int -> epoch:int -> activate:bool -> ttl:int -> unit;
}
(** How a step reaches the world, in the order it happens: [learned]
    first, then the probes. ['c] names the switch to the caller. *)

val step :
  'c io -> anti_entropy:bool -> neighbors:int list -> 'c -> node -> input -> unit
(** [step io ~anti_entropy ~neighbors c node input] applies [input] to
    [node] in place and names the probes it sends through [io]. A fresh
    probe (epoch above [max seen ad_epoch]) is applied, re-flooded with
    one less ttl and acked; an equal one confirms its sender; an older one
    from a neighbor gets a repair. [anti_entropy = false] is fire-and-forget
    flooding: no advert, no ack, no repair. *)

(** {1 The runtime} *)

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
    the jitter deterministically.

    Raises [Invalid_argument] naming the parameter unless [region_ttl >= 0],
    [min_dwell] is finite and [> 0] (a zero dwell makes the hold-down
    [0 * 2^k]: nothing damps an attacker's flapping), [flap_window] is
    finite and [>= 0], [max_holddown >= min_dwell] and [anti_entropy] is
    finite. *)

val raise_alarm : t -> sw:int -> attack -> unit
(** Called by a detector at its own switch: activates locally and floods
    activation probes. Idempotent while already active. *)

val clear_alarm : t -> sw:int -> attack -> unit
(** Floods deactivation with a fresh epoch; switches apply it only after
    their dwell expires. It deactivates the attack region-wide regardless
    of other detectors still alarmed for it, so detectors go through
    the alarm sink of [Fastflex.Orchestrator.deploy], which forwards only
    the last clear. *)

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

val raises : t -> int
(** {!raise_alarm} calls so far, counting a re-raise while the attack is
    already active at that switch. *)
