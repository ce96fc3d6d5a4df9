(** Heavy-hitter / volumetric-DDoS detection booster (after HashPipe,
    SOSR '17, and network-wide heavy hitters, SOSR '18).

    Every data packet updates a HashPipe table keyed by flow. Each epoch
    the booster converts resident counts to rates; any flow above
    [threshold_bps] triggers a volumetric alarm (once per epoch), and the
    offending flows are reported so a dropper can be pointed at them. *)

type t

val install :
  Ff_netsim.Net.t ->
  sw:int ->
  ?epoch:float ->
  stages:int ->
  slots:int ->
  threshold_bps:float ->
  by_source:bool ->
  epoch_jitter:float ->
  threshold_jitter:float ->
  rotate_period:float ->
  src_hold:float ->
  seed:int ->
  on_alarm:(Lfa_detector.alarm -> unit) ->
  on_clear:(Lfa_detector.alarm -> unit) ->
  unit ->
  t
(** A [stages] x [slots] HashPipe over [epoch]-long epochs (default 1 s),
    alarming above [threshold_bps] per key. The key is [pkt.flow], or the
    source id with [by_source] — per-sender accounting, which an attacker
    with a fixed bot population cannot spread its way out of.

    Hardening (all inert at 0. — the booster is then bit-identical to the
    unhardened one): [epoch_jitter] draws each
    epoch's length uniformly from [epoch*(1-j), epoch*(1+j)] so
    measurement boundaries can't be learned and straddled;
    [threshold_jitter] shrinks the effective threshold per epoch by a
    uniform fraction in [0, j] so it can't be hugged; [rotate_period] > 0
    re-salts the HashPipe ({!Ff_dataplane.Hashpipe.reseed}) at the first
    epoch boundary after each period elapses — after the offender scan
    and reset, so a rotation never disturbs an epoch's accounting while
    still invalidating probed hash collisions within about an epoch;
    [src_hold] > 0 brands the *source* of any offending packet for that
    many seconds ({!mark_offenders_stage} keeps marking everything a
    branded sender emits, and the alarm stays raised while holds are
    live), so detection's one-epoch latency cannot be laundered away
    with fresh flow keys. All draws come from a PRNG seeded by [seed]
    xor the switch id. *)

val top : t -> k:int -> (int * float) list
(** Current epoch's top flows by bytes. *)

val offenders : t -> int list
(** Flows above threshold in the last completed epoch. *)

val alarmed : t -> bool

val rotations : t -> int
(** Hash-salt rotations performed so far. *)

val mark_offenders_stage : t -> Ff_netsim.Net.stage
(** Optional stage marking offender packets suspicious (so the generic
    dropper mitigates volumetric attacks too). *)
