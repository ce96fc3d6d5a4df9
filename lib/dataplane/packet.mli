(** Packets, including the user-defined header types FastFlex relies on:
    utilization probes (congestion-aware rerouting), mode-change probes
    (distributed control), detector synchronization probes, traceroute
    packets (the attacker's reconnaissance and the obfuscator's target),
    and state-transfer chunks (dynamic scaling). *)

(** Attack classes a detector can report in a mode-change probe. *)
type attack_kind = Lfa | Volumetric | Pulsing | Recon | Synflood

val attack_kind_to_string : attack_kind -> string
val all_attack_kinds : attack_kind list

type payload =
  | Data  (** ordinary application bytes *)
  | Ack of { acked : int }  (** transport acknowledgement of sequence [acked] *)
  | Traceroute_probe of { probe_id : int; probe_ttl : int; mutable responder : int }
      (** [responder] is [-1] when sent; topology obfuscation sets it to the
          virtual switch that the time-exceeded reply names instead of the
          switch where the probe expires *)
  | Traceroute_reply of { probe_id : int; hop : int; responder : int }
      (** [responder] is the (possibly obfuscated) switch that answered *)
  | Util_probe of { dst : int; round : int; max_util : float; hops : int }
      (** Hula/Contra-style probe advertising the best known path toward
          [dst]: the maximum link utilization along it and its hop count;
          [round] orders probe generations so stale metrics are replaced *)
  | Mode_probe of { attack : attack_kind; epoch : int; origin : int; activate : bool;
                    region_ttl : int }
      (** distributed mode-change announcement flooded through a region *)
  | Sync_probe of { origin : int; round : int; entries : (int * float) list }
      (** periodic detector-view synchronization (network-wide detection) *)
  | State_chunk of { xfer_id : int; group : int; index : int; of_group : int; parity : bool;
                     entries : (string * float) list }
      (** one unit of piggybacked state transfer; [parity] chunks carry the
          XOR of their FEC group *)
  | State_ack of { xfer_id : int; group : int }
  | Syn  (** open a TCP connection (consumes a server backlog slot) *)
  | Syn_ack of { cookie : int }
      (** server (or proxy) handshake reply; [cookie] is 0 from a real
          server backlog and a SYN-cookie when a split-proxy booster
          answers statelessly on the server's behalf *)
  | Handshake_ack of { cookie : int }
      (** client's final handshake step, echoing the [Syn_ack] cookie *)
  | Fin  (** connection teardown (frees tracker/server state) *)

(** A packet is one 10-word block: nine immediate fields and no float, so
    creating one allocates nothing beside it (and its payload, unless that
    is a constant such as [Data] or [Syn], or shared by a flood's copies). *)
type t = {
  uid : int;  (** globally unique packet id *)
  src : int;  (** source host node id *)
  dst : int;  (** destination host node id *)
  flow : int;  (** flow identifier (5-tuple surrogate) *)
  size : int;  (** bytes on the wire *)
  seq : int;  (** per-flow sequence number *)
  payload : payload;  (** immutable except a traceroute probe's [responder] *)
  mutable ttl : int;
  mutable suspicious : bool;  (** set by detection PPMs, read by mitigation PPMs *)
}

val make :
  ?size:int -> ?seq:int -> ?ttl:int -> ?payload:payload -> ?birth:float -> src:int -> dst:int ->
  flow:int -> unit -> t
(** Fresh packet with a unique [uid]. Default size 1000 B (64 B for
    non-[Data] payloads), ttl 64, payload [Data]. [birth] is ignored: it is
    kept only so that [benchmark/layers.ml] still compiles, and goes with the
    next change to [benchmark/]. No other caller passes it. *)

val control_size : int
(** Wire size of probe/control packets, bytes. *)

val make_data : size:int -> seq:int -> ttl:int -> src:int -> dst:int -> flow:int -> t
(** [make] specialized for [Data] payloads with every field supplied: no
    optional-argument [Some] blocks on per-packet sender paths. *)

val make_ack : acked:int -> src:int -> dst:int -> flow:int -> t
(** [make ~size:control_size ~payload:(Ack { acked })] without the option
    blocks — one ack per received data packet makes this a hot path. *)

val make_control : payload:payload -> src:int -> dst:int -> flow:int -> t
(** [make ~payload] with default size/seq/ttl: probe floods (utilization,
    mode, sync) construct thousands of these per simulated second. *)

val created : unit -> int
(** Process-wide count of packets ever constructed — monotone; snapshot it
    around a run to relate per-hop costs to per-packet ones. *)

val is_control : t -> bool
(** True for in-band control-plane payloads (probes, state transfer) —
    transport-level payloads ([Data], [Ack], and the handshake payloads
    [Syn]/[Syn_ack]/[Handshake_ack]/[Fin]) are ordinary traffic. *)

