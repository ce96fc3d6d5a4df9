(** Typed telemetry events emitted by the simulator and the defense
    subsystems. Events carry only plain identifiers (switch ids, attack
    names) so that [ff_obs] sits below every other library and everyone can
    emit without dependency cycles. *)

type transfer_phase =
  | Xfer_start  (** sender kicked off a transfer *)
  | Xfer_retransmit  (** a group timed out and was resent *)
  | Xfer_complete  (** receiver decoded every group *)
  | Xfer_failed  (** retries exhausted or no path *)

type t =
  | Mode_transition of { sw : int; attack : string; activated : bool }
      (** a switch entered/left the defense modes for [attack] *)
  | Reroute of { sw : int; dst : int; next_hop : int }
      (** a packet deviated from the pinned table onto a probe-found detour *)
  | State_transfer of {
      xfer_id : int;
      src : int;
      dst : int;
      phase : transfer_phase;
      chunks : int;  (** cumulative chunks sent at this point *)
    }
  | Fec_recovery of { xfer_id : int; group : int }
      (** parity reconstructed a lost chunk without retransmission *)
  | Drop of { node : int; reason : string }
  | Probe of { sw : int; kind : string }
      (** control-plane-free signalling: mode / sync / reroute probes *)
  | Fault of { kind : string; a : int; b : int; up : bool }
      (** an injected fault (or its lifting, [up = true]): [kind] is
          ["link"] (endpoints [a]/[b]) or ["switch"] ([a], with [b = -1]) *)
  | Repair of { subsystem : string; node : int; info : string }
      (** a self-healing action: a mode readvert repairing a stale
          neighbor, a transfer rerouting around a failure, a repurpose
          rolling back — the "repair" side of fault→repair timelines *)
  | Fluid_rates of { flows : int; classes : int; total_bps : float }
      (** the fluid tier recomputed its max-min allocation: attached flow
          count, path classes solved, and the aggregate allocated rate *)
  | Fluid_tier of { node : int; flows : int; demoted : bool }
      (** a batch of flows crossing [node] changed simulation tier:
          demoted to packet level ([demoted = true]) or promoted back *)

val kind : t -> string
(** Stable snake_case tag, also the JSONL ["event"] field. *)

val kinds : string list
(** The {!kind} of every constructor of {!t}, in declaration order. *)

val node : t -> int
(** Primary switch/node of the event; [-1] when not tied to one. *)

val json_fields : t -> (string * string) list
(** Event payload as (key, rendered JSON value) pairs. *)

val detail : t -> string
(** Compact single-line [k=v] rendering for CSV/debug output. *)

val jstr : string -> string
(** Escape and quote a string as a JSON value. *)
