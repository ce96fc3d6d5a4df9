(** Static stability analysis of a mode automaton (paper sections 3.3 and
    6, "Stability").

    FastFlex mode changes must not introduce livelock: from any reachable
    mode combination, the all-clear sequence must lead back to the default
    mode, and every transition must carry a positive minimum dwell so an
    attacker cannot drive unbounded oscillation. This module checks those
    properties on an explicit automaton before deployment, in the spirit of
    the mode-change-protocol frameworks the paper cites (SafeMC et al.). *)

type state = string list
(** A mode combination, kept sorted and deduplicated. *)

type transition = {
  from_modes : state;
  trigger : string;  (** alarm or clear event name *)
  to_modes : state;
  dwell : float;  (** minimum residence time in [from_modes] before firing *)
}

type automaton = { initial : state; transitions : transition list }

type issue =
  | Unreachable_default of state
      (** a reachable state with no path back to the initial state *)
  | Zero_dwell_cycle of state list
      (** a cycle whose total dwell is zero: unbounded flapping *)
  | Nondeterministic of state * string
      (** two transitions with the same source and trigger *)

type report = { reachable : state list; issues : issue list }

val analyze : automaton -> report
(** Explores the reachable state space (BFS) and reports issues; an empty
    [issues] list means the automaton is stable in the above sense. *)

val stable : automaton -> bool

val of_protocol : modes_for:(Ff_dataplane.Packet.attack_kind -> string list) -> dwell:float ->
  automaton
(** The automaton induced by the runtime protocol. States are the sets of
    {e active attacks} (attack-kind names) — the modes are derived labels
    and several attack sets may activate the same modes, so they must not
    be conflated. Alarm transitions are immediate; clear transitions carry
    [dwell]. *)

val pp_issue : Format.formatter -> issue -> unit
