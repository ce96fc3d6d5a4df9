(** The centralized SDN controller: the paper's baseline defense (after
    Spiffy/CoDef-style LFA defenses driven by dynamic traffic engineering).

    Every [period] seconds the controller estimates the traffic matrix,
    re-solves TE, and — after a control-loop [delay] modelling
    measurement collection, computation, and rule pushes — installs the new
    configuration. Because attack flows are indistinguishable from
    legitimate ones, the controller simply spreads whatever it observes:
    effective against a static LFA, but a rolling attack re-targets faster
    than the loop closes (paper section 4, "Rolling attacks"). *)

type t

val start :
  Ff_netsim.Net.t ->
  period:float ->
  delay:float ->
  estimate:(unit -> Traffic_matrix.t) ->
  t
(** The first re-solve (over 4 candidate paths per pair) happens one
    period in. New configurations are installed at destination-prefix
    granularity ([Solver.install_prefix_based]) — the realistic
    deployment model. *)

val reconfig_count : t -> int

val reconfig_times : t -> float list
(** Times at which new configurations were installed (oldest first). *)

val on_reconfig : t -> (float -> unit) -> unit
(** Register an observer called at each installation (the rolling attacker
    watches route changes through the data plane, not through this hook;
    this is for experiment logging). *)

val last_plan : t -> Solver.plan option
