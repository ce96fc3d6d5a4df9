(** Attacker work-factor accounting for adversarial evaluation.

    Measures what an attack {e costs} the adversary relative to what it
    achieves, so defenses can be compared by how much they raise that
    cost rather than only by whether they eventually mitigate:

    - {b probes}: packets the attacker spent observing the defense
      (sensor flows, collision trials, calibration bursts);
    - {b damage integral}: over-utilization of the decoy links above
      [damage_floor] (0.7), integrated over time — chronic congestion the
      defense failed to shed;
    - {b time to effective}: when the damage integral first crosses
      [effective_damage] (1.0; the attack "worked"), measured from
      [attack_start];
    - {b work factor} = probes-to-effective x time-to-effective. Runs
      that never become effective are censored at the experiment
      horizon with all probes counted, making the reported factor a
      lower bound on the true cost.

    The experiment harness owns the instance: it samples watched-link
    utilization on a fixed cadence and feeds the attacker's probe
    counter. *)

type t

val create : attack_start:float -> t
(** A fresh account; time to effective is measured from [attack_start]. *)

val add_probes : t -> int -> unit

val sample : t -> now:float -> dt:float -> util:float -> unit
(** Integrate one utilization sample covering [dt] seconds. *)

val probes : t -> int
val damage : t -> float
val peak_util : t -> float
val effective_at : t -> float option

val time_to_effective : t -> horizon:float -> float
val work_factor : t -> horizon:float -> float
