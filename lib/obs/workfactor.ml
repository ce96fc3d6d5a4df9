(* damage accrues above this decoy-link utilization *)
let damage_floor = 0.7

(* utilization-seconds of over-congestion at which the attack counts as
   effective *)
let effective_damage = 1.0

type t = {
  attack_start : float;
  mutable probes : int;
  mutable damage : float;
  mutable effective_at : float; (* nan until the damage quantum is reached *)
  mutable probes_at_effective : int;
  mutable peak_util : float;
}

let create ~attack_start =
  {
    attack_start;
    probes = 0;
    damage = 0.;
    effective_at = Float.nan;
    probes_at_effective = 0;
    peak_util = 0.;
  }

let add_probes t n = if n > 0 then t.probes <- t.probes + n

let sample t ~now ~dt ~util =
  if util > t.peak_util then t.peak_util <- util;
  let over = util -. damage_floor in
  if over > 0. then begin
    t.damage <- t.damage +. (over *. dt);
    if Float.is_nan t.effective_at && t.damage >= effective_damage then begin
      t.effective_at <- now;
      t.probes_at_effective <- t.probes
    end
  end

let probes t = t.probes
let damage t = t.damage
let peak_util t = t.peak_util
let effective_at t = if Float.is_nan t.effective_at then None else Some t.effective_at

(* Never-effective runs are censored at the horizon: the attacker spent the
   whole run and got nothing, so both factors saturate (time at the full
   run length, probes at everything it sent). That makes the work factor a
   lower bound for hardened runs — the true cost is "more than the whole
   experiment", which is exactly the comparison the floor assertions need. *)
let time_to_effective t ~horizon =
  match effective_at t with
  | Some at -> Float.max 0.01 (at -. t.attack_start)
  | None -> Float.max 0.01 (horizon -. t.attack_start)

let probes_to_effective t =
  match effective_at t with Some _ -> max 1 t.probes_at_effective | None -> max 1 t.probes

let work_factor t ~horizon =
  float_of_int (probes_to_effective t) *. time_to_effective t ~horizon
