(* A mode is one interned flag bit per switch, named by
   [Ff_modes.Protocol.mode_var]. [mode_key] interns the name into a bit
   mask once at booster-install time, so the per-packet read [mode_on] is
   one [land] rather than a string hash per stage per hop. *)

let mode_key name = Ff_netsim.Net.flag_mask (Ff_modes.Protocol.mode_var name)

let mode_on (sw : Ff_netsim.Net.switch) key = Ff_netsim.Net.flag_on sw ~mask:key

let mode_active (sw : Ff_netsim.Net.switch) name = mode_on sw (mode_key name)

let set_mode (sw : Ff_netsim.Net.switch) name on =
  Ff_netsim.Net.set_flag sw ~mask:(mode_key name) on

let mode_classify = "classify"
let mode_reroute = "reroute"
let mode_obfuscate = "obfuscate"
let mode_drop = "drop"
let mode_hcf = "hcf"
let mode_acl = "acl"
let mode_grl = "grl"
let mode_syn_guard = "syn_guard"

(* Per-(switch, key) byte counters over a 1 s window. *)
type local_rates = {
  net : Ff_netsim.Net.t;
  counters : (int * int, Ff_util.Stats.Window_counter.t) Hashtbl.t;
}

let local_rates net = { net; counters = Hashtbl.create 64 }

let count r ~sw ~key bytes =
  let c =
    match Hashtbl.find_opt r.counters (sw, key) with
    | Some c -> c
    | None ->
      let c = Ff_util.Stats.Window_counter.create ~width:1.0 in
      Hashtbl.replace r.counters (sw, key) c;
      c
  in
  Ff_util.Stats.Window_counter.add c ~now:(Ff_netsim.Net.now r.net) bytes

let local_rate r ~sw ~key =
  match Hashtbl.find_opt r.counters (sw, key) with
  | None -> 0.
  | Some c -> Ff_util.Stats.Window_counter.rate c ~now:(Ff_netsim.Net.now r.net) *. 8.

let local_view r ~sw =
  Hashtbl.fold
    (fun (s, key) _ acc -> if s = sw then (key, local_rate r ~sw ~key) :: acc else acc)
    r.counters []
