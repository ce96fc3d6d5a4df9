module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Int_table = Ff_util.Int_table

(* Probes flood 8 hops; an entry not refreshed for 0.5 s is stale. *)
let probe_ttl = 8
let entry_timeout = 0.5

(* Entries live in a struct-of-arrays store indexed through an Int_table
   keyed [sw * n_nodes + dst]: the per-packet lookup is one integer-keyed
   probe plus flat array reads, where the old sw->(dst->entry) Hashtbl
   nesting cost two polymorphic-hash probes and a mixed record whose
   float fields boxed on every probe update. Entries are never deleted
   (matching the old tables); staleness is judged by [e_updated]. *)
type t = {
  net : Net.t;
  roots : int list;
  probe_interval : float;
  reroute_all : bool;
  n_nodes : int;
  slots : Int_table.t; (* sw * n_nodes + dst -> index into the arrays *)
  mutable e_round : int array;
  mutable e_next : int array;
  mutable e_metric : float array;
  mutable e_updated : float array;
  mutable e_len : int;
  mutable round : int;
  mutable probes_sent : int;
  mutable reroutes : int;
}

let alloc_entry t =
  let i = t.e_len in
  if i = Array.length t.e_round then begin
    let ncap = max 16 (2 * i) in
    let grow_i a =
      let n = Array.make ncap 0 in
      Array.blit a 0 n 0 i;
      n
    in
    let grow_f a =
      let n = Array.make ncap 0. in
      Array.blit a 0 n 0 i;
      n
    in
    t.e_round <- grow_i t.e_round;
    t.e_next <- grow_i t.e_next;
    t.e_metric <- grow_f t.e_metric;
    t.e_updated <- grow_f t.e_updated
  end;
  t.e_len <- i + 1;
  i

let entry_index t ~sw ~dst =
  if dst < 0 || dst >= t.n_nodes then -1
  else Int_table.get t.slots ((sw * t.n_nodes) + dst) ~default:(-1)

(* One [Util_probe] per flood, built by the caller outside the flood's
   thunk: the payload is immutable, so the copies share it *)
let make_probe t ~dst payload =
  t.probes_sent <- t.probes_sent + 1;
  Packet.make_control ~src:dst ~dst ~flow:0 ~payload

(* Probe handling at a switch: fold in the utilization of the reverse link
   the probe just crossed, update the table, and re-flood improvements. *)
let handle_probe t ctx ~dst ~round ~max_util ~hops =
  let sw = ctx.Net.sw.Net.sw_id in
  let from_neighbor = ctx.Net.in_port in
  if from_neighbor < 0 || dst < 0 || dst >= t.n_nodes then Net.Absorb
  else begin
    let here_util = Net.utilization t.net ~from_:sw ~to_:from_neighbor in
    (* [Float.max] for the non-negative, non-NaN values a utilization
       takes, without the cross-module call that boxes both operands *)
    let metric = if here_util > max_util then here_util else max_util in
    let now = Net.now ctx.Net.net in
    let idx = entry_index t ~sw ~dst in
    let improved =
      if idx < 0 then begin
        let i = alloc_entry t in
        Int_table.set t.slots ((sw * t.n_nodes) + dst) i;
        t.e_round.(i) <- round;
        t.e_metric.(i) <- metric;
        t.e_next.(i) <- from_neighbor;
        t.e_updated.(i) <- now;
        true
      end
      else if round > t.e_round.(idx) then begin
        t.e_round.(idx) <- round;
        t.e_metric.(idx) <- metric;
        t.e_next.(idx) <- from_neighbor;
        t.e_updated.(idx) <- now;
        true
      end
      else if round = t.e_round.(idx) && metric < t.e_metric.(idx) -. 1e-9 then begin
        t.e_metric.(idx) <- metric;
        t.e_next.(idx) <- from_neighbor;
        t.e_updated.(idx) <- now;
        true
      end
      else false
    in
    if improved && hops < probe_ttl then begin
      let payload = Packet.Util_probe { dst; round; max_util = metric; hops = hops + 1 } in
      Net.flood_from_switch t.net ~sw ~except:[ from_neighbor ] (fun () ->
          make_probe t ~dst payload)
    end;
    Net.Absorb
  end

(* Index of a live (non-timed-out) entry, or -1. *)
let fresh_index t ~sw ~dst =
  let idx = entry_index t ~sw ~dst in
  if idx >= 0 && Net.now t.net -. t.e_updated.(idx) <= entry_timeout then idx
  else -1

let stage t =
  let mode_key = Common.mode_key Common.mode_reroute in
  (* Per-switch "reroutes" metric handles: the registry lookup allocates a
     string+scope key record, too costly per rerouted packet. Handles are
     cached against the metrics registry they came from ([==] check), so a
     re-attached registry invalidates them naturally. *)
  let ctrs : (int, Ff_obs.Metrics.t * Ff_obs.Metrics.Counter.t) Hashtbl.t = Hashtbl.create 8 in
  let resolve_ctr m sw =
    let c = Ff_obs.Metrics.counter m ~scope:(Ff_obs.Metrics.Switch sw) "reroutes" in
    Hashtbl.replace ctrs sw (m, c);
    c
  in
  let bump_reroutes sw =
    match Net.metrics t.net with
    | None -> ()
    | Some m ->
      let c =
        match Hashtbl.find ctrs sw with
        | m', c when m' == m -> c
        | _ -> resolve_ctr m sw
        | exception Not_found -> resolve_ctr m sw
      in
      Ff_obs.Metrics.Counter.incr c
  in
  {
    Net.stage_name = "reroute";
    process =
      (fun ctx pkt ->
        match pkt.Packet.payload with
        | Packet.Util_probe { dst; round; max_util; hops } ->
          handle_probe t ctx ~dst ~round ~max_util ~hops
        | Packet.Data | Packet.Traceroute_probe _ ->
          let sw = ctx.Net.sw in
          if
            Common.mode_on sw mode_key
            && (t.reroute_all || pkt.Packet.suspicious)
          then begin
            let idx = entry_index t ~sw:sw.Net.sw_id ~dst:pkt.Packet.dst in
            if
              idx >= 0
              && Net.now ctx.Net.net -. t.e_updated.(idx) <= entry_timeout
              && t.e_next.(idx) <> ctx.Net.in_port
            then begin
              (* deviate from the pinned table only if the probe metric is
                 actually better than nothing; always prefer probe path for
                 marked traffic *)
              t.reroutes <- t.reroutes + 1;
              if Net.obs_active t.net then
                Net.obs_emit t.net
                  (Ff_obs.Event.Reroute
                     { sw = sw.Net.sw_id; dst = pkt.Packet.dst; next_hop = t.e_next.(idx) });
              bump_reroutes sw.Net.sw_id;
              Net.forward ctx.Net.net t.e_next.(idx)
            end
            else Net.Continue
          end
          else Net.Continue
        | _ -> Net.Continue);
  }

(* Probe origination at each root's access switch, gated on the mode. *)
let start_probing t =
  List.iter
    (fun root ->
      let access = Net.access_switch t.net ~host:root in
      Engine.every (Net.engine t.net) ~period:t.probe_interval (fun () ->
          if Common.mode_active (Net.switch t.net access) Common.mode_reroute then begin
            t.round <- t.round + 1;
            (* seed the access switch's own entry so hosts behind it work *)
            let idx =
              match entry_index t ~sw:access ~dst:root with
              | -1 ->
                let i = alloc_entry t in
                Int_table.set t.slots ((access * t.n_nodes) + root) i;
                i
              | i -> i
            in
            t.e_round.(idx) <- t.round;
            t.e_metric.(idx) <- 0.;
            t.e_next.(idx) <- root;
            t.e_updated.(idx) <- Net.now t.net;
            let payload =
              Packet.Util_probe { dst = root; round = t.round; max_util = 0.; hops = 1 }
            in
            Net.flood_from_switch t.net ~sw:access ~except:[] (fun () ->
                make_probe t ~dst:root payload)
          end))
    t.roots

let install net ~roots ~probe_interval ?(reroute_all = false) () =
  let t =
    {
      net;
      roots;
      probe_interval;
      reroute_all;
      n_nodes = Ff_topology.Topology.num_nodes (Net.topology net);
      slots = Int_table.create ~capacity:64 ();
      e_round = [||];
      e_next = [||];
      e_metric = [||];
      e_updated = [||];
      e_len = 0;
      round = 0;
      probes_sent = 0;
      reroutes = 0;
    }
  in
  List.iter (fun sw -> Net.add_stage net ~sw (stage t)) (Net.switch_ids net);
  start_probing t;
  t

let best_next_hop t ~sw ~dst =
  let idx = fresh_index t ~sw ~dst in
  if idx < 0 then None else Some t.e_next.(idx)

let best_metric t ~sw ~dst =
  let idx = fresh_index t ~sw ~dst in
  if idx < 0 then None else Some t.e_metric.(idx)

let probes_sent t = t.probes_sent
let reroutes t = t.reroutes
