module Net = Ff_netsim.Net
module Packet = Ff_dataplane.Packet

(* averaging window, s; pairs below [min_rate] b/s leave the matrix *)
let window = 2.0
let min_rate = 10_000.

type t = {
  net : Net.t;
  counters : (int * int, Ff_util.Stats.Window_counter.t) Hashtbl.t;
}

let counter t pair =
  match Hashtbl.find_opt t.counters pair with
  | Some c -> c
  | None ->
    let c = Ff_util.Stats.Window_counter.create ~width:window in
    Hashtbl.replace t.counters pair c;
    c

let stage t =
  {
    Net.stage_name = "te-telemetry";
    process =
      (fun ctx pkt ->
        (match pkt.Packet.payload with
        | Packet.Data ->
          let sw = ctx.Net.sw.Net.sw_id in
          if Net.access_switch t.net ~host:pkt.Packet.src = sw then
            Ff_util.Stats.Window_counter.add
              (counter t (pkt.Packet.src, pkt.Packet.dst))
              ~now:(Net.now t.net)
              (float_of_int pkt.Packet.size)
        | _ -> ());
        Net.Continue);
  }

let install net =
  let t = { net; counters = Hashtbl.create 64 } in
  List.iter (fun sw -> Net.add_stage net ~sw (stage t)) (Net.switch_ids net);
  t

let rate t ~src ~dst =
  match Hashtbl.find_opt t.counters (src, dst) with
  | None -> 0.
  | Some c -> Ff_util.Stats.Window_counter.rate c ~now:(Net.now t.net) *. 8.

let matrix t =
  let m = Traffic_matrix.empty () in
  Hashtbl.iter
    (fun (src, dst) _ ->
      let r = rate t ~src ~dst in
      if r >= min_rate then Traffic_matrix.set m ~src ~dst r)
    t.counters;
  m

let pairs_seen t = Hashtbl.length t.counters
