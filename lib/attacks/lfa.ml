module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow

(* Bot windows are capped at 4 packets (low-rate, legitimate-looking
   flows), and the attacker rolls at most once every 3 s. *)
let bot_max_cwnd = 4.
let min_roll_gap = 3.0

type t = {
  net : Net.t;
  bots : int list;
  decoy_groups : int list list;
  stop : float option;
  flows_per_bot : int;
  recon_interval : float;
  roll_on_path_change : bool;
  baselines : (int, (int * int) list) Hashtbl.t; (* decoy -> (hop, responder) pre-attack *)
  observed : (int, (int * int) list) Hashtbl.t;
  mutable group : int;
  mutable flows : Flow.Tcp.t list;
  mutable rolls : float list;
  mutable last_roll : float;
  mutable running : bool;
}

let probe_bot t = match t.bots with b :: _ -> b | [] -> invalid_arg "Lfa: no bots"

let responders hops = List.map snd hops

(* A reply lost to congestion is not a route change: compare only the hops
   present in both observations. *)
let paths_differ ~baseline ~observed =
  List.exists
    (fun (hop, responder) ->
      match List.assoc_opt hop baseline with
      | Some expected -> expected <> responder
      | None -> false)
    observed

let stopped t =
  (not t.running) || (match t.stop with Some s -> Net.now t.net >= s | None -> false)

let open_flows t =
  let now = Net.now t.net in
  let decoys = List.nth t.decoy_groups t.group in
  let flows = ref [] in
  List.iter
    (fun bot ->
      for i = 0 to t.flows_per_bot - 1 do
        let dst = List.nth decoys ((bot + i) mod List.length decoys) in
        flows :=
          Flow.Tcp.start t.net ~src:bot ~dst ~at:(now +. 0.01) ?stop:t.stop
            ~max_cwnd:bot_max_cwnd ()
          :: !flows
      done)
    t.bots;
  t.flows <- !flows

let halt_flows t = List.iter Flow.Tcp.pause t.flows

let roll t ~why =
  ignore why;
  let now = Net.now t.net in
  if now -. t.last_roll >= min_roll_gap && not (stopped t) then begin
    t.last_roll <- now;
    t.rolls <- now :: t.rolls;
    halt_flows t;
    t.group <- (t.group + 1) mod List.length t.decoy_groups;
    open_flows t
  end

(* Reconnaissance loop: traceroute the decoys of the current target group
   and compare with the pre-attack baseline. *)
let recon t () =
  if not (stopped t) then begin
    let decoys = List.nth t.decoy_groups t.group in
    List.iter
      (fun decoy ->
        Flow.Traceroute.run t.net ~src:(probe_bot t) ~dst:decoy
          ~on_done:(fun hops ->
            Hashtbl.replace t.observed decoy hops;
            if t.roll_on_path_change && not (stopped t) then
              match Hashtbl.find_opt t.baselines decoy with
              | Some baseline
                when baseline <> [] && hops <> []
                     && paths_differ ~baseline ~observed:hops ->
                (* the changed path becomes the new reference: the attacker
                   adapts its map, it does not re-roll on the same change *)
                Hashtbl.replace t.baselines decoy hops;
                roll t ~why:"path-change"
              | _ -> ()))
      decoys
  end

let launch net ~bots ~decoy_groups ?(start = 0.) ?stop ?(flows_per_bot = 3)
    ?(recon_interval = 1.0) ?(roll_on_path_change = true) ?(roll_schedule = []) () =
  assert (decoy_groups <> [] && List.for_all (fun g -> g <> []) decoy_groups);
  let t =
    {
      net;
      bots;
      decoy_groups;
      stop;
      flows_per_bot;
      recon_interval;
      roll_on_path_change;
      baselines = Hashtbl.create 8;
      observed = Hashtbl.create 8;
      group = 0;
      flows = [];
      rolls = [];
      last_roll = neg_infinity;
      running = true;
    }
  in
  let engine = Net.engine net in
  (* pre-attack reconnaissance: learn the baseline path to every decoy *)
  Engine.schedule engine ~at:(Float.max 0. (start -. 2.)) (fun () ->
      List.iter
        (fun decoy ->
          Flow.Traceroute.run net ~src:(probe_bot t) ~dst:decoy
            ~on_done:(fun hops -> Hashtbl.replace t.baselines decoy hops))
        (List.concat decoy_groups));
  Engine.schedule engine ~at:start (fun () -> if t.running then open_flows t);
  Engine.every engine ~start:(start +. t.recon_interval) ~period:t.recon_interval (recon t);
  List.iter
    (fun at -> Engine.schedule engine ~at (fun () -> roll t ~why:"schedule"))
    roll_schedule;
  t

let rolls t = List.rev t.rolls
let current_group t = t.group
let bot_flows t = t.flows

let attack_rate t ~now =
  List.fold_left (fun acc f -> acc +. Flow.Tcp.goodput f ~now) 0. t.flows

let observed_paths t =
  Hashtbl.fold (fun d p acc -> (d, responders p) :: acc) t.observed [] |> List.sort compare

let stop_now t =
  t.running <- false;
  halt_flows t

module Fluid_volume = struct
  module Hybrid = Ff_fluid.Hybrid

  type nonrec t = {
    hybrid : Hybrid.t;
    bots : int list;
    groups : int list array;
    rate_bps_per_flow : float;
    packet_size : int;
    mutable active : Hybrid.member list;
    mutable group : int;
    mutable rolls : float list;
    mutable running : bool;
  }

  let aim t gi =
    List.iter (Hybrid.stop_member t.hybrid) t.active;
    let rate_pps = t.rate_bps_per_flow /. float_of_int (8 * t.packet_size) in
    t.active <-
      List.concat_map
        (fun bot ->
          List.map
            (fun decoy ->
              Hybrid.add_flow t.hybrid ~src:bot ~dst:decoy
                ~tier:Hybrid.Fluid_only
                (Hybrid.Cbr { rate_pps; packet_size = t.packet_size }))
            t.groups.(gi))
        t.bots;
    t.group <- gi

  let roll t ~at =
    if t.running && Array.length t.groups > 1 then begin
      aim t ((t.group + 1) mod Array.length t.groups);
      t.rolls <- at :: t.rolls
    end

  let launch hybrid ~bots ~decoy_groups ~rate_bps_per_flow ~packet_size ~start ~stop
      ~roll_schedule =
    let groups = Array.of_list decoy_groups in
    assert (Array.length groups > 0);
    let t =
      { hybrid; bots; groups; rate_bps_per_flow; packet_size; active = [];
        group = 0; rolls = []; running = true }
    in
    let engine = Net.engine (Hybrid.net hybrid) in
    Engine.schedule engine ~at:start (fun () -> if t.running then aim t 0);
    List.iter
      (fun at -> Engine.schedule engine ~at (fun () -> roll t ~at))
      roll_schedule;
    Engine.schedule engine ~at:stop (fun () ->
        t.running <- false;
        List.iter (Hybrid.stop_member t.hybrid) t.active;
        t.active <- []);
    t

  let rolls t = List.rev t.rolls
end
