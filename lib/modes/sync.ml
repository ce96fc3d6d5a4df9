module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet

(* Remote advertisements are nested key-first: [global_value] runs per
   packet in marker stages, and a flat [(origin, key)]-keyed table would
   make every query scan every advertisement in the network instead of
   just the few origins that mentioned this key. *)
type sw_state = {
  remote : (int, (int, entry) Hashtbl.t) Hashtbl.t;  (* key -> origin -> entry *)
  seen : (int * int, unit) Hashtbl.t; (* (origin, round) flood dedup *)
}

(* An advertisement as an all-float record: flat, so its value and time
   are stored unboxed and a re-advertisement updates it in place. *)
and entry = { mutable v : float; mutable at : float }

(* Scratch of [remote_contribution], flat for the same reason: the sum
   accumulates and the time is read without a box per step. *)
type scan = { mutable sum : float; mutable now : float }

type t = {
  net : Net.t;
  participants : int list;
  local_view : sw:int -> (int * float) list;
  threshold : float;
  staleness : float;
  probe_class : int;
  states : (int, sw_state) Hashtbl.t;
  mutable round : int;
  mutable probes_sent : int;
  scan : scan;
  scan_self : int ref;  (* the querying switch, skipped in the sum *)
  scan_entry : int -> entry -> unit;
      (* one closure for every [remote_contribution] call, reading its
         arguments from [scan] and [scan_self] *)
}

let state t sw =
  match Hashtbl.find t.states sw with
  | s -> s
  | exception Not_found ->
    let s = { remote = Hashtbl.create 32; seen = Hashtbl.create 64 } in
    Hashtbl.replace t.states sw s;
    s

let stage t =
  {
    Net.stage_name = Printf.sprintf "view-sync-%d" t.probe_class;
    process =
      (fun ctx pkt ->
        match pkt.Packet.payload with
        | Packet.Sync_probe { origin; round; entries } when pkt.Packet.flow = t.probe_class ->
          let sw = ctx.Net.sw.Net.sw_id in
          let st = state t sw in
          if Hashtbl.mem st.seen (origin, round) then Net.Absorb
          else begin
            Hashtbl.replace st.seen (origin, round) ();
            let now = Net.now t.net in
            List.iter
              (fun (key, v) ->
                let per_key =
                  match Hashtbl.find st.remote key with
                  | h -> h
                  | exception Not_found ->
                    let h = Hashtbl.create 8 in
                    Hashtbl.replace st.remote key h;
                    h
                in
                match Hashtbl.find per_key origin with
                | e ->
                  e.v <- v;
                  e.at <- now
                | exception Not_found -> Hashtbl.replace per_key origin { v; at = now })
              entries;
            (* the re-flood forwards the probe's own immutable payload *)
            Net.flood_from_switch t.net ~sw ~except:[ ctx.Net.in_port ] (fun () ->
                Packet.make_control ~src:origin ~dst:origin ~flow:t.probe_class
                  ~payload:pkt.Packet.payload);
            Net.Absorb
          end
        | _ -> Net.Continue);
  }

let advertise t () =
  t.round <- t.round + 1;
  (* a lone participant has no peer to read its advertisements *)
  if List.compare_length_with t.participants 1 > 0 then
    List.iter
      (fun sw ->
        let entries = List.filter (fun (_, v) -> v >= t.threshold) (t.local_view ~sw) in
        if entries <> [] then begin
          t.probes_sent <- t.probes_sent + 1;
          Net.obs_emit t.net (Ff_obs.Event.Probe { sw; kind = "sync" });
          Hashtbl.replace (state t sw).seen (sw, t.round) ();
          let payload = Packet.Sync_probe { origin = sw; round = t.round; entries } in
          Net.flood_from_switch t.net ~sw ~except:[] (fun () ->
              Packet.make_control ~src:sw ~dst:sw ~flow:t.probe_class ~payload)
        end)
      t.participants

let create net ~participants ~period ~local_view ?(threshold = 0.) ?staleness
    ?(period_jitter = 0.) ?(seed = 0x5C11) ?(probe_class = 1) () =
  let staleness = match staleness with Some s -> s | None -> 3. *. period in
  let scan = { sum = 0.; now = 0. } and scan_self = ref (-1) in
  let scan_entry origin e =
    if origin <> !scan_self && scan.now -. e.at <= staleness then scan.sum <- scan.sum +. e.v
  in
  let t =
    {
      net;
      participants;
      local_view;
      threshold;
      staleness;
      probe_class;
      states = Hashtbl.create 16;
      round = 0;
      probes_sent = 0;
      scan;
      scan_self;
      scan_entry;
    }
  in
  List.iter (fun sw -> Net.add_stage net ~sw (stage t)) (Net.switch_ids net);
  let engine = Net.engine net in
  if period_jitter <= 0. then Engine.every engine ~period (advertise t)
  else begin
    (* Jittered advertisement cadence (anti epoch-timing): each round
       draws the next gap from [period*(1-j), period*(1+j)], so the
       chain reschedules itself instead of riding [Engine.every]. *)
    let rng = Ff_util.Prng.create ~seed:(seed lxor probe_class) in
    let rec tick () =
      advertise t ();
      let f = 1. -. period_jitter +. Ff_util.Prng.float rng (2. *. period_jitter) in
      Engine.after engine ~delay:(period *. f) tick
    in
    Engine.after engine ~delay:period tick
  end;
  t

(* This runs per packet in marker stages, so it allocates nothing: the sum
   goes to [t.scan] through the closure built once in [create], and the
   small reader below inlines into its callers, which then take the sum
   unboxed instead of a boxed return. *)
let sum_remote t ~sw ~key =
  t.scan.sum <- 0.;
  match Hashtbl.find (state t sw).remote key with
  | exception Not_found -> ()
  | per_key ->
    t.scan.now <- Net.now t.net;
    t.scan_self := sw;
    Hashtbl.iter t.scan_entry per_key

let remote_contribution t ~sw ~key =
  sum_remote t ~sw ~key;
  t.scan.sum

let local_value t ~sw ~key =
  if List.mem sw t.participants then
    try List.assoc key (t.local_view ~sw) with Not_found -> 0.
  else 0.

let global_value t ~sw ~key = local_value t ~sw ~key +. remote_contribution t ~sw ~key

let global_view t ~sw =
  let keys = Hashtbl.create 32 in
  let st = state t sw in
  let now = Net.now t.net in
  Hashtbl.iter
    (fun k per_key ->
      Hashtbl.iter
        (fun origin e ->
          if origin <> sw && now -. e.at <= t.staleness then Hashtbl.replace keys k ())
        per_key)
    st.remote;
  if List.mem sw t.participants then
    List.iter (fun (k, _) -> Hashtbl.replace keys k ()) (t.local_view ~sw);
  Hashtbl.fold (fun k () acc -> k :: acc) keys []
  |> List.sort compare
  |> List.filter_map (fun k ->
         let v = global_value t ~sw ~key:k in
         if v <> 0. then Some (k, v) else None)

let rounds t = t.round
let probes_sent t = t.probes_sent
