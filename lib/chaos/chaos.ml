module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Topology = Ff_topology.Topology
module Packet = Ff_dataplane.Packet
module Prng = Ff_util.Prng
module Loss = Ff_scaling.Loss
module Protocol = Ff_modes.Protocol
module Transfer = Ff_scaling.Transfer

type action =
  | Link_down of int * int
  | Link_up of int * int
  | Switch_down of int
  | Switch_up of int

type t = {
  net : Net.t;
  rng : Prng.t;
  mutable applied : (float * action) list; (* newest first *)
  mutable injected : int;
  (* packet-conservation ledger (armed by [watch]) *)
  mutable watching : bool;
  mutable tx0 : int;
  mutable arrivals : int;
  mutable deliveries : int;
  mutable down_drops : int;
}

let create ?(seed = 1) net =
  {
    net;
    rng = Prng.create ~seed;
    applied = [];
    injected = 0;
    watching = false;
    tx0 = 0;
    arrivals = 0;
    deliveries = 0;
    down_drops = 0;
  }

let fault_event = function
  | Link_down (a, b) -> Ff_obs.Event.Fault { kind = "link"; a; b; up = false }
  | Link_up (a, b) -> Ff_obs.Event.Fault { kind = "link"; a; b; up = true }
  | Switch_down s -> Ff_obs.Event.Fault { kind = "switch"; a = s; b = -1; up = false }
  | Switch_up s -> Ff_obs.Event.Fault { kind = "switch"; a = s; b = -1; up = true }

let apply_now t action =
  (match action with
  | Link_down (a, b) -> Net.set_link_up t.net ~a ~b false
  | Link_up (a, b) -> Net.set_link_up t.net ~a ~b true
  | Switch_down s -> Net.set_switch_up t.net ~sw:s false
  | Switch_up s -> Net.set_switch_up t.net ~sw:s true);
  t.injected <- t.injected + 1;
  t.applied <- (Net.now t.net, action) :: t.applied;
  Net.obs_emit t.net (fault_event action)

let at t ~time action =
  Engine.schedule (Net.engine t.net) ~at:time (fun () -> apply_now t action)

let log t = List.rev t.applied

let injected t = t.injected

(* Strategic (condition-driven) scheduling: instead of a fixed timeline,
   poll a decision function and apply whatever it returns. This is the
   bridge between the chaos harness and an adaptive adversary — e.g.
   "cut the backup link only while the defense is mitigating", turning
   random faults into strategic ones. The decide function sees no more
   than the attacker does; determinism comes from the caller's seeded
   state, not from this loop. *)
let strategic t ~period ~start ~until ~decide =
  let engine = Net.engine t.net in
  let rec tick () =
    let now = Net.now t.net in
    if now <= until then begin
      List.iter (apply_now t) (decide ());
      Engine.after engine ~delay:period tick
    end
  in
  Engine.schedule engine ~at:start tick

let action_to_string = function
  | Link_down (a, b) -> Printf.sprintf "link %d-%d down" a b
  | Link_up (a, b) -> Printf.sprintf "link %d-%d up" a b
  | Switch_down s -> Printf.sprintf "switch %d down" s
  | Switch_up s -> Printf.sprintf "switch %d up" s

(* ---------------- schedule generators ---------------- *)

let flap_link t ~a ~b ~start ~until ~down_dwell ~up_dwell =
  let engine = Net.engine t.net in
  let rec cycle time =
    if time <= until then
      Engine.schedule engine ~at:time (fun () ->
          apply_now t (Link_down (a, b));
          Engine.after engine ~delay:down_dwell (fun () ->
              apply_now t (Link_up (a, b));
              cycle (Engine.now engine +. up_dwell)))
  in
  cycle start

let crash_switch t ~sw ~at:time ~recover_after =
  at t ~time (Switch_down sw);
  at t ~time:(time +. recover_after) (Switch_up sw)

let switch_links t =
  let topo = Net.topology t.net in
  let is_sw id = (Topology.node topo id).Topology.kind = Topology.Switch in
  List.filter (fun (l : Topology.link) -> is_sw l.Topology.a && is_sw l.Topology.b)
    (Topology.links topo)

let random_link_flaps t ~n ~start ~until ~mean_down ~mean_up =
  let engine = Net.engine t.net in
  let arr = Array.of_list (switch_links t) in
  Prng.shuffle t.rng arr;
  let n = min n (Array.length arr) in
  for i = 0 to n - 1 do
    let l = arr.(i) in
    let a = l.Topology.a and b = l.Topology.b in
    (* per-link rng split: dwell draws inside callbacks stay deterministic
       regardless of how the links' timers interleave *)
    let rng = Prng.split t.rng in
    let rec cycle time =
      if time <= until then
        Engine.schedule engine ~at:time (fun () ->
            apply_now t (Link_down (a, b));
            Engine.after engine ~delay:(Prng.exponential rng ~mean:mean_down) (fun () ->
                apply_now t (Link_up (a, b));
                cycle (Engine.now engine +. Prng.exponential rng ~mean:mean_up)))
    in
    cycle (start +. Prng.float rng mean_up)
  done

let partition t ~groups ~at:cut_at ~heal_at =
  let grp = Hashtbl.create 16 in
  List.iteri (fun gi nodes -> List.iter (fun n -> Hashtbl.replace grp n gi) nodes) groups;
  let crossing =
    List.filter
      (fun (l : Topology.link) ->
        match (Hashtbl.find_opt grp l.Topology.a, Hashtbl.find_opt grp l.Topology.b) with
        | Some ga, Some gb -> ga <> gb
        | _ -> false)
      (Topology.links (Net.topology t.net))
  in
  List.iter
    (fun (l : Topology.link) ->
      at t ~time:cut_at (Link_down (l.Topology.a, l.Topology.b));
      at t ~time:heal_at (Link_up (l.Topology.a, l.Topology.b)))
    crossing

(* Gilbert-Elliott transition probabilities (p_gb, p_bg) for a long-run
   [loss] in bursts of mean length [mean_burst]: the stationary bad
   fraction p_gb/(p_gb+p_bg) = loss, with every bad-state packet dropped,
   gives the requested rate. *)
let gilbert_elliott ~loss ~mean_burst =
  let p_bg = 1. /. mean_burst in
  (loss *. p_bg /. (1. -. loss), p_bg)

let burst_loss t ~sw ~start ~until ~loss ~mean_burst ?(classes = Loss.All) () =
  if not (loss > 0. && loss < 1.) then invalid_arg "Chaos.burst_loss: loss must be in (0,1)";
  if not (Float.is_finite mean_burst && mean_burst >= 1.) then
    invalid_arg "Chaos.burst_loss: mean_burst must be finite and >= 1";
  let p_gb, p_bg = gilbert_elliott ~loss ~mean_burst in
  if p_gb > 1. then invalid_arg "Chaos.burst_loss: loss/mean_burst combination infeasible";
  let stage =
    Loss.install t.net ~sw ~prob:loss
      ~seed:(1000 + Prng.int t.rng 1_000_000)
      ~classes
      ~model:(Loss.Gilbert_elliott { p_gb; p_bg; good_loss = 0.; bad_loss = 1. })
      ()
  in
  Loss.set_enabled stage false;
  let engine = Net.engine t.net in
  Engine.schedule engine ~at:start (fun () -> Loss.set_enabled stage true);
  Engine.schedule engine ~at:until (fun () -> Loss.set_enabled stage false);
  stage

let drop_first_probe_per_epoch t ~a ~b =
  let install ~at_sw ~from_ =
    let seen = Hashtbl.create 16 in
    Net.add_stage ~front:true t.net ~sw:at_sw
      {
        Net.stage_name = Printf.sprintf "chaos-first-probe-%d<%d" at_sw from_;
        process =
          (fun ctx pkt ->
            match pkt.Packet.payload with
            | Packet.Mode_probe { attack; epoch; activate; _ }
              when ctx.Net.in_port = from_ ->
              let key = (attack, epoch, activate) in
              if Hashtbl.mem seen key then Net.Continue
              else begin
                Hashtbl.replace seen key ();
                Net.Drop "chaos-first-probe"
              end
            | _ -> Net.Continue);
      }
  in
  install ~at_sw:b ~from_:a;
  install ~at_sw:a ~from_:b

(* ---------------- invariants ---------------- *)

let watch t =
  t.watching <- true;
  t.tx0 <- Net.total_tx_packets t.net;
  t.arrivals <- 0;
  t.deliveries <- 0;
  t.down_drops <- 0;
  Net.set_tracer t.net
    (Some
       (fun ev ->
         match ev.Net.kind with
         | Net.Switch_arrival -> t.arrivals <- t.arrivals + 1
         | Net.Host_delivery -> t.deliveries <- t.deliveries + 1
         | Net.Packet_drop reason ->
           if reason = "switch-down" then t.down_drops <- t.down_drops + 1))

let check_quiescence t ?protocol ?(origins = []) ?(transfers = []) () =
  let violations = ref [] in
  let add fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  (match protocol with
  | None -> ()
  | Some p ->
    (* anti-entropy must go quiet: an advert still holding unconfirmed
       neighbors after the network healed and the engine drained means a
       switch will re-advertise forever into the void *)
    let stuck = Protocol.pending_adverts p in
    if stuck > 0 then
      add "stuck advert: %d (switch, attack) adverts still re-advertising to unconfirmed neighbors"
        stuck;
    List.iter
      (fun (attack, origin) ->
        let name = Packet.attack_kind_to_string attack in
        let want = Protocol.known_epoch p ~sw:origin ~attack in
        let ttl = Protocol.region_ttl p in
        (* every switch within region_ttl live hops of the origin must
           agree with the origin's latest epoch — a disagreement is a
           half-activated region *)
        let seen = Hashtbl.create 32 in
        Hashtbl.replace seen origin ();
        let q = Queue.create () in
        Queue.add (origin, 0) q;
        while not (Queue.is_empty q) do
          let sw, d = Queue.pop q in
          let got = Protocol.known_epoch p ~sw ~attack in
          if got <> want then
            add "half-activated region: switch %d at epoch %d for %s, origin %d at %d"
              sw got name origin want;
          if d < ttl then
            List.iter
              (fun peer ->
                if
                  (not (Hashtbl.mem seen peer))
                  && Net.link_is_up t.net ~a:sw ~b:peer
                  && Net.switch_is_up t.net ~sw:peer
                then begin
                  Hashtbl.replace seen peer ();
                  Queue.add (peer, d + 1) q
                end)
              (Net.neighbors_of t.net sw)
        done)
      origins);
  List.iteri
    (fun i x ->
      if not (Transfer.complete x || Transfer.failed x) then
        add "stuck transfer #%d: neither complete nor failed" i)
    transfers;
  if t.watching then begin
    let tx = Net.total_tx_packets t.net - t.tx0 in
    let accounted = t.arrivals + t.deliveries + t.down_drops in
    if tx <> accounted then
      add
        "packet conservation: %d transmitted, %d accounted for (%d switch arrivals + %d host deliveries + %d down-switch drops)"
        tx accounted t.arrivals t.deliveries t.down_drops
  end;
  List.rev !violations

(* ---------------- schedule specs ---------------- *)

type op =
  | D_seed of int
  | D_cut of string * string * float
  | D_heal of string * string * float
  | D_crash of string * float * float (* node, at, recover_after *)
  | D_flap of string * string * float * float * float * float
      (* a, b, start, until, down_dwell, up_dwell *)
  | D_loss of string * float * float option * bool (* node, rate, mean burst, ctl only *)

type directive = { text : string; op : op }

let spec_seed ds =
  List.fold_left (fun acc d -> match d.op with D_seed s -> Some s | _ -> acc) None ds

let schedule d =
  match d.op with
  | D_seed _ | D_loss _ -> ([], [])
  | D_cut (_, _, t) | D_heal (_, _, t) -> ([ t ], [])
  | D_crash (_, t, dur) -> ([ t ], [ dur ])
  | D_flap (_, _, t0, t1, down, up) -> ([ t0; t1 ], [ down; up ])

let split2 ~on s =
  match String.index_opt s on with
  | Some i ->
    Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  | None -> None

(* first ".." occurrence — times on either side contain single dots *)
let split_range s =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '.' && s.[i + 1] = '.' then
      Some (String.sub s 0 i, String.sub s (i + 2) (n - i - 2))
    else go (i + 1)
  in
  go 0

let parse_pair s =
  match String.split_on_char '-' (String.trim s) with
  | [ a; b ] when a <> "" && b <> "" -> Ok (String.trim a, String.trim b)
  | _ -> Error (Printf.sprintf "expected NODE-NODE, got %S (use numeric ids if names contain '-')" s)

let parse_float s =
  match float_of_string_opt (String.trim s) with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "expected a number, got %S" s)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_directive d =
  match split2 ~on:':' d with
  | None -> (
    match split2 ~on:'=' d with
    | Some (k, v) when String.trim k = "seed" -> (
      match int_of_string_opt (String.trim v) with
      | Some s -> Ok (D_seed s)
      | None -> Error (Printf.sprintf "bad seed %S" v))
    | _ -> Error (Printf.sprintf "unrecognized directive %S" d))
  | Some (verb, rest) -> (
    match String.trim verb with
    | "cut" | "heal" -> (
      match split2 ~on:'@' rest with
      | None -> Error (Printf.sprintf "expected A-B@TIME in %S" d)
      | Some (pair, time) ->
        let* a, b = parse_pair pair in
        let* time = parse_float time in
        Ok (if String.trim verb = "cut" then D_cut (a, b, time) else D_heal (a, b, time)))
    | "crash" -> (
      match split2 ~on:'@' rest with
      | None -> Error (Printf.sprintf "expected SW@TIME+DURATION in %S" d)
      | Some (node, spec) -> (
        match split2 ~on:'+' spec with
        | None -> Error (Printf.sprintf "expected TIME+DURATION in %S" d)
        | Some (time, dur) ->
          let* time = parse_float time in
          let* dur = parse_float dur in
          Ok (D_crash (String.trim node, time, dur))))
    | "flap" -> (
      match split2 ~on:'@' rest with
      | None -> Error (Printf.sprintf "expected A-B@T..U/DOWN/UP in %S" d)
      | Some (pair, spec) -> (
        let* a, b = parse_pair pair in
        match String.split_on_char '/' spec with
        | [ range; down; up ] -> (
          match split_range range with
          | None -> Error (Printf.sprintf "expected T..U in %S" range)
          | Some (t0, t1) ->
            let* t0 = parse_float t0 in
            let* t1 = parse_float t1 in
            let* down = parse_float down in
            let* up = parse_float up in
            Ok (D_flap (a, b, t0, t1, down, up)))
        | _ -> Error (Printf.sprintf "expected T..U/DOWN/UP in %S" d)))
    | "loss" -> (
      match split2 ~on:'@' rest with
      | None -> Error (Printf.sprintf "expected SW@RATE[,burst=N][,ctl] in %S" d)
      | Some (node, spec) -> (
        match String.split_on_char ',' spec with
        | [] -> Error (Printf.sprintf "missing loss rate in %S" d)
        | rate :: opts ->
          let* rate = parse_float rate in
          let rec fold burst ctl = function
            | [] -> Ok (burst, ctl)
            | o :: rest -> (
              let o = String.trim o in
              if o = "ctl" then fold burst true rest
              else
                match split2 ~on:'=' o with
                | Some (k, v) when String.trim k = "burst" ->
                  let* b = parse_float v in
                  fold (Some b) ctl rest
                | _ -> Error (Printf.sprintf "unknown loss option %S" o))
          in
          let* burst, ctl = fold None false opts in
          Ok (D_loss (String.trim node, rate, burst, ctl))))
    | v -> Error (Printf.sprintf "unknown chaos verb %S" v))

let parse spec =
  let ds =
    String.split_on_char ';' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | d :: rest -> (
      match parse_directive d with
      | Ok op -> go ({ text = d; op } :: acc) rest
      | Error e -> Error e)
  in
  go [] ds

let node_id topo name =
  match int_of_string_opt name with
  | Some id when id >= 0 && id < Topology.num_nodes topo -> Ok id
  | _ -> (
    try Ok (Topology.node_by_name topo name).Topology.id
    with Not_found -> Error (Printf.sprintf "unknown node %S" name))

(* Every node a directive names exists, every pair is adjacent, crash and
   loss target switches, and every number is one the schedule can run:
   times finite and >= 0, a flap's range ordered and its dwells positive
   (a zero dwell reschedules the flap at the same instant forever), a loss
   rate a probability the loss model can realise. *)
let check_op topo op =
  let err fmt = Printf.ksprintf (fun e -> Error e) fmt in
  let adjacent a b =
    let* ia = node_id topo a in
    let* ib = node_id topo b in
    if Topology.find_link topo ia ib = None then err "%s and %s are not adjacent" a b else Ok ()
  in
  let switch s =
    let* id = node_id topo s in
    if (Topology.node topo id).Topology.kind = Topology.Switch then Ok ()
    else err "%s is not a switch" s
  in
  let time what t =
    if Float.is_finite t && t >= 0. then Ok () else err "%s %g must be finite and >= 0" what t
  in
  let positive what d =
    if Float.is_finite d && d > 0. then Ok () else err "%s %g must be finite and > 0" what d
  in
  match op with
  | D_seed _ -> Ok ()
  | D_cut (a, b, t) | D_heal (a, b, t) ->
    let* () = adjacent a b in
    time "time" t
  | D_flap (a, b, t0, t1, down, up) ->
    let* () = adjacent a b in
    let* () = time "start" t0 in
    let* () = time "end" t1 in
    let* () = if t0 <= t1 then Ok () else err "start %g is after end %g" t0 t1 in
    (* a dwell too small to move the clock would reschedule the flap at
       one instant forever. One ulp of the end time moves every earlier
       time too: a smaller dwell can pass [t1 +. d > t1] by rounding up
       at [t1] and still round back to [now] at some [now < t1]. *)
    let dwell what d =
      let* () = positive what d in
      if d >= Float.succ t1 -. t1 then Ok ()
      else err "%s %g must advance the clock past end %g" what d t1
    in
    let* () = dwell "down dwell" down in
    dwell "up dwell" up
  | D_crash (s, t, dur) ->
    let* () = switch s in
    let* () = time "time" t in
    positive "duration" dur
  | D_loss (s, rate, None, _) ->
    let* () = switch s in
    if rate >= 0. && rate <= 1. then Ok () else err "loss rate %g must be in [0, 1]" rate
  | D_loss (s, rate, Some burst, _) ->
    let* () = switch s in
    let* () =
      if rate > 0. && rate < 1. then Ok ()
      else err "loss rate %g must be in (0, 1) with a burst" rate
    in
    let* () =
      if Float.is_finite burst && burst >= 1. then Ok ()
      else err "burst %g must be finite and >= 1" burst
    in
    if fst (gilbert_elliott ~loss:rate ~mean_burst:burst) <= 1. then Ok ()
    else err "loss rate %g is infeasible in bursts of mean length %g" rate burst

let first_error topo ds =
  List.find_map
    (fun d -> match check_op topo d.op with Ok () -> None | Error e -> Some (d, e))
    ds

let check topo ds =
  Option.fold (first_error topo ds) ~none:(Ok ()) ~some:(fun (d, e) ->
      Error (Printf.sprintf "%S: %s" d.text e))

let apply t ds =
  let topo = Net.topology t.net in
  Option.iter (fun (_, e) -> invalid_arg ("Chaos.apply: " ^ e)) (first_error topo ds);
  let resolve name = Result.get_ok (node_id topo name) in
  List.iter
    (fun d ->
      match d.op with
      | D_seed _ -> () (* consumed by the caller via [spec_seed] before [create] *)
      | D_cut (a, b, time) -> at t ~time (Link_down (resolve a, resolve b))
      | D_heal (a, b, time) -> at t ~time (Link_up (resolve a, resolve b))
      | D_crash (s, time, dur) -> crash_switch t ~sw:(resolve s) ~at:time ~recover_after:dur
      | D_flap (a, b, start, until, down, up) ->
        flap_link t ~a:(resolve a) ~b:(resolve b) ~start ~until ~down_dwell:down
          ~up_dwell:up
      | D_loss (s, rate, burst, ctl) -> (
        let sw = resolve s in
        let classes = if ctl then Loss.Control_only else Loss.All in
        match burst with
        | None ->
          ignore
            (Loss.install t.net ~sw ~prob:rate
               ~seed:(1000 + Prng.int t.rng 1_000_000)
               ~classes ())
        | Some mean_burst ->
          ignore
            (burst_loss t ~sw ~start:(Net.now t.net) ~until:infinity ~loss:rate ~mean_burst
               ~classes ())))
    ds
