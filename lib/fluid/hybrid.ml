module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow
module Monitor = Ff_netsim.Monitor
module Event = Ff_obs.Event

type force = Auto | All_packet | All_fluid
type tier = Tier_auto | Fluid_only | Packet_only

type profile =
  | Cbr of { rate_pps : float; packet_size : int }
  | Tcp of { max_cwnd : float; packet_size : int }

type pflow = Pcbr of Flow.Cbr.t | Ptcp of Flow.Tcp.t

type member = {
  m_src : int;
  m_dst : int;
  m_profile : profile;
  m_stop : float option;
  m_tier : tier;
  mutable m_fluid : Fluid.flow option;
  mutable m_packet : pflow option;
  mutable m_retired : pflow list;
  mutable m_demoted : bool;
  mutable m_demotions : int;
  mutable m_done : bool;
}

(* Members sharing a fluid path class live in one bucket: they share a
   route, so they demote and promote together, and the reevaluation sweep
   can test hotness once per class instead of once per member. *)
type bucket = {
  b_cls : int;
  mutable b_members : member list;
  mutable b_size : int;
  mutable b_rep : Fluid.flow;  (* any member's flow: path lookups *)
  mutable b_hot : bool;
  mutable b_demoted : int;
}

type t = {
  net : Net.t;
  fl : Fluid.t;
  force : force;
  hot : int array;  (* per-node active-region count (nests) *)
  demote_budget : int;
  buckets : (int, bucket) Hashtbl.t;  (* fluid class id -> bucket *)
  mutable members : member list;
  mutable n_members : int;
  mutable demoted : int;
  mutable demoted_peak : int;
  mutable demotions : int;
  mutable promotions : int;
  mutable demote_denied : int;
  mutable reeval_pending : bool;
  mutable last_hot : int;
}

let create ?(force = Auto) ?update_period ?solver ?full_frac ?demote_budget net
    () =
  let n_nodes =
    1 + List.fold_left max (-1) (Net.switch_ids net @ Net.host_ids net)
  in
  let fl = Fluid.create ?update_period ?solver ?full_frac net () in
  Fluid.enable_loss_coupling fl;
  {
    net;
    fl;
    force;
    hot = Array.make (max 1 n_nodes) 0;
    demote_budget = (match demote_budget with Some b -> b | None -> max_int);
    buckets = Hashtbl.create 256;
    members = [];
    n_members = 0;
    demoted = 0;
    demoted_peak = 0;
    demotions = 0;
    promotions = 0;
    demote_denied = 0;
    reeval_pending = false;
    last_hot = -1;
  }

let net t = t.net
let fluid t = t.fl
let force_mode t = t.force
let members t = t.n_members
let demoted_count t = t.demoted
let demoted_peak t = t.demoted_peak
let demotions t = t.demotions
let promotions t = t.promotions
let demote_denied t = t.demote_denied
let is_demoted m = m.m_demoted
let demotions_of m = m.m_demotions

let demoted_fraction t =
  if t.n_members = 0 then 0.
  else float_of_int t.demoted /. float_of_int t.n_members

let path_rtt t ~src ~dst =
  match Net.current_path t.net ~src ~dst with
  | Some p when List.length p >= 2 ->
    let rec sum acc = function
      | a :: (b :: _ as rest) -> sum (acc +. Net.link_delay t.net ~from_:a ~to_:b) rest
      | _ -> acc
    in
    Float.max 0.001 (2. *. sum 0. p)
  | _ -> 0.01

let fluid_kind t ~src ~dst = function
  | Cbr { rate_pps; packet_size } ->
    Fluid.Constant { rate = rate_pps *. float_of_int packet_size *. 8. }
  | Tcp { max_cwnd; packet_size } ->
    let rtt = path_rtt t ~src ~dst in
    Fluid.Adaptive
      { rtt; max_rate = max_cwnd *. float_of_int packet_size *. 8. /. rtt }

let start_packet t m ~at =
  let pf =
    match m.m_profile with
    | Cbr { rate_pps; packet_size } ->
      Pcbr
        (Flow.Cbr.start t.net ~src:m.m_src ~dst:m.m_dst ~rate_pps ~at
           ?stop:m.m_stop ~packet_size ())
    | Tcp { max_cwnd; packet_size } ->
      Ptcp
        (Flow.Tcp.start t.net ~src:m.m_src ~dst:m.m_dst ~at ?stop:m.m_stop
           ~packet_size ~max_cwnd ())
  in
  m.m_packet <- Some pf

let silence_packet m =
  match m.m_packet with
  | None -> ()
  | Some pf ->
    (match pf with
    | Pcbr c -> Flow.Cbr.stop_now c
    | Ptcp f -> Flow.Tcp.pause f);
    (* retire, don't drop: in-flight packets still land on its counter *)
    m.m_retired <- pf :: m.m_retired;
    m.m_packet <- None

let bucket_demoted t m d =
  match m.m_fluid with
  | Some fl -> (
    match Hashtbl.find_opt t.buckets (Fluid.class_id fl) with
    | Some b -> b.b_demoted <- b.b_demoted + d
    | None -> ())
  | None -> ()

let demote t m =
  match m.m_fluid with
  | Some fl when Fluid.is_attached fl ->
    if m.m_tier = Tier_auto && t.demoted >= t.demote_budget then
      (* over budget: the member stays on the fluid tier at full fidelity's
         expense — counted so scenarios can report the shortfall. Only
         Tier_auto members are deniable; Packet_only is a contract. *)
      t.demote_denied <- t.demote_denied + 1
    else begin
    Fluid.detach t.fl fl;
    start_packet t m ~at:(Net.now t.net);
    m.m_demoted <- true;
    m.m_demotions <- m.m_demotions + 1;
    bucket_demoted t m 1;
    t.demotions <- t.demotions + 1;
    t.demoted <- t.demoted + 1;
    if t.demoted > t.demoted_peak then t.demoted_peak <- t.demoted
    end
  | _ -> ()

let promote t m =
  if m.m_demoted then begin
    silence_packet m;
    (match m.m_fluid with Some fl -> Fluid.attach t.fl fl | None -> ());
    m.m_demoted <- false;
    bucket_demoted t m (-1);
    t.promotions <- t.promotions + 1;
    t.demoted <- t.demoted - 1
  end

let path_hot t fl =
  Fluid.path_crosses fl ~f:(fun n ->
      n >= 0 && n < Array.length t.hot && t.hot.(n) > 0)

let bucket_of t fl =
  let cid = Fluid.class_id fl in
  match Hashtbl.find_opt t.buckets cid with
  | Some b -> b
  | None ->
    let b =
      { b_cls = cid; b_members = []; b_size = 0; b_rep = fl; b_hot = false;
        b_demoted = 0 }
    in
    Hashtbl.add t.buckets cid b;
    b

(* O(classes + members of classes whose hotness flipped): a mode change on
   a handful of switches no longer walks the whole member population. *)
let reevaluate t =
  if t.force = Auto then begin
    Fluid.refresh_paths t.fl;
    let n_dem = ref 0 and n_pro = ref 0 in
    let sweep m hot =
      if (not m.m_done) && m.m_tier = Tier_auto then
        match m.m_fluid with
        | None -> ()
        | Some fl ->
          if hot && Fluid.is_attached fl then begin
            demote t m;
            if m.m_demoted then incr n_dem
          end
          else if (not hot) && m.m_demoted then begin
            promote t m;
            incr n_pro
          end
    in
    Hashtbl.iter
      (fun _ b ->
        let hot = path_hot t b.b_rep in
        (* paths may have changed while hotness didn't: flips and hot
           buckets both rescan, a cold bucket that stayed cold is skipped.
           A hot bucket with nothing demoted is denied wholesale once the
           budget is spent — walking its members to deny them one by one
           made every sweep O(population) at 10^6-flow scale. *)
        if hot || b.b_hot || b.b_demoted > 0 then begin
          if hot && b.b_demoted = 0 && t.demoted >= t.demote_budget then begin
            if not b.b_hot then t.demote_denied <- t.demote_denied + b.b_size
          end
          else List.iter (fun m -> sweep m hot) b.b_members
        end;
        b.b_hot <- hot)
      t.buckets;
    Fluid.recompute t.fl;
    if Net.obs_active t.net then begin
      if !n_dem > 0 then
        Net.obs_emit t.net
          (Event.Fluid_tier { node = t.last_hot; flows = !n_dem; demoted = true });
      if !n_pro > 0 then
        Net.obs_emit t.net
          (Event.Fluid_tier { node = t.last_hot; flows = !n_pro; demoted = false })
    end
  end

let schedule_reeval t =
  if t.force = Auto && not t.reeval_pending then begin
    t.reeval_pending <- true;
    Engine.schedule (Net.engine t.net) ~at:(Net.now t.net) (fun () ->
        t.reeval_pending <- false;
        reevaluate t)
  end

let mark_hot t ~node =
  if node >= 0 && node < Array.length t.hot then begin
    t.hot.(node) <- t.hot.(node) + 1;
    if t.hot.(node) = 1 then begin
      t.last_hot <- node;
      schedule_reeval t
    end
  end

let clear_hot t ~node =
  if node >= 0 && node < Array.length t.hot && t.hot.(node) > 0 then begin
    t.hot.(node) <- t.hot.(node) - 1;
    if t.hot.(node) = 0 then begin
      t.last_hot <- node;
      schedule_reeval t
    end
  end

let hot_nodes t =
  let acc = ref [] in
  Array.iteri (fun i c -> if c > 0 then acc := i :: !acc) t.hot;
  !acc

let admit t m =
  let fl = Fluid.add t.fl ~src:m.m_src ~dst:m.m_dst
      (fluid_kind t ~src:m.m_src ~dst:m.m_dst m.m_profile)
  in
  m.m_fluid <- Some fl;
  let b = bucket_of t fl in
  b.b_members <- m :: b.b_members;
  b.b_size <- b.b_size + 1;
  b.b_rep <- fl;
  if t.force = Auto && (m.m_tier = Packet_only || (m.m_tier = Tier_auto && path_hot t fl))
  then demote t m

let stop_member t m =
  if not m.m_done then begin
    m.m_done <- true;
    if m.m_demoted then begin
      m.m_demoted <- false;
      bucket_demoted t m (-1);
      t.demoted <- t.demoted - 1
    end;
    silence_packet m;
    match m.m_fluid with Some fl -> Fluid.detach t.fl fl | None -> ()
  end

let add_flow t ~src ~dst ?at ?stop ?(tier = Tier_auto) profile =
  let now = Net.now t.net in
  let at = match at with Some a -> Float.max a now | None -> now in
  let m =
    {
      m_src = src;
      m_dst = dst;
      m_profile = profile;
      m_stop = stop;
      m_tier = tier;
      m_fluid = None;
      m_packet = None;
      m_retired = [];
      m_demoted = false;
      m_demotions = 0;
      m_done = false;
    }
  in
  t.members <- m :: t.members;
  t.n_members <- t.n_members + 1;
  if t.force = All_packet || (t.force = Auto && tier = Packet_only) then
    (* the bit-identity path: exactly the calls a pure packet setup makes,
       in the same order, with no extra scheduled events *)
    start_packet t m ~at
  else begin
    if at <= now then admit t m
    else Engine.schedule (Net.engine t.net) ~at (fun () -> if not m.m_done then admit t m);
    match stop with
    | Some s when s > at ->
      Engine.schedule (Net.engine t.net) ~at:s (fun () -> stop_member t m)
    | _ -> ()
  end;
  m

let pflow_delivered = function
  | Pcbr c -> Flow.Cbr.delivered_bytes c
  | Ptcp f -> Flow.Tcp.delivered_bytes f

let delivered_bytes t m =
  let fluid_part =
    match m.m_fluid with Some fl -> Fluid.delivered_bytes t.fl fl | None -> 0.
  in
  let packet_part =
    List.fold_left
      (fun acc pf -> acc +. pflow_delivered pf)
      (match m.m_packet with Some pf -> pflow_delivered pf | None -> 0.)
      m.m_retired
  in
  fluid_part +. packet_part

let total_delivered_bytes t =
  List.fold_left (fun acc m -> acc +. delivered_bytes t m) 0. t.members

let delivered_probe t = Monitor.counter_probe (fun () -> total_delivered_bytes t)
