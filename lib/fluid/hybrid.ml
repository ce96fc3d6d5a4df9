module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Flow = Ff_netsim.Flow
module Event = Ff_obs.Event

type force = Auto | All_packet | All_fluid
type tier = Tier_auto | Fluid_only | Packet_only

type profile =
  | Cbr of { rate_pps : float; packet_size : int }
  | Tcp of { max_cwnd : float; packet_size : int }

let no_profile = Cbr { rate_pps = 0.; packet_size = 0 }  (* column filler *)

type pflow = Pnone | Pcbr of Flow.Cbr.t | Ptcp of Flow.Tcp.t

(* A member is a dense id into the per-member columns of [t]. *)
type member = int

(* Packet-level state, one slot per member that has ever been started at
   packet level. *)
type slot = {
  mutable p_cur : pflow;
  mutable p_retired : pflow list;  (* silenced flows: in-flight packets still count *)
  mutable p_demotions : int;
}

(* a member's state byte: the tier code in bits 0-1, then flag bits *)
let f_demoted = 4
let f_done = 8

(* Members sharing a fluid path class live in one bucket: they share a
   route, so they demote and promote together, and the reevaluation sweep
   can test hotness once per class instead of once per member. The two
   counts cover [Tier_auto] members only, the ones a sweep can move: they
   let a walk stop as soon as its bucket has nothing left to change. *)
type bucket = {
  mutable b_head : member;  (* newest member; [m_next] chains to older ones *)
  mutable b_size : int;
  mutable b_rep : Fluid.flow;  (* any member's flow: path lookups *)
  mutable b_hot : bool;
  mutable b_live : int;  (* attached to the fluid tier and not done *)
  mutable b_demoted : int;
}

let nil_bucket =
  { b_head = -1; b_size = 0; b_rep = -1; b_hot = false; b_live = 0; b_demoted = 0 }

type t = {
  net : Net.t;
  fl : Fluid.t;
  force : force;
  hot : int array;  (* per-node active-region count (nests) *)
  hot_pred : int -> bool;  (* node is hot *)
  mutable n_hot : int;  (* nodes with a nonzero count *)
  demote_budget : int;
  buckets : (int, bucket) Hashtbl.t;  (* fluid class id -> bucket; sweep order *)
  mutable by_cls : bucket array;  (* the same buckets, dense by class id *)
  (* per member, dense, index = member id; all of one capacity. Endpoints
     are not stored: an admitted member reads them from its fluid class. *)
  mutable m_profile : profile array;  (* shared by members added with one value *)
  mutable m_fluid : int array;  (* fluid flow id, -1 before admission *)
  mutable m_slot : int array;  (* packet slot, -1 until first started at packet level *)
  mutable m_next : int array;  (* next older member of the same bucket, or -1 *)
  mutable m_state : Bytes.t;  (* tier code and flag bits *)
  path_buf : int array;  (* [Net.path_into] scratch *)
  (* per packet slot, dense, in first-start order *)
  mutable slots : slot array;
  mutable slot_bytes : float array;  (* scratch for [sum_delivered_bytes] *)
  mutable n_slots : int;
  mutable last_cbr : profile;  (* the [Cbr] profile [last_kind] was built from *)
  mutable last_kind : Fluid.kind;
  mutable n_members : int;
  mutable demoted : int;
  mutable demoted_peak : int;
  mutable demotions : int;
  mutable promotions : int;
  mutable demote_denied : int;
  mutable reeval_pending : bool;
  mutable last_hot : int;
}

let create ?(force = Auto) ?update_period ?demote_budget net () =
  let n_nodes =
    1 + List.fold_left max (-1) (Net.switch_ids net @ Net.host_ids net)
  in
  let fl = Fluid.create ?update_period net () in
  Fluid.enable_loss_coupling fl;
  let hot = Array.make (max 1 n_nodes) 0 in
  {
    net;
    fl;
    force;
    hot;
    hot_pred = (fun n -> n >= 0 && n < Array.length hot && hot.(n) > 0);
    n_hot = 0;
    demote_budget = (match demote_budget with Some b -> b | None -> max_int);
    buckets = Hashtbl.create 256;
    by_cls = Array.make 64 nil_bucket;
    m_profile = Array.make 64 no_profile;
    m_fluid = Array.make 64 0;
    m_slot = Array.make 64 0;
    m_next = Array.make 64 0;
    m_state = Bytes.create 64;
    path_buf = Net.path_buffer net;
    slots = [||];
    slot_bytes = [||];
    n_slots = 0;
    last_cbr = no_profile;
    last_kind = Fluid.Constant { rate = 0. };
    n_members = 0;
    demoted = 0;
    demoted_peak = 0;
    demotions = 0;
    promotions = 0;
    demote_denied = 0;
    reeval_pending = false;
    last_hot = -1;
  }

let state t m = Char.code (Bytes.get t.m_state m)
let has t m bit = state t m land bit <> 0

let set_flag t m bit on =
  let v = state t m in
  Bytes.set t.m_state m (Char.unsafe_chr (if on then v lor bit else v land lnot bit))

let tier_code = function Tier_auto -> 0 | Fluid_only -> 1 | Packet_only -> 2

let tier_of t m =
  match state t m land 3 with 0 -> Tier_auto | 1 -> Fluid_only | _ -> Packet_only

let net t = t.net
let fluid t = t.fl
let demoted_count t = t.demoted
let demoted_peak t = t.demoted_peak
let demotions t = t.demotions
let promotions t = t.promotions
let demote_denied t = t.demote_denied
let is_demoted t m = has t m f_demoted

let path_rtt t ~src ~dst =
  let p = t.path_buf in
  let n = Net.path_into t.net ~src ~dst p in
  if n >= 2 then begin
    let sum = ref 0. in
    for i = 0 to n - 2 do
      sum := !sum +. Net.link_delay t.net ~from_:p.(i) ~to_:p.(i + 1)
    done;
    Float.max 0.001 (2. *. !sum)
  end
  else 0.01

let fluid_kind t ~src ~dst = function
  | Cbr { rate_pps; packet_size } ->
    Fluid.Constant { rate = rate_pps *. float_of_int packet_size *. 8. }
  | Tcp { max_cwnd; packet_size } ->
    let rtt = path_rtt t ~src ~dst in
    Fluid.Adaptive
      { rtt; max_rate = max_cwnd *. float_of_int packet_size *. 8. /. rtt }

(* A [Cbr] kind depends on the profile alone: members added with one
   profile value reuse one kind, which [Fluid.add] then matches by [==]. *)
let member_kind t m ~src ~dst =
  match t.m_profile.(m) with
  | Cbr _ as p ->
    if p != t.last_cbr then begin
      t.last_cbr <- p;
      t.last_kind <- fluid_kind t ~src:0 ~dst:0 p
    end;
    t.last_kind
  | Tcp _ as p -> fluid_kind t ~src ~dst p

let slot_of t m =
  let s = t.m_slot.(m) in
  if s >= 0 then t.slots.(s)
  else begin
    let p = { p_cur = Pnone; p_retired = []; p_demotions = 0 } in
    let s = t.n_slots in
    if s = Array.length t.slots then begin
      let cap = max 16 (2 * s) in
      t.slots <- Array.init cap (fun k -> if k < s then t.slots.(k) else p);
      t.slot_bytes <- Array.make cap 0.
    end;
    t.slots.(s) <- p;
    t.n_slots <- s + 1;
    t.m_slot.(m) <- s;
    p
  end

let start_packet t m ~src ~dst ~at =
  let pf =
    match t.m_profile.(m) with
    | Cbr { rate_pps; packet_size } ->
      Pcbr (Flow.Cbr.start t.net ~src ~dst ~rate_pps ~at ~packet_size ())
    | Tcp { max_cwnd; packet_size } ->
      Ptcp (Flow.Tcp.start t.net ~src ~dst ~at ~packet_size ~max_cwnd ())
  in
  (slot_of t m).p_cur <- pf

let silence_packet t m =
  let s = t.m_slot.(m) in
  if s >= 0 then begin
    let p = t.slots.(s) in
    (* retire, don't drop: in-flight packets still land on its counter *)
    let retire pf =
      p.p_retired <- pf :: p.p_retired;
      p.p_cur <- Pnone
    in
    match p.p_cur with
    | Pnone -> ()
    | Pcbr c as pf -> Flow.Cbr.stop_now c; retire pf
    | Ptcp f as pf -> Flow.Tcp.pause f; retire pf
  end

let find_bucket t cid =
  if cid >= 0 && cid < Array.length t.by_cls then t.by_cls.(cid) else nil_bucket

let count t m ~live ~demoted =
  let fid = t.m_fluid.(m) in
  if fid >= 0 && tier_of t m = Tier_auto then begin
    let b = find_bucket t (Fluid.class_id t.fl fid) in
    if b != nil_bucket then begin
      b.b_live <- b.b_live + live;
      b.b_demoted <- b.b_demoted + demoted
    end
  end

(* [m] is a live [Tier_auto] member: callers check. *)
let demote t m =
  if t.demoted >= t.demote_budget then
    (* over budget: the member stays on the fluid tier at full fidelity's
       expense — counted so scenarios can report the shortfall *)
    t.demote_denied <- t.demote_denied + 1
  else begin
    let fid = t.m_fluid.(m) in
    Fluid.detach t.fl fid;
    start_packet t m ~src:(Fluid.src t.fl fid) ~dst:(Fluid.dst t.fl fid) ~at:(Net.now t.net);
    set_flag t m f_demoted true;
    let p = slot_of t m in
    p.p_demotions <- p.p_demotions + 1;
    count t m ~live:(-1) ~demoted:1;
    t.demotions <- t.demotions + 1;
    t.demoted <- t.demoted + 1;
    if t.demoted > t.demoted_peak then t.demoted_peak <- t.demoted
  end

let promote t m =
  if has t m f_demoted then begin
    silence_packet t m;
    let fid = t.m_fluid.(m) in
    if fid >= 0 then Fluid.attach t.fl fid;
    set_flag t m f_demoted false;
    count t m ~live:1 ~demoted:(-1);
    t.promotions <- t.promotions + 1;
    t.demoted <- t.demoted - 1
  end

let path_hot t fid = Fluid.path_crosses t.fl fid ~f:t.hot_pred

let bucket_of t fid =
  let cid = Fluid.class_id t.fl fid in
  let b = find_bucket t cid in
  if b != nil_bucket then b
  else begin
    let b =
      { b_head = -1; b_size = 0; b_rep = fid; b_hot = false; b_live = 0; b_demoted = 0 }
    in
    Hashtbl.add t.buckets cid b;
    let n = Array.length t.by_cls in
    if cid >= n then begin
      let a = Array.make (max (cid + 1) (2 * n)) nil_bucket in
      Array.blit t.by_cls 0 a 0 n;
      t.by_cls <- a
    end;
    t.by_cls.(cid) <- b;
    b
  end

(* A member the sweep demotes when its bucket is hot. *)
let live t m =
  (not (has t m f_done)) && tier_of t m = Tier_auto && Fluid.is_attached t.fl t.m_fluid.(m)

(* Buckets are visited in the Hashtbl's order over class ids and members
   newest first: that order decides who gets the demote budget. Costs
   O(classes) plus, per walked bucket, the members up to the last one it
   demotes or promotes: a hot walk stops when its bucket has no live
   member left or the budget is spent, a cold one when it has no demoted
   member left. While the budget is spent, a hot bucket adds its live
   members to [demote_denied] at every sweep, or all its members once as
   it turns hot if it has nothing demoted. *)
let reevaluate t =
  if t.force = Auto then begin
    Fluid.refresh_paths t.fl;
    let n_dem = ref 0 and n_pro = ref 0 in
    Hashtbl.iter
      (fun _ b ->
        let hot = path_hot t b.b_rep in
        let m = ref b.b_head in
        if hot then begin
          if t.demoted >= t.demote_budget && b.b_demoted = 0 then begin
            if not b.b_hot then t.demote_denied <- t.demote_denied + b.b_size
          end
          else begin
            while b.b_live > 0 && t.demoted < t.demote_budget && !m >= 0 do
              let x = !m in
              m := t.m_next.(x);
              if live t x then begin
                demote t x;
                incr n_dem
              end
            done;
            if t.demoted >= t.demote_budget then
              t.demote_denied <- t.demote_denied + b.b_live
          end
        end
        else
          while b.b_demoted > 0 && !m >= 0 do
            let x = !m in
            m := t.m_next.(x);
            if tier_of t x = Tier_auto && has t x f_demoted then begin
              promote t x;
              incr n_pro
            end
          done;
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
      t.n_hot <- t.n_hot + 1;
      t.last_hot <- node;
      schedule_reeval t
    end
  end

let clear_hot t ~node =
  if node >= 0 && node < Array.length t.hot && t.hot.(node) > 0 then begin
    t.hot.(node) <- t.hot.(node) - 1;
    if t.hot.(node) = 0 then begin
      t.n_hot <- t.n_hot - 1;
      t.last_hot <- node;
      schedule_reeval t
    end
  end

let admit t m ~src ~dst =
  let fid = Fluid.add t.fl ~src ~dst (member_kind t m ~src ~dst) in
  t.m_fluid.(m) <- fid;
  let b = bucket_of t fid in
  t.m_next.(m) <- b.b_head;
  b.b_head <- m;
  b.b_size <- b.b_size + 1;
  b.b_rep <- fid;
  if tier_of t m = Tier_auto then begin
    b.b_live <- b.b_live + 1;
    if t.force = Auto && t.n_hot > 0 && path_hot t fid then demote t m
  end

let stop_member t m =
  if not (has t m f_done) then begin
    set_flag t m f_done true;
    if has t m f_demoted then begin
      count t m ~live:0 ~demoted:(-1);
      set_flag t m f_demoted false;
      t.demoted <- t.demoted - 1
    end;
    silence_packet t m;
    let fid = t.m_fluid.(m) in
    if fid >= 0 && Fluid.is_attached t.fl fid then begin
      count t m ~live:(-1) ~demoted:0;
      Fluid.detach t.fl fid
    end
  end

let check_buckets t =
  let err = ref None in
  Hashtbl.iter
    (fun cid b ->
      let n_live = ref 0 and n_demoted = ref 0 and m = ref b.b_head in
      while !m >= 0 do
        let x = !m in
        if live t x then incr n_live
        else if tier_of t x = Tier_auto && has t x f_demoted then incr n_demoted;
        m := t.m_next.(x)
      done;
      if !err = None && (!n_live <> b.b_live || !n_demoted <> b.b_demoted) then
        err :=
          Some
            (Printf.sprintf "class %d counts %d live, %d demoted; its members hold %d, %d" cid
               b.b_live b.b_demoted !n_live !n_demoted))
    t.buckets;
  match !err with None -> Ok () | Some e -> Error e

let grow_members t =
  let n = t.n_members and cap = 2 * Array.length t.m_fluid in
  let grow a x =
    let b = Array.make cap x in
    Array.blit a 0 b 0 n;
    b
  in
  t.m_profile <- grow t.m_profile no_profile;
  t.m_fluid <- grow t.m_fluid 0;
  t.m_slot <- grow t.m_slot 0;
  t.m_next <- grow t.m_next 0;
  t.m_state <- Bytes.extend t.m_state 0 (cap - Bytes.length t.m_state)

let add_flow t ~src ~dst ?at ?(tier = Tier_auto) profile =
  let now = Net.now t.net in
  let at = match at with Some a -> Float.max a now | None -> now in
  let m = t.n_members in
  if m = Array.length t.m_fluid then grow_members t;
  t.m_profile.(m) <- profile;
  t.m_fluid.(m) <- -1;
  t.m_slot.(m) <- -1;
  t.m_next.(m) <- -1;
  Bytes.set t.m_state m (Char.chr (tier_code tier));
  t.n_members <- m + 1;
  if t.force = All_packet || (t.force = Auto && tier = Packet_only) then
    (* the bit-identity path: exactly the calls a pure packet setup makes,
       in the same order, with no extra scheduled events *)
    start_packet t m ~src ~dst ~at
  else if at <= now then admit t m ~src ~dst
  else
    Engine.schedule (Net.engine t.net) ~at (fun () ->
        if not (has t m f_done) then admit t m ~src ~dst);
  m

let pflow_delivered = function
  | Pnone -> 0.
  | Pcbr c -> Flow.Cbr.delivered_bytes c
  | Ptcp f -> Flow.Tcp.delivered_bytes f

(* the current flow's bytes, then the retired ones newest first *)
let[@inline] slot_bytes p =
  let acc = ref (pflow_delivered p.p_cur) and l = ref p.p_retired in
  while !l != [] do
    match !l with
    | pf :: rest ->
      acc := !acc +. pflow_delivered pf;
      l := rest
    | [] -> ()
  done;
  !acc

let delivered_bytes t m =
  let fid = t.m_fluid.(m) and s = t.m_slot.(m) in
  let fluid_part = if fid >= 0 then Fluid.delivered_bytes t.fl fid else 0. in
  let packet_part = if s >= 0 then slot_bytes t.slots.(s) else 0. in
  fluid_part +. packet_part

(* Two passes: packet parts first, slot by slot (slots sit together in
   memory, the members that own them do not), then the members in id
   order, summed inside Fluid where the per-flow reads stay unboxed. *)
let sum_delivered_bytes t ~first ~count =
  if first < 0 || count < 0 || first + count > t.n_members then
    invalid_arg "Hybrid.sum_delivered_bytes: range outside the population";
  for s = 0 to t.n_slots - 1 do
    t.slot_bytes.(s) <- slot_bytes t.slots.(s)
  done;
  Fluid.sum_delivered_bytes t.fl ~flows:t.m_fluid ~first ~count ~extra:t.slot_bytes
    ~extra_of:t.m_slot
