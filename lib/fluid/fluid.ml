module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Event = Ff_obs.Event
module Vec = Ff_util.Vec
module Int_table = Ff_util.Int_table

type kind =
  | Constant of { rate : float }
  | Adaptive of { rtt : float; max_rate : float }

type solver_mode = Incremental | Always_full

(* the AIMD segment, bits (1500 B): additive increase adds one per RTT
   every RTT *)
let mss_bits = 12_000.

type solver_stats = {
  solves : int;
  skipped : int;
  full_solves : int;
  touched_classes : int;
  seen_classes : int;
  loss_cuts : int;
  max_component : int;
}

type clss = {
  c_id : int;
  c_src : int;
  c_dst : int;
  c_kind : kind;
  mutable c_gen : int;  (* bumped on re-route; stale incidence entries carry old gens *)
  mutable c_path : int array;  (* node ids, hosts included; [||] = unroutable *)
  mutable c_links : int array;  (* directed-link indices along c_path *)
  mutable c_members : int;
  (* the class's floats live in [t]'s class columns *)
  mutable c_pending : bool;  (* queued as a dirty seed for the next solve *)
  c_next_pair : int;  (* next class with the same (src, dst), or -1 *)
  (* solver scratch, epoch/stamp-guarded so it never needs clearing *)
  mutable c_active : bool;
  mutable c_touch : int;  (* epoch: member of the touched set *)
  mutable c_done : int;  (* epoch: rate assigned this solve *)
  mutable c_comp : int;  (* fill stamp: collected into the current component *)
  mutable c_frozen : int;  (* fill stamp: frozen during the current fill *)
}

(* A flow is a dense id into the per-flow columns of [t]. *)
type flow = int

(* Float accumulators in a flat float-only record: a mutable float field of
   a mixed record boxes a fresh float on every write. *)
type acc = {
  mutable last_advance : float;
  mutable delivered_bits : float;
  mutable hop_bits : float;
}

type t = {
  net : Net.t;
  period : float;
  mode : solver_mode;
  full_frac : float;
  n_nodes : int;
  pair_head : Int_table.t;  (* src * n_nodes + dst -> first class id of its chain *)
  mutable cls : clss array;  (* dense store, index = c_id *)
  mutable n_cls : int;
  nil : clss;  (* growth filler *)
  (* per class, dense, index = c_id: float columns, since a mutable float
     field of the mixed [clss] record boxes a fresh float on every write.
     Closed-form AIMD cap: cap(t) = min(max_rate, base + slope*(t - t0)),
     evaluated absolutely at every solve (never accumulated) so a class
     solved lazily produces the same bits as one solved eagerly. *)
  mutable c_rate : float array;  (* per-flow allocated rate, bits/s *)
  mutable c_cum_bits : float array;  (* per-flow delivered-bits integral *)
  mutable c_cap : float array;  (* cap(now) as of the last evaluation *)
  mutable c_cap_base : float array;
  mutable c_t0 : float array;  (* the AIMD cap's t0 *)
  mutable c_cut : float array;  (* time of the last cut *)
  mutable c_bound : float array;  (* solver scratch: this solve's bound *)
  (* per flow, dense, index = flow id *)
  mutable f_cls : int array;  (* class id *)
  mutable f_att : Bytes.t;  (* '\001' while attached *)
  mutable f_base : float array;  (* bytes banked from earlier attachment spans *)
  mutable f_join : float array;  (* c_cum_bits snapshot at last attach *)
  mutable n_flows : int;
  (* per directed link, dense; all arrays sized Net.n_dirlinks *)
  n_links : int;
  l_inc : Vec.t array;  (* incidence: flat (class id, gen) pairs *)
  l_stale : int array;  (* stale incidence entries, drives compaction *)
  l_has : bool array;  (* ever carried a class (member of links_used) *)
  l_demand : float array;  (* sum of member-weighted bounds crossing *)
  l_avail : float array;  (* capacity net of measured packet bps *)
  l_pkt : float array;  (* last observed packet bps, for drift detection *)
  l_load : float array;  (* fluid load pushed to Net last solve *)
  l_rem : float array;  (* fill scratch: remaining capacity *)
  l_w : float array;  (* fill scratch: unfrozen member weight *)
  l_contended : bool array;  (* demand exceeds avail: a potential bottleneck *)
  l_pending : bool array;
  l_dropped : bool array;
  l_seen : int array;  (* epoch: expanded during the touched closure *)
  l_fill : int array;  (* fill stamp: member of the current component *)
  l_reload : int array;  (* epoch: queued for a load re-push *)
  links_used : Vec.t;
  pending_cls : Vec.t;
  pending_links : Vec.t;
  drop_links : Vec.t;
  touched : Vec.t;
  comp : Vec.t;
  comp_links : Vec.t;
  reload : Vec.t;
  mutable sort_buf : int array;
  path_buf : int array;  (* [Net.path_into] scratch *)
  mutable live : int -> int -> bool;  (* incidence pair (id, gen) is current *)
  mutable epoch : int;
  mutable fill_stamp : int;
  mutable attached : int;
  mutable armed : bool;  (* a solve tick is scheduled *)
  acc : acc;
  mutable rate_events : int;
  mutable st_solves : int;
  mutable st_skipped : int;
  mutable st_full : int;
  mutable st_touched : int;
  mutable st_seen : int;
  mutable st_loss_cuts : int;
  mutable st_max_comp : int;
}

let nil_class =
  {
    c_id = -1;
    c_src = -1;
    c_dst = -1;
    c_kind = Constant { rate = 0. };
    c_gen = 0;
    c_path = [||];
    c_links = [||];
    c_members = 0;
    c_pending = false;
    c_next_pair = -1;
    c_active = false;
    c_touch = 0;
    c_done = 0;
    c_comp = 0;
    c_frozen = 0;
  }

let create ?(update_period = 0.25) ?(solver = Incremental) ?(full_frac = 0.6) net () =
  let n_links = Net.n_dirlinks net in
  let t =
    {
      net;
      period = update_period;
      mode = solver;
      full_frac;
      n_nodes = Ff_topology.Topology.num_nodes (Net.topology net);
      pair_head = Int_table.create ~capacity:256 ();
      cls = Array.make 64 nil_class;
      n_cls = 0;
      nil = nil_class;
      c_rate = Array.make 64 0.;
      c_cum_bits = Array.make 64 0.;
      c_cap = Array.make 64 0.;
      c_cap_base = Array.make 64 0.;
      c_t0 = Array.make 64 0.;
      c_cut = Array.make 64 0.;
      c_bound = Array.make 64 0.;
      f_cls = Array.make 64 0;
      f_att = Bytes.make 64 '\000';
      f_base = Array.make 64 0.;
      f_join = Array.make 64 0.;
      n_flows = 0;
      n_links;
      l_inc = Array.init n_links (fun _ -> Vec.create ());
      l_stale = Array.make n_links 0;
      l_has = Array.make n_links false;
      l_demand = Array.make n_links 0.;
      l_avail = Array.make n_links 0.;
      l_pkt = Array.make n_links 0.;
      l_load = Array.make n_links 0.;
      l_rem = Array.make n_links 0.;
      l_w = Array.make n_links 0.;
      l_contended = Array.make n_links false;
      l_pending = Array.make n_links false;
      l_dropped = Array.make n_links false;
      l_seen = Array.make n_links 0;
      l_fill = Array.make n_links 0;
      l_reload = Array.make n_links 0;
      links_used = Vec.create ();
      pending_cls = Vec.create ();
      pending_links = Vec.create ();
      drop_links = Vec.create ();
      touched = Vec.create ();
      comp = Vec.create ();
      comp_links = Vec.create ();
      reload = Vec.create ();
      sort_buf = Array.make 64 0;
      path_buf = Net.path_buffer net;
      live = (fun _ _ -> true);
      epoch = 0;
      fill_stamp = 0;
      attached = 0;
      armed = false;
      acc = { last_advance = Net.now net; delivered_bits = 0.; hop_bits = 0. };
      rate_events = 0;
      st_solves = 0;
      st_skipped = 0;
      st_full = 0;
      st_touched = 0;
      st_seen = 0;
      st_loss_cuts = 0;
      st_max_comp = 0;
    }
  in
  (* built once: incidence compaction calls it, a closure over [t] *)
  t.live <- (fun id gen -> t.cls.(id).c_gen = gen);
  t

(* handles are plain ints: reject one this population did not issue
   (or issued before a [clear]) before it indexes a column *)
let check t f = if f < 0 || f >= t.n_flows then invalid_arg "Fluid: unknown flow"

let is_attached t f =
  check t f;
  Bytes.unsafe_get t.f_att f <> '\000'

let class_id t f =
  check t f;
  t.f_cls.(f)

let flow_class t f = t.cls.(class_id t f)
let src t f = (flow_class t f).c_src
let dst t f = (flow_class t f).c_dst
let rate t f = if is_attached t f then t.c_rate.(class_id t f) else 0.
let cap t f = t.c_cap.(class_id t f)
let classes t = t.n_cls
let rate_events t = t.rate_events
let hop_bytes t = t.acc.hop_bits /. 8.

let path_crosses t f ~f:pred =
  let p = (flow_class t f).c_path in
  let i = ref 0 in
  while !i < Array.length p && not (pred p.(!i)) do
    incr i
  done;
  !i < Array.length p

let solver_stats t =
  {
    solves = t.st_solves;
    skipped = t.st_skipped;
    full_solves = t.st_full;
    touched_classes = t.st_touched;
    seen_classes = t.st_seen;
    loss_cuts = t.st_loss_cuts;
    max_component = t.st_max_comp;
  }

let touched_frac t =
  if t.st_seen = 0 then 0.
  else float_of_int t.st_touched /. float_of_int t.st_seen

let dump_rates t =
  let acc = ref [] in
  for id = t.n_cls - 1 downto 0 do
    acc := (id, t.c_rate.(id), t.c_cap.(id)) :: !acc
  done;
  !acc

let[@inline] cap_now t c now =
  match c.c_kind with
  | Constant { rate } -> rate
  | Adaptive { rtt; max_rate } ->
    let v = t.c_cap_base.(c.c_id) +. (mss_bits /. (rtt *. rtt) *. (now -. t.c_t0.(c.c_id))) in
    if v > max_rate then max_rate else v

(* ---- dirty-set plumbing ------------------------------------------------ *)

let mark_class_dirty t c =
  if not c.c_pending then begin
    c.c_pending <- true;
    Vec.push t.pending_cls c.c_id
  end

let mark_link_dirty t li =
  if li >= 0 && li < t.n_links && not t.l_pending.(li) then begin
    t.l_pending.(li) <- true;
    Vec.push t.pending_links li
  end

let note_drop t li =
  if li >= 0 && li < t.n_links && not t.l_dropped.(li) then begin
    t.l_dropped.(li) <- true;
    Vec.push t.drop_links li
  end

(* The hook only mutates solver-side flags — it schedules no engine events
   and touches no packet state, so installing it preserves the All_packet
   bit-identity anchor. *)
let enable_loss_coupling t = Net.set_drop_hook t.net (Some (fun li -> note_drop t li))

(* A link's incidence vector holds flat (class id, gen) pairs; the loops
   over it below skip a pair whose gen is stale. They are written out,
   not passed a closure, so a solve allocates nothing per class. *)

(* ---- routing / incidence maintenance ----------------------------------- *)

let link_path t nodes =
  let n = Array.length nodes in
  if n < 2 then [||]
  else begin
    let ls = Array.make (n - 1) (-1) in
    let ok = ref true in
    for i = 0 to n - 2 do
      let li = Net.link_index t.net ~from_:nodes.(i) ~to_:nodes.(i + 1) in
      if li < 0 then ok := false else ls.(i) <- li
    done;
    if !ok then ls else [||]
  end

let rec same_nodes buf p i n = i >= n || (buf.(i) = p.(i) && same_nodes buf p (i + 1) n)

(* Re-read the class's route. A route the tables still give keeps its
   [c_path]/[c_links] arrays; a moved one is rebuilt. Either way the class
   gets a new generation and fresh incidence entries, and its old links are
   marked dirty. *)
let resolve_class t c =
  (* retire the old incidence entries and make sure the old links' loads
     get re-pushed even if no live class references them afterwards *)
  let old = c.c_links in
  for i = 0 to Array.length old - 1 do
    let li = old.(i) in
    t.l_stale.(li) <- t.l_stale.(li) + 1;
    mark_link_dirty t li
  done;
  c.c_gen <- c.c_gen + 1;
  let buf = t.path_buf in
  let n = Net.path_into t.net ~src:c.c_src ~dst:c.c_dst buf in
  if not (n >= 2 && Array.length c.c_path = n && same_nodes buf c.c_path 0 n) then begin
    let nodes = if n >= 2 then Array.sub buf 0 n else [||] in
    let links = link_path t nodes in
    if Array.length links = 0 then begin
      c.c_path <- [||];
      c.c_links <- [||]
    end
    else begin
      c.c_path <- nodes;
      c.c_links <- links
    end
  end;
  let links = c.c_links in
  for i = 0 to Array.length links - 1 do
    let li = links.(i) in
    if not t.l_has.(li) then begin
      t.l_has.(li) <- true;
      Vec.push t.links_used li
    end;
    let inc = t.l_inc.(li) in
    Vec.push inc c.c_id;
    Vec.push inc c.c_gen;
    (* compact when over half the entries are stale *)
    if t.l_stale.(li) * 4 > Vec.length inc then begin
      Vec.filter_pairs_in_place t.live inc;
      t.l_stale.(li) <- 0
    end
  done

(* ---- analytic advance -------------------------------------------------- *)

let advance t =
  let now = Net.now t.net in
  let a = t.acc in
  let dt = now -. a.last_advance in
  if dt > 0. then begin
    for id = 0 to t.n_cls - 1 do
      let c = t.cls.(id) in
      let r = t.c_rate.(id) in
      if c.c_members > 0 && r > 0. then begin
        let per_flow = r *. dt in
        let agg = per_flow *. float_of_int c.c_members in
        t.c_cum_bits.(id) <- t.c_cum_bits.(id) +. per_flow;
        a.delivered_bits <- a.delivered_bits +. agg;
        a.hop_bits <- a.hop_bits +. (agg *. float_of_int (Array.length c.c_path - 1))
      end
    done;
    a.last_advance <- now
  end

let total_delivered_bytes t =
  advance t;
  t.acc.delivered_bits /. 8.

let total_rate t =
  let acc = ref 0. in
  for id = 0 to t.n_cls - 1 do
    acc := !acc +. (t.c_rate.(id) *. float_of_int t.cls.(id).c_members)
  done;
  !acc

(* delivered bytes as of the last [advance] *)
let[@inline] accrued_bytes t f =
  if is_attached t f then t.f_base.(f) +. ((t.c_cum_bits.(t.f_cls.(f)) -. t.f_join.(f)) /. 8.)
  else t.f_base.(f)

let delivered_bytes t f =
  if is_attached t f then advance t;
  accrued_bytes t f

let sum_delivered_bytes t ~flows ~first ~count ~extra ~extra_of =
  if first < 0 || count < 0 || first + count > min (Array.length flows) (Array.length extra_of)
  then invalid_arg "Fluid.sum_delivered_bytes: range outside the columns";
  advance t;
  let acc = ref 0. in
  for i = first to first + count - 1 do
    let f = flows.(i) and e = extra_of.(i) in
    let fluid_part = if f >= 0 then accrued_bytes t f else 0. in
    let extra_part = if e >= 0 then Array.get extra e else 0. in
    acc := !acc +. (fluid_part +. extra_part)
  done;
  !acc

(* ---- the incremental max-min solver ------------------------------------ *)
(*
   The max-min allocation decomposes exactly: a link whose member-weighted
   bound demand fits inside its available capacity can never saturate during
   progressive filling (every class's rate is at most its bound), so only
   "contended" links — demand > avail — act as constraints. Classes crossing
   no contended link take rate = bound outright; the rest split into
   connected components through shared contended links, and each component
   is water-filled independently with its own level.

   Both solver modes run exactly this per-component algorithm; Incremental
   merely skips components with no dirtied input. Because a component solve
   is a pure function of (its class set, bounds, link avails) evaluated in
   a canonical order (entry at the lowest class id, classes sorted by
   (bound, id)), splicing a re-solved component into an untouched global
   solution is bit-identical to re-solving everything.
*)

(* In-place heapsort of sort_buf[0..n-1] by (c_bound, c_id): allocation-free
   and deterministic, unlike sorting a freshly built array per component.
   The helpers are top-level so that no sort builds a closure. *)
let sort_less t a i j =
  let bi = t.c_bound.(a.(i)) and bj = t.c_bound.(a.(j)) in
  bi < bj || (bi = bj && a.(i) < a.(j))

let sort_swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let rec sift t a i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let m = if l + 1 < len && sort_less t a l (l + 1) then l + 1 else l in
    if sort_less t a i m then begin
      sort_swap a i m;
      sift t a m len
    end
  end

let sort_comp t n =
  let a = t.sort_buf in
  for i = (n / 2) - 1 downto 0 do
    sift t a i n
  done;
  for len = n - 1 downto 1 do
    sort_swap a 0 len;
    sift t a 0 len
  done

(* Freeze [c] at the rate already stored in its column: it leaves the
   filling, and its weight leaves the component's links. *)
let freeze t ~stamp ~epoch c =
  c.c_frozen <- stamp;
  c.c_done <- epoch;
  let w = float_of_int c.c_members in
  let links = c.c_links in
  for i = 0 to Array.length links - 1 do
    let li = links.(i) in
    if t.l_fill.(li) = stamp then t.l_w.(li) <- t.l_w.(li) -. w
  done

let fill_component t epoch entry =
  let stamp = t.fill_stamp + 1 in
  t.fill_stamp <- stamp;
  Vec.clear t.comp;
  Vec.clear t.comp_links;
  entry.c_comp <- stamp;
  Vec.push t.comp entry.c_id;
  let qi = ref 0 in
  while !qi < Vec.length t.comp do
    let c = t.cls.(Vec.get t.comp !qi) in
    incr qi;
    let links = c.c_links in
    for i = 0 to Array.length links - 1 do
      let li = links.(i) in
      if t.l_contended.(li) && t.l_fill.(li) <> stamp then begin
        t.l_fill.(li) <- stamp;
        Vec.push t.comp_links li;
        t.l_rem.(li) <- t.l_avail.(li);
        t.l_w.(li) <- 0.;
        let inc = t.l_inc.(li) in
        for p = 0 to (Vec.length inc / 2) - 1 do
          let c2 = t.cls.(Vec.get inc (2 * p)) in
          if c2.c_gen = Vec.get inc ((2 * p) + 1) && c2.c_active && c2.c_comp <> stamp
          then begin
            c2.c_comp <- stamp;
            Vec.push t.comp c2.c_id
          end
        done
      end
    done
  done;
  let n = Vec.length t.comp in
  if n > t.st_max_comp then t.st_max_comp <- n;
  if Array.length t.sort_buf < n then t.sort_buf <- Array.make (2 * n) 0;
  for k = 0 to n - 1 do
    t.sort_buf.(k) <- Vec.get t.comp k
  done;
  sort_comp t n;
  let nlc = Vec.length t.comp_links in
  for k = 0 to n - 1 do
    let c = t.cls.(t.sort_buf.(k)) in
    let w = float_of_int c.c_members in
    let links = c.c_links in
    for i = 0 to Array.length links - 1 do
      let li = links.(i) in
      if t.l_fill.(li) = stamp then t.l_w.(li) <- t.l_w.(li) +. w
    done
  done;
  (* progressive filling: the component's unfrozen classes share one rising
     water level; each round freezes the classes that hit their bound or
     cross a link that just saturated. *)
  let unfrozen = ref n in
  let level = ref 0. in
  let bi = ref 0 in
  while !unfrozen > 0 do
    while !bi < n && t.cls.(t.sort_buf.(!bi)).c_frozen = stamp do
      incr bi
    done;
    let b = if !bi < n then t.c_bound.(t.sort_buf.(!bi)) -. !level else infinity in
    let s = ref infinity in
    for k = 0 to nlc - 1 do
      let li = Vec.get t.comp_links k in
      if t.l_w.(li) > 0. then begin
        let v = t.l_rem.(li) /. t.l_w.(li) in
        if v < !s then s := v
      end
    done;
    let delta = Float.max 0. (Float.min b !s) in
    level := !level +. delta;
    for k = 0 to nlc - 1 do
      let li = Vec.get t.comp_links k in
      if t.l_w.(li) > 0. then t.l_rem.(li) <- t.l_rem.(li) -. (delta *. t.l_w.(li))
    done;
    let before = !unfrozen in
    if b <= !s then begin
      (* bound(s) reached: freeze every class whose bound is at the level *)
      let continue_ = ref true in
      while !continue_ && !bi < n do
        let c = t.cls.(t.sort_buf.(!bi)) in
        let bound = t.c_bound.(c.c_id) in
        if c.c_frozen = stamp then incr bi
        else if bound <= !level +. (1e-9 *. (Float.abs !level +. 1.)) then begin
          t.c_rate.(c.c_id) <- Float.max 0. bound;
          freeze t ~stamp ~epoch c;
          decr unfrozen;
          incr bi
        end
        else continue_ := false
      done
    end
    else
      (* a link saturated: its surviving classes are stuck at the level *)
      for k = 0 to nlc - 1 do
        let li = Vec.get t.comp_links k in
        if t.l_w.(li) > 0. && t.l_rem.(li) <= 1e-9 *. (t.l_avail.(li) +. 1.) then begin
          let inc = t.l_inc.(li) in
          for p = 0 to (Vec.length inc / 2) - 1 do
            let c2 = t.cls.(Vec.get inc (2 * p)) in
            if c2.c_gen = Vec.get inc ((2 * p) + 1) && c2.c_comp = stamp
               && c2.c_frozen <> stamp
            then begin
              t.c_rate.(c2.c_id) <- Float.max 0. !level;
              freeze t ~stamp ~epoch c2;
              decr unfrozen
            end
          done
        end
      done;
    if !unfrozen = before && !unfrozen > 0 then begin
      (* numerical failsafe: force progress at the bound pointer *)
      while !bi < n && t.cls.(t.sort_buf.(!bi)).c_frozen = stamp do
        incr bi
      done;
      if !bi < n then begin
        let c = t.cls.(t.sort_buf.(!bi)) in
        t.c_rate.(c.c_id) <- Float.max 0. !level;
        freeze t ~stamp ~epoch c;
        decr unfrozen;
        incr bi
      end
      else unfrozen := 0
    end
  done;
  (* AIMD back-off: bottlenecked adaptive classes halve their overshoot
     toward the share, at most once per RTT *)
  let now = Net.now t.net in
  for k = 0 to n - 1 do
    let c = t.cls.(t.sort_buf.(k)) in
    match c.c_kind with
    | Adaptive { rtt; _ } ->
      let id = c.c_id in
      let r = t.c_rate.(id) and cp = t.c_cap.(id) in
      if r < cp *. 0.999 && now -. t.c_cut.(id) >= rtt then begin
        t.c_cap_base.(id) <- Float.max (mss_bits /. rtt) (r +. (0.5 *. (cp -. r)));
        t.c_t0.(id) <- now;
        t.c_cut.(id) <- now
      end
    | Constant _ -> ()
  done

let touch t epoch c =
  if c.c_touch <> epoch then begin
    c.c_touch <- epoch;
    Vec.push t.touched c.c_id
  end

(* touch every live class crossing link [li] *)
let touch_link t epoch li =
  let inc = t.l_inc.(li) in
  for p = 0 to (Vec.length inc / 2) - 1 do
    let c = t.cls.(Vec.get inc (2 * p)) in
    if c.c_gen = Vec.get inc ((2 * p) + 1) then touch t epoch c
  done

let rec crosses_contended t links i =
  i < Array.length links && (t.l_contended.(links.(i)) || crosses_contended t links (i + 1))

let solve t =
  let now = Net.now t.net in
  t.rate_events <- t.rate_events + 1;
  let epoch = t.epoch + 1 in
  t.epoch <- epoch;
  (* 1. loss coupling: packet drops since the last solve halve the AIMD cap
     of adaptive classes crossing the dropping link (once per RTT) *)
  let n_drop = Vec.length t.drop_links in
  for k = 0 to n_drop - 1 do
    let li = Vec.get t.drop_links k in
    t.l_dropped.(li) <- false;
    let inc = t.l_inc.(li) in
    for p = 0 to (Vec.length inc / 2) - 1 do
      let c = t.cls.(Vec.get inc (2 * p)) in
      if c.c_gen = Vec.get inc ((2 * p) + 1) && c.c_members > 0 then
        match c.c_kind with
        | Adaptive { rtt; _ } when now -. t.c_cut.(c.c_id) >= rtt ->
          let cp = cap_now t c now in
          t.c_cap_base.(c.c_id) <- Float.max (mss_bits /. rtt) (0.5 *. cp);
          t.c_t0.(c.c_id) <- now;
          t.c_cut.(c.c_id) <- now;
          t.st_loss_cuts <- t.st_loss_cuts + 1;
          mark_class_dirty t c
        | _ -> ()
    done
  done;
  Vec.clear t.drop_links;
  (* 2. class scan: activity, closed-form bounds, volatile seeding. An
     adaptive class whose cap moved since the last solve (ramping — incl.
     the final step onto the max_rate ceiling) or that is overshooting its
     cap (cut pending) has a time-dependent bound, so it seeds the dirty
     set — in both modes, keeping cut times solve-schedule-free. [c_cap]
     holds the previous solve's evaluation, so the comparison is against
     the same reference whether or not the class was touched then. *)
  let active = ref 0 in
  for id = 0 to t.n_cls - 1 do
    let c = t.cls.(id) in
    let act = c.c_members > 0 && Array.length c.c_links > 0 in
    c.c_active <- act;
    if act then begin
      incr active;
      let cp = cap_now t c now in
      let moved = cp <> t.c_cap.(id) in
      t.c_cap.(id) <- cp;
      t.c_bound.(id) <- cp;
      match c.c_kind with
      | Adaptive _ ->
        if moved || t.c_rate.(id) < cp *. 0.999 then mark_class_dirty t c
      | Constant _ -> ()
    end
    else if t.c_rate.(id) <> 0. then mark_class_dirty t c
  done;
  (* 3. link scan: availability is re-read every solve; packet-rate drift
     dirties the link only when it can move the solution — the link was a
     potential bottleneck before, or the new availability dips under the
     standing demand. A link uncontended on both sides of the drift never
     constrains the filling (load <= demand <= avail), so its crossing
     classes keep their rates; without this gate, background packet noise
     on every link degenerates each pass into a full solve. Demand may be
     one solve stale here; a rise that makes the link contended leaves a
     pending class behind and is caught by the flip scan below. *)
  let nl = Vec.length t.links_used in
  for k = 0 to nl - 1 do
    let li = Vec.get t.links_used k in
    let pkt = Net.link_packet_bps_i t.net li in
    let avail = Float.max 0. (Net.link_capacity_i t.net li -. pkt) in
    t.l_avail.(li) <- avail;
    if pkt <> t.l_pkt.(li) then begin
      t.l_pkt.(li) <- pkt;
      if t.l_contended.(li) || t.l_demand.(li) > avail then mark_link_dirty t li
    end
  done;
  if Vec.length t.pending_cls = 0 && Vec.length t.pending_links = 0 then begin
    (* nothing moved since the last solve: the stored solution is already
       what a full re-solve would produce *)
    t.st_skipped <- t.st_skipped + 1;
    if Net.obs_active t.net then
      Net.obs_emit t.net
        (Event.Fluid_rates
           { flows = t.attached; classes = !active; total_bps = total_rate t })
  end
  else begin
    (* 4. demand pass: only bound/membership/path changes move demand, and
       all of those leave a pending class behind *)
    if Vec.length t.pending_cls > 0 then begin
      for k = 0 to nl - 1 do
        t.l_demand.(Vec.get t.links_used k) <- 0.
      done;
      for id = 0 to t.n_cls - 1 do
        let c = t.cls.(id) in
        if c.c_active then begin
          let d = t.c_bound.(id) *. float_of_int c.c_members in
          let links = c.c_links in
          for i = 0 to Array.length links - 1 do
            let li = links.(i) in
            t.l_demand.(li) <- t.l_demand.(li) +. d
          done
        end
      done
    end;
    (* 5. contended flips dirty the link: crossing classes may switch between
       bound-limited and bottleneck-limited *)
    for k = 0 to nl - 1 do
      let li = Vec.get t.links_used k in
      let con = t.l_demand.(li) > t.l_avail.(li) in
      if con <> t.l_contended.(li) then begin
        t.l_contended.(li) <- con;
        mark_link_dirty t li
      end
    done;
    (* 6. touched closure: dirty seeds expand through contended links to
       whole components (a component is re-solved entirely or not at all) *)
    Vec.clear t.touched;
    let np = Vec.length t.pending_cls in
    for k = 0 to np - 1 do
      let c = t.cls.(Vec.get t.pending_cls k) in
      c.c_pending <- false;
      touch t epoch c
    done;
    Vec.clear t.pending_cls;
    Vec.clear t.reload;
    let npl = Vec.length t.pending_links in
    for k = 0 to npl - 1 do
      let li = Vec.get t.pending_links k in
      t.l_pending.(li) <- false;
      if t.l_reload.(li) <> epoch then begin
        t.l_reload.(li) <- epoch;
        Vec.push t.reload li
      end;
      touch_link t epoch li
    done;
    Vec.clear t.pending_links;
    let qi = ref 0 in
    while !qi < Vec.length t.touched do
      let c = t.cls.(Vec.get t.touched !qi) in
      incr qi;
      (* expand through the class's links whether or not it is still
         active: a freshly-detached class is dirty precisely because the
         rate it gave back must be re-filled across its old links *)
      let links = c.c_links in
      for i = 0 to Array.length links - 1 do
        let li = links.(i) in
        if t.l_contended.(li) && t.l_seen.(li) <> epoch then begin
          t.l_seen.(li) <- epoch;
          touch_link t epoch li
        end
      done
    done;
    (* fallback: once the dirty region covers most of the population, the
       bookkeeping costs more than it saves *)
    let full =
      t.mode = Always_full
      || float_of_int (Vec.length t.touched)
         > t.full_frac *. float_of_int (max 1 !active)
    in
    if full then begin
      t.st_full <- t.st_full + 1;
      for id = 0 to t.n_cls - 1 do
        let c = t.cls.(id) in
        if (c.c_active || t.c_rate.(id) <> 0.) && c.c_touch <> epoch then begin
          c.c_touch <- epoch;
          Vec.push t.touched c.c_id
        end
      done
    end;
    t.st_solves <- t.st_solves + 1;
    t.st_touched <- t.st_touched + Vec.length t.touched;
    t.st_seen <- t.st_seen + !active;
    (* 7. rate assignment: bound-limited classes directly, bottlenecked ones
       by water-filling their component (entered at its lowest class id in
       either mode, so the float-op order is canonical) *)
    for id = 0 to t.n_cls - 1 do
      let c = t.cls.(id) in
      if c.c_touch = epoch then begin
        if c.c_done <> epoch then begin
          if not c.c_active then begin
            c.c_done <- epoch;
            t.c_rate.(id) <- 0.
          end
          else if not (crosses_contended t c.c_links 0) then begin
            c.c_done <- epoch;
            t.c_rate.(id) <- t.c_bound.(id)
          end
          else fill_component t epoch c
        end;
        let links = c.c_links in
        for i = 0 to Array.length links - 1 do
          let li = links.(i) in
          if t.l_reload.(li) <> epoch then begin
            t.l_reload.(li) <- epoch;
            Vec.push t.reload li
          end
        done
      end
    done;
    (* 8. push the affected links' fluid loads into the packet tier; the sum
       runs in incidence order, so a link recomputed from unchanged rates
       reproduces its previous value bit-for-bit *)
    let nr = Vec.length t.reload in
    for k = 0 to nr - 1 do
      let li = Vec.get t.reload k in
      let sum = ref 0. in
      let inc = t.l_inc.(li) in
      for p = 0 to (Vec.length inc / 2) - 1 do
        let c = t.cls.(Vec.get inc (2 * p)) in
        if c.c_gen = Vec.get inc ((2 * p) + 1) && c.c_members > 0 then
          sum := !sum +. (t.c_rate.(c.c_id) *. float_of_int c.c_members)
      done;
      if !sum <> t.l_load.(li) then begin
        t.l_load.(li) <- !sum;
        Net.set_fluid_load_i t.net li !sum
      end
    done;
    if Net.obs_active t.net then
      Net.obs_emit t.net
        (Event.Fluid_rates
           { flows = t.attached; classes = !active; total_bps = total_rate t })
  end

let recompute t =
  advance t;
  solve t

let rec tick t =
  t.armed <- false;
  recompute t;
  if t.attached > 0 then begin
    t.armed <- true;
    Engine.schedule (Net.engine t.net)
      ~at:(Net.now t.net +. t.period)
      (fun () -> tick t)
  end

(* Lazily arm the periodic solve: nothing is ever scheduled while the
   population is empty, so a run that never attaches a fluid flow executes
   the exact event sequence of a fluid-free run (bit-identity). *)
let arm t =
  if not t.armed then begin
    t.armed <- true;
    Engine.schedule (Net.engine t.net) ~at:(Net.now t.net) (fun () -> tick t)
  end

let refresh_paths t =
  advance t;
  for id = 0 to t.n_cls - 1 do
    let c = t.cls.(id) in
    resolve_class t c;
    mark_class_dirty t c
  done

let attach t f =
  if not (is_attached t f) then begin
    advance t;
    let c = flow_class t f in
    t.f_join.(f) <- t.c_cum_bits.(c.c_id);
    Bytes.set t.f_att f '\001';
    c.c_members <- c.c_members + 1;
    t.attached <- t.attached + 1;
    mark_class_dirty t c;
    arm t
  end

let detach t f =
  if is_attached t f then begin
    advance t;
    let c = flow_class t f in
    t.f_base.(f) <- t.f_base.(f) +. ((t.c_cum_bits.(c.c_id) -. t.f_join.(f)) /. 8.);
    Bytes.set t.f_att f '\000';
    c.c_members <- c.c_members - 1;
    t.attached <- t.attached - 1;
    mark_class_dirty t c;
    arm t
  end

(* Kinds match field by field under [Float.equal], the relation polymorphic
   [compare] gives (nan matches nan, 0. matches -0.). *)
let same_kind a b =
  a == b
  ||
  match (a, b) with
  | Constant { rate = r1 }, Constant { rate = r2 } -> Float.equal r1 r2
  | Adaptive { rtt = t1; max_rate = m1 }, Adaptive { rtt = t2; max_rate = m2 } ->
    Float.equal t1 t2 && Float.equal m1 m2
  | _ -> false

let pair_key t ~src ~dst =
  if src < 0 || dst < 0 || src >= t.n_nodes || dst >= t.n_nodes then
    invalid_arg "Fluid.add: unknown node";
  (src * t.n_nodes) + dst

let new_class t ~src ~dst kind ~next =
  let now = Net.now t.net in
  let id = t.n_cls in
  if id = Array.length t.cls then begin
    let b = Array.make (2 * id) t.nil in
    Array.blit t.cls 0 b 0 id;
    t.cls <- b;
    let grow_f a =
      let b = Array.make (2 * id) 0. in
      Array.blit a 0 b 0 id;
      b
    in
    t.c_rate <- grow_f t.c_rate;
    t.c_cum_bits <- grow_f t.c_cum_bits;
    t.c_cap <- grow_f t.c_cap;
    t.c_cap_base <- grow_f t.c_cap_base;
    t.c_t0 <- grow_f t.c_t0;
    t.c_cut <- grow_f t.c_cut;
    t.c_bound <- grow_f t.c_bound
  end;
  let c =
    {
      c_id = id;
      c_src = src;
      c_dst = dst;
      c_kind = kind;
      c_gen = 0;
      c_path = [||];
      c_links = [||];
      c_members = 0;
      c_pending = false;
      c_next_pair = next;
      c_active = false;
      c_touch = 0;
      c_done = 0;
      c_comp = 0;
      c_frozen = 0;
    }
  in
  let base =
    match kind with
    | Constant { rate } -> rate
    | Adaptive { rtt; max_rate } ->
      (* slow-start-ish initial window: 10 MSS per RTT *)
      Float.min max_rate (10. *. mss_bits /. rtt)
  in
  t.c_rate.(id) <- 0.;
  t.c_cum_bits.(id) <- 0.;
  t.c_cap.(id) <- base;
  t.c_cap_base.(id) <- base;
  t.c_bound.(id) <- 0.;
  t.c_t0.(id) <- now;
  t.c_cut.(id) <- now;
  t.cls.(id) <- c;
  t.n_cls <- id + 1;
  resolve_class t c;
  id

(* The class of (src, dst, kind), created on first use: ids are assigned
   in first-add order. *)
let class_for t ~src ~dst kind =
  let key = pair_key t ~src ~dst in
  let head = Int_table.get t.pair_head key ~default:(-1) in
  let id = ref head in
  while !id >= 0 && not (same_kind t.cls.(!id).c_kind kind) do
    id := t.cls.(!id).c_next_pair
  done;
  if !id < 0 then begin
    id := new_class t ~src ~dst kind ~next:head;
    Int_table.set t.pair_head key !id
  end;
  !id

let grow_flows t =
  let n = t.n_flows and cap = 2 * Array.length t.f_cls in
  let grow_f a =
    let b = Array.make cap 0. in
    Array.blit a 0 b 0 n;
    b
  in
  let c = Array.make cap 0 in
  Array.blit t.f_cls 0 c 0 n;
  t.f_cls <- c;
  t.f_att <- Bytes.extend t.f_att 0 (cap - Bytes.length t.f_att);
  t.f_base <- grow_f t.f_base;
  t.f_join <- grow_f t.f_join

let add t ~src ~dst kind =
  let cid = class_for t ~src ~dst kind in
  if t.n_flows = Array.length t.f_cls then grow_flows t;
  let f = t.n_flows in
  t.n_flows <- f + 1;
  t.f_cls.(f) <- cid;
  Bytes.set t.f_att f '\000';
  t.f_base.(f) <- 0.;
  t.f_join.(f) <- 0.;
  attach t f;
  f

let clear t =
  let nl = Vec.length t.links_used in
  for k = 0 to nl - 1 do
    let li = Vec.get t.links_used k in
    if t.l_load.(li) <> 0. then begin
      t.l_load.(li) <- 0.;
      Net.set_fluid_load_i t.net li 0.
    end;
    t.l_pkt.(li) <- 0.;
    t.l_avail.(li) <- 0.;
    t.l_demand.(li) <- 0.;
    t.l_contended.(li) <- false;
    t.l_pending.(li) <- false;
    t.l_dropped.(li) <- false;
    t.l_has.(li) <- false;
    t.l_stale.(li) <- 0;
    Vec.clear t.l_inc.(li)
  done;
  Vec.clear t.links_used;
  Vec.clear t.pending_cls;
  Vec.clear t.pending_links;
  Vec.clear t.drop_links;
  Vec.clear t.touched;
  Vec.clear t.comp;
  Vec.clear t.comp_links;
  Vec.clear t.reload;
  Int_table.clear t.pair_head;
  for id = 0 to t.n_cls - 1 do
    t.cls.(id) <- t.nil
  done;
  t.n_cls <- 0;
  t.n_flows <- 0;
  t.attached <- 0;
  t.armed <- false;
  t.acc.last_advance <- Net.now t.net;
  t.acc.delivered_bits <- 0.;
  t.acc.hop_bits <- 0.;
  t.rate_events <- 0;
  t.st_solves <- 0;
  t.st_skipped <- 0;
  t.st_full <- 0;
  t.st_touched <- 0;
  t.st_seen <- 0;
  t.st_loss_cuts <- 0;
  t.st_max_comp <- 0
