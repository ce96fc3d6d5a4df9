module Topology = Ff_topology.Topology

(* Every structure here trades speed for auditability: the optimized
   stack answers in O(1) array probes and heap pops, the oracle answers
   by scanning small lists. Differential tests compare the two. *)

module Queue = struct
  type 'a t = { items : (float * int * 'a) list; next_seq : int }

  let empty = { items = []; next_seq = 0 }

  (* Sorted insert on the full (time, seq) key. Sequence numbers are
     handed out in push order, so equal-time events keep FIFO order —
     the same guarantee the engine's two lanes provide through their
     shared counter. *)
  let push t ~at x =
    let seq = t.next_seq in
    let rec ins = function
      | [] -> [ (at, seq, x) ]
      | (t0, s0, _) as hd :: tl ->
        if t0 < at || (t0 = at && s0 < seq) then hd :: ins tl
        else (at, seq, x) :: hd :: tl
    in
    { items = ins t.items; next_seq = seq + 1 }

  let pop t = match t.items with [] -> None | hd :: tl -> Some (hd, { t with items = tl })
  let is_empty t = t.items = []
  let length t = List.length t.items
end

module Routing = struct
  (* Bellman-Ford by repeated relaxation over the raw edge list, with
     association lists for distances and predecessors. Hosts relax
     outgoing edges only when they are the source, so they never appear
     mid-path. *)

  let is_switch topo id = (Topology.node topo id).Topology.kind = Topology.Switch

  let relax_all ?(live_link = fun _ _ -> true) ?(live_node = fun _ -> true)
      ?(links_of = Topology.links) topo ~src =
    if not (live_node src) then []
    else begin
      let dist = ref [ (src, (0, src)) ] in
      let lookup n = List.assoc_opt n !dist in
      let edges =
        List.concat_map
          (fun (l : Topology.link) -> [ (l.Topology.a, l.Topology.b); (l.Topology.b, l.Topology.a) ])
          (links_of topo)
      in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (u, v) ->
            if live_node u && live_node v && live_link u v && (u = src || is_switch topo u)
            then
              match lookup u with
              | None -> ()
              | Some (du, _) -> (
                let better =
                  match lookup v with None -> true | Some (dv, _) -> du + 1 < dv
                in
                if better then begin
                  dist := (v, (du + 1, u)) :: List.remove_assoc v !dist;
                  changed := true
                end))
          edges
      done;
      !dist
    end

  let shortest_path ?live_link ?live_node topo ~src ~dst =
    let live_node = match live_node with Some f -> f | None -> fun _ -> true in
    if not (live_node dst) then None
    else begin
      let dist = relax_all ?live_link ~live_node topo ~src in
      match List.assoc_opt dst dist with
      | None -> None
      | Some _ ->
        let rec walk acc n =
          if n = src then n :: acc
          else
            match List.assoc_opt n dist with
            | Some (_, pred) -> walk (n :: acc) pred
            | None -> acc (* unreachable: assoc above guarantees a chain *)
        in
        Some (walk [] dst)
    end

  let switch_links topo =
    List.filter
      (fun (l : Topology.link) -> is_switch topo l.Topology.a && is_switch topo l.Topology.b)
      (Topology.links topo)

  let switch_distance topo ~from_ ~to_ =
    match
      List.assoc_opt to_ (relax_all ~links_of:switch_links topo ~src:from_)
    with
    | Some (d, _) -> Some d
    | None -> None

  let region topo ~origin ~ttl =
    List.filter_map
      (fun (n : Topology.node) ->
        match switch_distance topo ~from_:origin ~to_:n.Topology.id with
        | Some d when d <= ttl -> Some n.Topology.id
        | _ -> None)
      (Topology.switches topo)
end

module Cuckoo_ref = struct
  (* The specification of [Ff_dataplane.Cuckoo] is just a multiset of
     keys: no buckets, no fingerprints, no eviction — membership is a
     table lookup. The differential suite holds the filter to this
     semantics wherever it is exact (never a false negative, deletion
     removes one copy) and to its analytic bound where it is
     probabilistic (false positives). *)

  type t = { counts : (int, int) Hashtbl.t; mutable size : int }

  let create () = { counts = Hashtbl.create 64; size = 0 }

  let count t key = match Hashtbl.find_opt t.counts key with Some n -> n | None -> 0

  let insert t key =
    Hashtbl.replace t.counts key (count t key + 1);
    t.size <- t.size + 1

  let member t key = count t key > 0

  let delete t key =
    match count t key with
    | 0 -> false
    | 1 ->
      Hashtbl.remove t.counts key;
      t.size <- t.size - 1;
      true
    | n ->
      Hashtbl.replace t.counts key (n - 1);
      t.size <- t.size - 1;
      true

  let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.counts []
end

module Modes = struct
  type 'attack cmd = { c_origin : int; c_attack : 'attack; c_activate : bool }

  type 'attack verdict = {
    v_attack : 'attack;
    v_epochs : int;
    v_states : (int * (int * bool)) list;
  }

  (* One attack's fold: walk the commands, rewriting every covered switch
     to the freshly issued (epoch, activate). The only conditional is the
     protocol's idempotence rule: raising at an already-active origin
     issues nothing. *)
  let fold_attack ~switches ~dist ~region_ttl cmds =
    let states = List.map (fun sw -> (sw, (0, false))) switches in
    let covered origin sw =
      match dist ~origin ~sw with Some d -> d <= region_ttl | None -> false
    in
    List.fold_left
      (fun (epoch, states) cmd ->
        let origin_active =
          match List.assoc_opt cmd.c_origin states with
          | Some (_, active) -> active
          | None -> false
        in
        if cmd.c_activate && origin_active then (epoch, states)
        else begin
          let epoch = epoch + 1 in
          let states =
            List.map
              (fun (sw, st) ->
                if covered cmd.c_origin sw then (sw, (epoch, cmd.c_activate)) else (sw, st))
              states
          in
          (epoch, states)
        end)
      (0, states) cmds

  let predict ~switches ~dist ~region_ttl cmds =
    let attacks =
      List.fold_left
        (fun acc c -> if List.mem c.c_attack acc then acc else c.c_attack :: acc)
        [] cmds
      |> List.rev
    in
    List.map
      (fun attack ->
        let mine = List.filter (fun c -> c.c_attack = attack) cmds in
        let epochs, states = fold_attack ~switches ~dist ~region_ttl mine in
        { v_attack = attack; v_epochs = epochs; v_states = states })
      attacks
end
