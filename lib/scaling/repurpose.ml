module Net = Ff_netsim.Net
module Engine = Ff_netsim.Engine
module Topology = Ff_topology.Topology

type outcome = {
  switch : int;
  downtime : float;
  started_at : float;
  completed_at : float;
  state_moved : int;
}

(* The (neighbor, dst, next_hop) backup entries that would route around
   [around] — computed separately from installation so an aborted
   repurposing can roll back exactly what it installed. *)
let compute_backups net ~around =
  let topo = Net.topology net in
  let backups = ref [] in
  List.iter
    (fun neighbor ->
      (* destinations this neighbor currently reaches through [around] *)
      let dsts =
        List.filter_map
          (fun (dst, next) -> if next = around then Some dst else None)
          (Net.route_entries net ~sw:neighbor)
      in
      let pair_dsts =
        List.filter_map
          (fun ((_, dst), next) -> if next = around then Some dst else None)
          (Net.pair_route_entries net ~sw:neighbor)
      in
      List.iter
        (fun dst ->
          let banned = Hashtbl.create 1 in
          Hashtbl.replace banned around ();
          (* alternative path that avoids the repurposed switch *)
          let weight (_ : Topology.link) = 1. in
          ignore weight;
          let alt =
            (* shortest path with [around] banned: emulate by removing it from
               consideration — shortest path on the topology minus the node *)
            let rec bfs fringe seen =
              match fringe with
              | [] -> None
              | (node, path) :: rest ->
                if node = dst then Some (List.rev path)
                else if Hashtbl.mem seen node then bfs rest seen
                else begin
                  Hashtbl.replace seen node ();
                  let nexts =
                    Topology.neighbors topo node
                    |> List.filter_map (fun (peer, _) ->
                           if peer = around || Hashtbl.mem seen peer then None
                           else if
                             peer <> dst && (Topology.node topo peer).Topology.kind = Topology.Host
                           then None
                           else Some (peer, peer :: path))
                  in
                  bfs (rest @ nexts) seen
                end
            in
            bfs [ (neighbor, [ neighbor ]) ] (Hashtbl.create 16)
          in
          match alt with
          | Some (_ :: next :: _) -> backups := (neighbor, dst, next) :: !backups
          | _ -> ())
        (List.sort_uniq compare (dsts @ pair_dsts)))
    (Net.neighbors_of net around);
  List.rev !backups

let install_backup_routes net ~around =
  let backups = compute_backups net ~around in
  List.iter
    (fun (neighbor, dst, next) -> Net.set_backup_route net ~sw:neighbor ~dst ~next_hop:next)
    backups;
  List.length backups

let repurpose net ~sw ~downtime ?state_to ?snapshot ?restore ?(on_abort = fun (_ : string) -> ())
    ~install ~on_done () =
  let engine = Net.engine net in
  let started_at = Net.now net in
  let backups = compute_backups net ~around:sw in
  List.iter
    (fun (neighbor, dst, next) -> Net.set_backup_route net ~sw:neighbor ~dst ~next_hop:next)
    backups;
  (* the outbound transfer failed: the switch never went down and was
     never reconfigured, so restoring the old configuration is exactly
     removing the backup routes staged for its absence *)
  let abort reason =
    List.iter
      (fun (neighbor, dst, _) -> Net.set_backup_route net ~sw:neighbor ~dst ~next_hop:(-1))
      backups;
    Net.obs_emit net
      (Ff_obs.Event.Repair { subsystem = "repurpose"; node = sw; info = "abort:" ^ reason });
    on_abort reason
  in
  let state_moved = ref 0 in
  let finish parked_at =
    let complete () =
      install ();
      Net.set_switch_up net ~sw true;
      on_done
        { switch = sw; downtime; started_at; completed_at = Net.now net;
          state_moved = !state_moved };
      (* migrate the parked state back in-band now that the switch is up *)
      match (parked_at, restore) with
      | Some (target, entries), Some f ->
        ignore
          (Transfer.send net ~src_sw:target ~dst_sw:sw ~entries
             ~on_complete:(fun back -> f back)
             ~on_fail:(fun reason ->
               (* reconfiguration already happened ([on_done] fired); the
                  parked state is stranded at [target] — surface it *)
               Net.obs_emit net
                 (Ff_obs.Event.Repair
                    { subsystem = "repurpose"; node = sw;
                      info = "restore-failed:" ^ reason });
               on_abort ("restore-transfer-failed:" ^ reason))
             ())
      | _ -> ()
    in
    Net.set_switch_up net ~sw false;
    Engine.after engine ~delay:downtime complete
  in
  match (state_to, snapshot) with
  | Some target, Some snap ->
    let entries = snap () in
    state_moved := List.length entries;
    if entries = [] then finish None
    else
      ignore
        (Transfer.send net ~src_sw:sw ~dst_sw:target ~entries
           ~on_complete:(fun received ->
             (* state parked at [target]; ship it back after reconfiguration *)
             finish (Some (target, received)))
           ~on_fail:abort ())
  | _ -> finish None
