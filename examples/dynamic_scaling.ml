(* Dynamic scaling at runtime (paper section 3.4, Figure 1 d):
   repurposing a switch while traffic flows, with neighbor-notified fast
   reroute around the downtime and FEC-protected in-band state transfer.

   Run with: dune exec examples/dynamic_scaling.exe *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Net = Ff_netsim.Net
module Flow = Ff_netsim.Flow
module Scaling = Ff_scaling

let () =
  let lm = T.Fig2.build () in
  let topo = lm.T.Fig2.topo in
  let engine = Engine.create () in
  (* hand-built: switch repurposing is not a spec element yet *)
  let net = Net.create engine topo in
  Net.install_shortest_paths net;

  let name i = (T.node topo i).T.name in
  let mid_of (l : T.link) = if l.T.a = lm.T.Fig2.agg then l.T.b else l.T.a in
  let m1 = mid_of (List.hd lm.T.Fig2.critical) in
  let m2 = mid_of (List.nth lm.T.Fig2.critical 1) in

  (* the switch being repurposed carries defense state: a suspicious-flow
     register we must not lose *)
  let reg = Ff_dataplane.Register.Array_reg.create ~name:"suspicious" ~slots:64 () in
  for flow = 0 to 20 do
    Ff_dataplane.Register.Array_reg.set reg flow 1.
  done;
  Printf.printf "switch %s holds %d state entries\n" (name m1)
    (List.length (Ff_dataplane.Register.Array_reg.dump reg));

  (* steady traffic crossing m1 *)
  let src = List.hd lm.T.Fig2.normal_sources in
  Net.set_route net ~sw:lm.T.Fig2.agg ~dst:lm.T.Fig2.victim ~next_hop:m1;
  Net.set_route net ~sw:m1 ~dst:lm.T.Fig2.victim ~next_hop:lm.T.Fig2.victim_agg;
  let flow = Flow.Cbr.start net ~src ~dst:lm.T.Fig2.victim ~rate_pps:200. () in

  (* make the state-transfer path lossy: FEC earns its keep *)
  let _loss =
    Scaling.Loss.install net ~sw:lm.T.Fig2.agg ~prob:0.1
      ~classes:Scaling.Loss.State_chunks_only ()
  in

  (* at t=3: repurpose m1 (Tofino-style 2 s downtime), shipping its state to
     m2 and migrating it back afterwards *)
  Engine.schedule engine ~at:3. (fun () ->
      Printf.printf "t=%.2fs repurposing %s (2 s downtime, state to %s)\n" (Net.now net)
        (name m1) (name m2);
      Scaling.Repurpose.repurpose net ~sw:m1 ~downtime:2.0 ~state_to:m2
        ~snapshot:(fun () ->
          let s = Ff_dataplane.Register.Array_reg.dump reg in
          Ff_dataplane.Register.Array_reg.reset reg;
          s)
        ~restore:(fun entries ->
          Ff_dataplane.Register.Array_reg.load reg entries;
          Printf.printf "t=%.2fs state migrated back: %d entries live again on %s\n"
            (Net.now net) (List.length entries) (name m1))
        ~install:(fun () ->
          Printf.printf "t=%.2fs new program installed on %s\n" (Net.now net) (name m1))
        ~on_done:(fun o ->
          Printf.printf "t=%.2fs %s back up (%d entries were shipped out)\n"
            o.Scaling.Repurpose.completed_at (name m1) o.Scaling.Repurpose.state_moved)
        ());

  (* sample delivery while m1 is down *)
  let last = ref 0. in
  Engine.every engine ~period:1. (fun () ->
      let d = Flow.Cbr.delivered_bytes flow in
      Printf.printf "t=%5.2fs delivered %+6.0f kB this second %s\n" (Net.now net)
        ((d -. !last) /. 1000.)
        (if not (Net.switch net m1).Net.up then "   [m1 down, fast reroute active]" else "");
      last := d);

  Engine.run engine ~until:10.;

  print_newline ();
  Printf.printf "delivered total: %.0f kB of %.0f kB sent (%.1f%%)\n"
    (Flow.Cbr.delivered_bytes flow /. 1000.)
    (float_of_int (Flow.Cbr.sent_packets flow))
    (100. *. Flow.Cbr.delivered_bytes flow
     /. float_of_int (Flow.Cbr.sent_packets flow * 1000));
