(* Quickstart: the FastFlex pipeline end to end in about sixty lines.

   1. compile the booster catalogue into a merged dataflow graph,
   2. pack it onto Tofino-class switches,
   3. run a short rolling-LFA scenario with the multimode data plane on,
   4. print what happened.

   Run with: dune exec examples/quickstart.exe *)

let () =
  print_endline "== 1. Compile boosters (paper Fig. 1 a-b) ==";
  let compiled = Fastflex.Compile.boosters () in
  Printf.printf "boosters: %s\n" (String.concat ", " Ff_boosters.Specs.booster_names);
  Printf.printf "merged PPMs: %d (sharing saved %.0f%% of pipeline stages)\n"
    (Ff_dataflow.Graph.num_vertices compiled.Fastflex.Compile.merged)
    (100. *. compiled.Fastflex.Compile.savings);
  List.iter
    (fun (kept, absorbed) -> Printf.printf "  shared: %s absorbs %s\n" kept absorbed)
    compiled.Fastflex.Compile.sharing;

  print_endline "\n== 2. Pack onto switches (paper Fig. 1 c) ==";
  (match Fastflex.Compile.pack_onto compiled ~switches:[ 0; 1; 2; 3 ] with
  | Ok bins ->
    List.iter
      (fun b ->
        if b.Ff_placement.Pack.items <> [] then
          Printf.printf "  switch %d: %d PPMs, %s used\n" b.Ff_placement.Pack.sw
            (List.length b.Ff_placement.Pack.items)
            (Format.asprintf "%a" Ff_dataplane.Resource.pp b.Ff_placement.Pack.used))
      bins
  | Error e -> Printf.printf "  packing failed: %s\n" e);

  print_endline "\n== 3. Rolling LFA vs. the multimode data plane (paper Fig. 2-3) ==";
  let attack =
    { Fastflex.Scenario.default_attack with roll_schedule = [ 30. ]; start = 10. }
  in
  let r =
    Fastflex.Scenario.run_lfa
      ~defense:(Fastflex.Scenario.Fastflex Fastflex.Orchestrator.default_config)
      ~attack:(Some attack) ~duration:50. ()
  in
  Fastflex.Scenario.pp_summary Format.std_formatter r;

  print_endline "\n== 4. Mode changes observed in the data plane ==";
  let shown = ref 0 in
  List.iter
    (fun (t, sw, attack, up) ->
      if !shown < 12 then begin
        incr shown;
        Printf.printf "  t=%6.2fs switch %d %s %s\n" t sw
          (if up then "enters" else "leaves")
          (Ff_dataplane.Packet.attack_kind_to_string attack)
      end)
    r.Fastflex.Scenario.mode_log;
  Printf.printf "  (%d mode transitions total)\n" (List.length r.Fastflex.Scenario.mode_log);

  print_endline "\nNormalized goodput (paper Fig. 3 y-axis):";
  Ff_util.Series.pp_ascii ~height:10 Format.std_formatter [ r.Fastflex.Scenario.normalized ]
