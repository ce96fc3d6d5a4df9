(* The benchmark's own checks: its order statistics and verdicts, its JSON
   round trip, its declarations against BENCHMARK.json, the rebuilt
   SYN-flood scenario against the original, and a smoke run of every
   workload at the smallest size. *)

open Ff_benchmark

let close = Alcotest.float 1e-12

(* Expected values are Python's statistics.median / quantiles(n=4). *)
let test_order_statistics () =
  Alcotest.(check close) "median, odd R" 3. (Stats.median [ 5.; 1.; 4.; 2.; 3. ]);
  Alcotest.(check close) "median, even R" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (pair close close)) "quartiles, odd R" (1.5, 4.5)
    (Stats.quartiles [ 3.; 1.; 5.; 2.; 4. ]);
  Alcotest.(check (pair close close)) "quartiles, even R" (1.25, 3.75)
    (Stats.quartiles [ 4.; 2.; 1.; 3. ]);
  Alcotest.(check (pair close close)) "quartiles, R = 2" (0.75, 2.25) (Stats.quartiles [ 2.; 1. ]);
  Alcotest.(check (pair close close)) "quartiles, R = 1" (7., 7.) (Stats.quartiles [ 7. ])

let verdict = Alcotest.testable (Fmt.of_to_string Stats.verdict_to_string) ( = )

let test_verdicts () =
  let check name expected ~better ~bound a b =
    Alcotest.check verdict name expected (Stats.compare_runs ~better ~bound a b)
  in
  let steady = [ 1.0; 1.01; 0.99; 1.0; 1.005 ] in
  check "same runs" Stats.Unchanged ~better:Stats.Lower ~bound:(Stats.Rel 0.1) steady steady;
  check "slower beyond the bound" Stats.Worse ~better:Stats.Lower ~bound:(Stats.Rel 0.1) steady
    (List.map (fun x -> x *. 1.2) steady);
  check "slower within the bound" Stats.Unchanged ~better:Stats.Lower ~bound:(Stats.Rel 0.1)
    steady (List.map (fun x -> x *. 1.05) steady);
  check "faster beyond the base spread" Stats.Better ~better:Stats.Lower ~bound:(Stats.Rel 0.1)
    steady (List.map (fun x -> x *. 0.9) steady);
  check "higher is better" Stats.Worse ~better:Stats.Higher ~bound:(Stats.Rel 0.1) steady
    (List.map (fun x -> x *. 0.8) steady);
  let noisy = [ 1.0; 1.5; 0.7; 1.2; 0.8 ] in
  check "spread wider than the bound" Stats.Unresolved ~better:Stats.Lower
    ~bound:(Stats.Rel 0.1) noisy (List.map (fun x -> x *. 1.02) noisy);
  check "wide spread, but every run slower" Stats.Worse ~better:Stats.Lower
    ~bound:(Stats.Rel 0.1) noisy (List.map (fun x -> x +. 2.) noisy);
  check "one run a side, gain inside the bound" Stats.Unchanged ~better:Stats.Lower
    ~bound:(Stats.Rel 0.15) [ 12.2 ] [ 11.7 ];
  check "one run a side, gain beyond the bound" Stats.Better ~better:Stats.Lower
    ~bound:(Stats.Rel 0.15) [ 12.2 ] [ 10. ];
  check "absolute bound, inside" Stats.Unchanged ~better:Stats.Higher ~bound:(Stats.Abs 0.005)
    [ 0.93 ] [ 0.926 ];
  check "absolute bound, outside" Stats.Worse ~better:Stats.Higher ~bound:(Stats.Abs 0.005)
    [ 0.93 ] [ 0.92 ];
  check "floor on a relative bound" Stats.Unchanged ~better:Stats.Lower
    ~bound:(Stats.Rel_floor (0.1, 0.005)) [ 0.001 ] [ 0.004 ]

let test_json_round_trip () =
  let v =
    Json.Obj
      [ ("n", Json.Num 0.1); ("tiny", Json.Num 1e-300); ("neg", Json.Num (-123456789.123));
        ("int", Json.Num 3231722.); ("s", Json.Str "a \"quoted\"\\ line\n\ttab");
        ("l", Json.Arr [ Json.Null; Json.Bool true; Json.Bool false; Json.Arr []; Json.Obj [] ]) ]
  in
  Alcotest.(check bool) "parse (print v) = v" true (Json.of_string (Json.to_string v) = v);
  Alcotest.(check bool) "malformed input is refused" true
    (match Json.of_string "{\"a\": [1, }" with _ -> false | exception Json.Parse_error _ -> true)

(* BENCHMARK.json and Spec declare the same workloads and metrics. *)
let test_declarations () =
  let j = Json.read_file "../../BENCHMARK.json" in
  let field k o = Option.get (Json.member k o) in
  let names k = List.map (fun o -> Json.to_str (field "name" o)) (Json.to_list (field k j)) in
  Alcotest.(check (list string)) "workloads" Spec.workload_names (names "workloads");
  let e2e = Json.to_list (field "end_to_end" j) in
  Alcotest.(check (list string)) "end-to-end metrics"
    (List.map (fun (m : Spec.metric) -> m.Spec.name) Spec.gated_end_to_end)
    (names "end_to_end");
  List.iter2
    (fun (m : Spec.metric) o ->
      Alcotest.(check string) (m.Spec.name ^ " unit") m.Spec.unit_ (Json.to_str (field "unit" o));
      Alcotest.(check string) (m.Spec.name ^ " direction")
        (match m.Spec.better with Stats.Lower -> "lower" | Stats.Higher -> "higher")
        (Json.to_str (field "better" o));
      let rel =
        match m.Spec.bound with Stats.Rel r | Stats.Rel_floor (r, _) -> r | Stats.Abs _ -> nan
      in
      Alcotest.(check close) (m.Spec.name ^ " bound") rel (Json.to_num (field "bound" o)))
    Spec.gated_end_to_end e2e;
  Alcotest.(check (list (pair string string))) "per-layer metrics" Spec.per_layer
    (List.map
       (fun o -> (Json.to_str (field "name" o), Json.to_str (field "unit" o)))
       (Json.to_list (field "per_layer" j)))

(* The synflood workload rebuilds Scenario.run_synflood ~defended:true
   from public calls; it must be the same simulation. *)
let test_synflood_rebuild () =
  let original = Fastflex.Scenario.run_synflood ~defended:true ~duration:25. () in
  let rebuilt = Workloads.synflood_defended ~duration:25. ~attack_rate_pps:400. () in
  Alcotest.(check bool) "every result field, bit for bit" true
    (rebuilt.Workloads.sf_result = original)

(* Every workload at the smallest size, traced: the output checks pass,
   and every declared metric is printed. *)
let test_smoke workload () =
  let spans = Printf.sprintf "spans-%s.jsonl" workload in
  let r =
    Measure.run
      { Measure.workload; seed = 2; size = Workloads.Small; count = Measure.Reps 1; trace = true;
        spans = Some spans }
  in
  Alcotest.(check (list string)) "no failed check" [] r.Measure.failures;
  Alcotest.(check int) "warm-up, one run, one traced run" 3 r.Measure.attempted;
  let summary_metrics r =
    let line = Measure.summary_line r in
    let j = Json.of_string line in
    Alcotest.(check bool) "correct" true (Json.member "correct" j = Some (Json.Bool true));
    match Json.member "metrics" j with
    | Some (Json.Obj kvs) -> List.map fst kvs
    | _ -> Alcotest.fail "no metrics object"
  in
  Alcotest.(check (list string)) "every per-layer metric"
    (List.map fst Spec.per_layer) (summary_metrics r);
  Alcotest.(check (list string)) "every gated end-to-end metric"
    (List.map (fun (m : Spec.metric) -> m.Spec.name) Spec.gated_end_to_end)
    (summary_metrics { r with Measure.per_layer = [] });
  let lines =
    In_channel.with_open_text spans In_channel.input_all
    |> String.split_on_char '\n' |> List.filter (( <> ) "")
  in
  let span_names =
    List.map (fun l -> Json.to_str (Option.get (Json.member "name" (Json.of_string l)))) lines
  in
  Sys.remove spans;
  List.iter
    (fun name -> Alcotest.(check bool) ("span " ^ name) true (List.mem name span_names))
    [ "run"; "setup"; "loop"; "components" ]

let () =
  Alcotest.run "benchmark"
    [
      ( "stats",
        [ Alcotest.test_case "median and quartiles" `Quick test_order_statistics;
          Alcotest.test_case "verdicts" `Quick test_verdicts ] );
      ("json", [ Alcotest.test_case "round trip" `Quick test_json_round_trip ]);
      ("declarations", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_declarations ]);
      ( "synflood",
        [ Alcotest.test_case "rebuild = Scenario.run_synflood" `Quick test_synflood_rebuild ] );
      ( "smoke",
        List.map (fun w -> Alcotest.test_case w `Quick (test_smoke w)) Spec.workload_names );
    ]
