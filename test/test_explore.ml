(* The bounded model checker ([Explore]) over [Protocol.step], the switch
   transition the mode-protocol stage runs. *)

(* Each configuration pins its (states, transitions, terminals, converged):
   a count that moves means the switch transition changed behaviour. *)
let check_clean name (states, transitions, terminals, converged) (cfg : Explore.config) =
  let r = Explore.run cfg in
  Printf.printf
    "[explore] %s: %d states, %d transitions, %d terminals (%d converged), exhausted=%b\n%!"
    name r.states r.transitions r.terminals r.converged r.exhausted;
  Alcotest.(check bool) (name ^ ": exhausted (no silent truncation)") true r.exhausted;
  Alcotest.(check (list string)) (name ^ ": no violations") [] r.violations;
  Alcotest.(check (list int))
    (name ^ ": states, transitions, terminals, converged")
    [ states; transitions; terminals; converged ]
    [ r.states; r.transitions; r.terminals; r.converged ]

let test_explore_line3 () =
  check_clean "line3 raise+clear" (453, 1364, 2, 2) (Explore.default ~adj:(Explore.line 3))

let test_explore_triangle () =
  check_clean "triangle raise+clear" (265_507, 1_783_149, 6, 6)
    (Explore.default ~adj:(Explore.complete 3))

let test_explore_raise_only_loss2 () =
  check_clean "line3 raise-only loss=2" (46, 73, 3, 3)
    { (Explore.default ~adj:(Explore.line 3)) with include_clear = false; loss_budget = 2 }

let test_explore_region_boundary () =
  (* region_ttl 2 on a 4-switch line: the far switch must never hear the
     epoch, on any interleaving *)
  check_clean "line4 ttl=2 boundary" (24, 34, 2, 2)
    { (Explore.default ~adj:(Explore.line 4)) with region_ttl = 2; include_clear = false }

let test_explore_clear_at_boundary () =
  (* the clear, too, stops at the region boundary: the far switch stays
     untouched and the rest converge to the clear *)
  check_clean "line4 ttl=2 raise+clear" (378, 1101, 2, 2)
    { (Explore.default ~adj:(Explore.line 4)) with region_ttl = 2 }

let test_explore_raise_clear_loss2 () =
  check_clean "line3 raise+clear loss=2" (821, 2761, 3, 3)
    { (Explore.default ~adj:(Explore.line 3)) with loss_budget = 2 }

let test_explore_flooding_alone_fails () =
  (* with anti-entropy off the step is fire-and-forget flooding: one lost
     probe strands the tail of the line in the wrong mode, and the checker
     must find that interleaving *)
  let r =
    Explore.run
      { (Explore.default ~adj:(Explore.line 3)) with anti_entropy = false; include_clear = false }
  in
  Alcotest.(check (list int)) "states, transitions, terminals, converged" [ 5; 4; 3; 1 ]
    [ r.states; r.transitions; r.terminals; r.converged ];
  Alcotest.(check bool) "exhausted" true r.exhausted;
  Alcotest.(check bool) "finds the convergence hole" true (r.violations <> []);
  match r.counterexample with
  | None -> Alcotest.fail "no counterexample trace"
  | Some trace ->
    Alcotest.(check bool) "trace contains a loss" true
      (List.exists (fun s -> String.length s >= 4 && String.sub s 0 4 = "lose") trace)

let test_explore_deep () =
  (* @deep only: wider graphs, bigger loss budgets *)
  if Test_seed.deep then begin
    check_clean "line4 raise+clear" (3666, 15_639, 2, 2) (Explore.default ~adj:(Explore.line 4));
    check_clean "cycle4 raise-only loss=2" (2212, 7684, 9, 9)
      { (Explore.default ~adj:(Explore.cycle 4)) with include_clear = false; loss_budget = 2 };
    check_clean "cycle5 raise-only" (3109, 11_720, 10, 10)
      { (Explore.default ~adj:(Explore.cycle 5)) with include_clear = false }
  end

let () =
  Alcotest.run "ff_explore"
    [
      ( "model checker",
        [
          Alcotest.test_case "line3 raise+clear exhaustive" `Quick test_explore_line3;
          Alcotest.test_case "triangle raise+clear exhaustive" `Quick test_explore_triangle;
          Alcotest.test_case "line3 raise-only loss=2" `Quick test_explore_raise_only_loss2;
          Alcotest.test_case "region boundary holds" `Quick test_explore_region_boundary;
          Alcotest.test_case "clear stops at the region boundary" `Quick
            test_explore_clear_at_boundary;
          Alcotest.test_case "line3 raise+clear loss=2" `Quick test_explore_raise_clear_loss2;
          Alcotest.test_case "flooding alone fails" `Quick test_explore_flooding_alone_fails;
          Alcotest.test_case "deep sweeps" `Slow test_explore_deep;
        ] );
    ]
