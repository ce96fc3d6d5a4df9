(* Tests for Ff_dataflow: rename-invariant equivalence and graph merging. *)

module Ppm = Ff_dataplane.Ppm
module Resource = Ff_dataplane.Resource
module Equiv = Ff_dataflow.Equiv
module Graph = Ff_dataflow.Graph
module Specs = Ff_boosters.Specs

let spec ?(role = Ppm.Detection) ?(booster = "b") ?(resources = Resource.zero) name body =
  Ppm.make_spec ~name ~booster ~role ~resources body

let counter_body ~reg ~meta =
  [
    Ppm.Set_meta (meta, Ppm.Reg_read (reg, Ppm.Hash [ "src"; "dst" ]));
    Ppm.Reg_write (reg, Ppm.Hash [ "src"; "dst" ],
       Ppm.Binop (Ppm.Add, Ppm.Meta meta, Ppm.Field "size"));
  ]

(* ---------------- Equivalence ---------------- *)

let test_equiv_reflexive () =
  let a = spec "a" (counter_body ~reg:"r" ~meta:"m") in
  Alcotest.(check bool) "reflexive" true (Equiv.equivalent a a)

let test_equiv_rename_invariant () =
  let a = spec "a" (counter_body ~reg:"flow_bytes" ~meta:"tmp") in
  let b = spec "b" (counter_body ~reg:"tenant_counter" ~meta:"scratch") in
  Alcotest.(check bool) "renamed registers and metas equivalent" true (Equiv.equivalent a b);
  Alcotest.(check string) "canonical forms equal" (Equiv.canonical a) (Equiv.canonical b);
  Alcotest.(check int) "signatures equal" (Equiv.signature a) (Equiv.signature b)

let test_equiv_hash_field_order () =
  let a = spec "a" [ Ppm.Set_meta ("m", Ppm.Hash [ "src"; "dst"; "proto" ]) ] in
  let b = spec "b" [ Ppm.Set_meta ("m", Ppm.Hash [ "proto"; "src"; "dst" ]) ] in
  Alcotest.(check bool) "hash field order irrelevant" true (Equiv.equivalent a b)

let test_equiv_commutative_operands () =
  let a = spec "a" [ Ppm.Set_meta ("m", Ppm.Binop (Ppm.Add, Ppm.Field "x", Ppm.Field "y")) ] in
  let b = spec "b" [ Ppm.Set_meta ("m", Ppm.Binop (Ppm.Add, Ppm.Field "y", Ppm.Field "x")) ] in
  Alcotest.(check bool) "a+b = b+a" true (Equiv.equivalent a b);
  let c = spec "c" [ Ppm.Set_meta ("m", Ppm.Binop (Ppm.Sub, Ppm.Field "x", Ppm.Field "y")) ] in
  let d = spec "d" [ Ppm.Set_meta ("m", Ppm.Binop (Ppm.Sub, Ppm.Field "y", Ppm.Field "x")) ] in
  Alcotest.(check bool) "a-b <> b-a" false (Equiv.equivalent c d)

let test_equiv_comparison_normalisation () =
  let a = spec "a" [ Ppm.Drop_when (Ppm.Cmp (Ppm.Gt, Ppm.Field "x", Ppm.Field "y")) ] in
  let b = spec "b" [ Ppm.Drop_when (Ppm.Cmp (Ppm.Lt, Ppm.Field "y", Ppm.Field "x")) ] in
  Alcotest.(check bool) "x>y = y<x" true (Equiv.equivalent a b)

let test_equiv_role_matters () =
  let a = spec ~role:Ppm.Detection "a" (counter_body ~reg:"r" ~meta:"m") in
  let b = spec ~role:Ppm.Mitigation "b" (counter_body ~reg:"r" ~meta:"m") in
  Alcotest.(check bool) "different roles not shareable" false (Equiv.equivalent a b)

let test_equiv_structure_matters () =
  let a = spec "a" [ Ppm.Set_meta ("m", Ppm.Const 1.) ] in
  let b = spec "b" [ Ppm.Set_meta ("m", Ppm.Const 2.) ] in
  Alcotest.(check bool) "different constants differ" false (Equiv.equivalent a b)

let test_equiv_distinct_vars_not_conflated () =
  (* writing two different registers is not the same as writing one twice *)
  let a = spec "a" [ Ppm.Reg_write ("r1", Ppm.Const 0., Ppm.Const 1.);
                     Ppm.Reg_write ("r1", Ppm.Const 1., Ppm.Const 1.) ] in
  let b = spec "b" [ Ppm.Reg_write ("r1", Ppm.Const 0., Ppm.Const 1.);
                     Ppm.Reg_write ("r2", Ppm.Const 1., Ppm.Const 1.) ] in
  Alcotest.(check bool) "register identity preserved" false (Equiv.equivalent a b)

(* ---------------- Graphs ---------------- *)

let test_graph_of_pipeline () =
  let specs = Specs.specs_of "lfa-detector" in
  let g = Graph.of_pipeline ~booster:"lfa-detector" specs in
  Alcotest.(check int) "vertices" (List.length specs) (Graph.num_vertices g);
  Alcotest.(check bool) "has chain edges" true
    (List.length (Graph.edges g) >= List.length specs - 1)

let test_graph_state_edges_weighted () =
  let p1 = spec "w" [ Ppm.Reg_write ("shared", Ppm.Const 0., Ppm.Const 1.) ] in
  let p2 = spec "mid" [ Ppm.Set_meta ("m", Ppm.Const 0.) ] in
  let p3 =
    spec "r"
      [ Ppm.Drop_when (Ppm.Cmp (Ppm.Gt, Ppm.Reg_read ("shared", Ppm.Const 0.), Ppm.Const 0.)) ]
  in
  let g = Graph.of_pipeline ~booster:"b" [ p1; p2; p3 ] in
  let e = List.find_opt (fun e -> e.Graph.u = 0 && e.Graph.v = 2) (Graph.edges g) in
  match e with
  | Some e -> Alcotest.(check (float 0.)) "weight = shared registers" 1. e.Graph.weight
  | None -> Alcotest.fail "missing long-range state edge"

let test_merge_shares_parser_and_cms () =
  let compiled = Fastflex.Compile.boosters () in
  let absorbed = List.map snd compiled.Fastflex.Compile.sharing in
  Alcotest.(check bool) "at least 8 PPMs absorbed" true (List.length absorbed >= 8);
  let merged_names =
    List.map (fun v -> v.Graph.spec.Ppm.name) (Graph.vertices compiled.Fastflex.Compile.merged)
  in
  Alcotest.(check bool) "cms-update survives" true (List.mem "cms-update" merged_names);
  Alcotest.(check bool) "tenant-count absorbed into cms-update" true
    (List.mem "tenant-count" absorbed);
  let cms =
    List.find
      (fun v -> v.Graph.spec.Ppm.name = "cms-update")
      (Graph.vertices compiled.Fastflex.Compile.merged)
  in
  Alcotest.(check bool) "cms shared by heavy-hitter" true
    (List.mem "heavy-hitter" cms.Graph.boosters);
  Alcotest.(check bool) "cms shared by global-rate-limit" true
    (List.mem "global-rate-limit" cms.Graph.boosters)

let test_merge_savings_positive () =
  let compiled = Fastflex.Compile.boosters () in
  Alcotest.(check bool) "sharing saves stages" true (compiled.Fastflex.Compile.savings > 0.1);
  Alcotest.(check bool) "savings below 1" true (compiled.Fastflex.Compile.savings < 1.)

let test_merge_keeps_distinct_logic () =
  let compiled = Fastflex.Compile.boosters () in
  let merged_names =
    List.map (fun v -> v.Graph.spec.Ppm.name) (Graph.vertices compiled.Fastflex.Compile.merged)
  in
  Alcotest.(check bool) "flow-state kept" true (List.mem "flow-state" merged_names);
  Alcotest.(check bool) "ttl-learn kept" true (List.mem "ttl-learn" merged_names);
  Alcotest.(check bool) "hh-threshold kept" true (List.mem "hh-threshold" merged_names)

let test_merge_resource_max () =
  let a =
    spec ~booster:"x" ~resources:(Resource.make ~stages:2. ~sram_kb:10. ()) "a"
      (counter_body ~reg:"r" ~meta:"m")
  in
  let b =
    spec ~booster:"y" ~resources:(Resource.make ~stages:1. ~sram_kb:90. ()) "b"
      (counter_body ~reg:"q" ~meta:"n")
  in
  let ga = Graph.of_pipeline ~booster:"x" [ a ] in
  let gb = Graph.of_pipeline ~booster:"y" [ b ] in
  let merged, report = Graph.merge [ ga; gb ] in
  Alcotest.(check int) "single vertex" 1 (Graph.num_vertices merged);
  Alcotest.(check int) "one absorption" 1 (List.length report);
  let v = Graph.vertex merged 0 in
  Alcotest.(check (float 0.)) "max stages" 2. v.Graph.spec.Ppm.resources.Resource.stages;
  Alcotest.(check (float 0.)) "max sram" 90. v.Graph.spec.Ppm.resources.Resource.sram_kb

let test_clusters () =
  let p1 = spec "w" [ Ppm.Reg_write ("shared", Ppm.Const 0., Ppm.Const 1.) ] in
  let p2 =
    spec "r"
      [ Ppm.Drop_when (Ppm.Cmp (Ppm.Gt, Ppm.Reg_read ("shared", Ppm.Const 0.), Ppm.Const 0.)) ]
  in
  let p3 = spec "lonely" [ Ppm.Set_meta ("m", Ppm.Const 0.) ] in
  let g = Graph.of_pipeline ~booster:"b" [ p1; p2; p3 ] in
  let clusters = Graph.clusters g in
  Alcotest.(check bool) "w,r together" true
    (List.exists (fun c -> List.mem 0 c && List.mem 1 c) clusters);
  Alcotest.(check bool) "lonely alone" true (List.mem [ 2 ] clusters)

(* ---------------- Decomposition ---------------- *)

module Decompose = Ff_dataflow.Decompose

let flat_program =
  [
    (* parser-ish prologue *)
    Ppm.Set_meta ("key", Ppm.Hash [ "src"; "dst" ]);
    (* counter cluster on register a *)
    Ppm.Reg_write ("a", Ppm.Meta "key", Ppm.Binop (Ppm.Add, Ppm.Reg_read ("a", Ppm.Meta "key"), Ppm.Const 1.));
    Ppm.Set_meta ("count", Ppm.Reg_read ("a", Ppm.Meta "key"));
    (* independent cluster on register b *)
    Ppm.Reg_write ("b", Ppm.Const 0., Ppm.Field "size");
    Ppm.Reg_write ("b", Ppm.Const 1., Ppm.Field "ttl");
    (* mitigation tail *)
    Ppm.Drop_when (Ppm.Cmp (Ppm.Gt, Ppm.Meta "count", Ppm.Const 100.));
  ]

let test_decompose_order_preserved () =
  let ppms = Decompose.decompose ~booster:"x" flat_program in
  Alcotest.(check bool) "multiple ppms" true (List.length ppms >= 2);
  Alcotest.(check bool) "concatenation is the original program" true
    (Decompose.roundtrip ppms = flat_program)

let test_decompose_state_affinity () =
  let ppms = Decompose.decompose ~booster:"x" flat_program in
  (* the two writes to register b must share one PPM *)
  let owner stmt =
    List.find_opt (fun p -> List.mem stmt p.Ppm.body) ppms
  in
  let b0 = Ppm.Reg_write ("b", Ppm.Const 0., Ppm.Field "size") in
  let b1 = Ppm.Reg_write ("b", Ppm.Const 1., Ppm.Field "ttl") in
  (match (owner b0, owner b1) with
  | Some p0, Some p1 ->
    Alcotest.(check string) "b-cluster co-located" p0.Ppm.name p1.Ppm.name
  | _ -> Alcotest.fail "statements lost");
  (* a-cluster and b-cluster are split *)
  let a0 =
    Ppm.Reg_write ("a", Ppm.Meta "key",
       Ppm.Binop (Ppm.Add, Ppm.Reg_read ("a", Ppm.Meta "key"), Ppm.Const 1.))
  in
  match (owner a0, owner b0) with
  | Some pa, Some pb ->
    Alcotest.(check bool) "disjoint state split" true (pa.Ppm.name <> pb.Ppm.name)
  | _ -> Alcotest.fail "statements lost"

let test_decompose_roles () =
  let ppms = Decompose.decompose ~booster:"x" flat_program in
  let last = List.nth ppms (List.length ppms - 1) in
  Alcotest.(check bool) "dropping PPM is mitigation" true (last.Ppm.role = Ppm.Mitigation)

let test_estimate_resources_monotone () =
  let small = Decompose.estimate_resources [ List.hd flat_program ] in
  let big = Decompose.estimate_resources flat_program in
  Alcotest.(check bool) "more statements, more stages" true
    (big.Resource.stages >= small.Resource.stages);
  Alcotest.(check bool) "registers counted" true (big.Resource.sram_kb >= 128.)

let prop_decompose_roundtrip =
  QCheck.Test.make ~name:"decomposition always preserves program order" ~count:100
    QCheck.(list_of_size (Gen.int_range 0 20) (int_range 0 4))
    (fun choices ->
      let stmt_of i =
        match i with
        | 0 -> Ppm.Set_meta ("m", Ppm.Field "size")
        | 1 -> Ppm.Reg_write ("r1", Ppm.Const 0., Ppm.Field "size")
        | 2 -> Ppm.Reg_write ("r2", Ppm.Const 0., Ppm.Field "ttl")
        | 3 -> Ppm.Drop_when (Ppm.Cmp (Ppm.Gt, Ppm.Field "size", Ppm.Const 100.))
        | _ -> Ppm.Emit_probe "p"
      in
      let program = List.map stmt_of choices in
      Decompose.roundtrip (Decompose.decompose ~booster:"q" program) = program)

(* ---------------- Static checking ---------------- *)

module Check = Ff_dataflow.Check

let test_check_catalogue_clean () =
  List.iter
    (fun (name, specs) ->
      let issues = Check.check_pipeline specs in
      Alcotest.(check int) (name ^ " has no issues") 0 (List.length issues))
    (Specs.all ())

let roomy = Resource.make ~stages:8. ()

let test_check_uninitialized_meta () =
  let bad =
    spec ~resources:roomy "bad"
      [ Ppm.Drop_when (Ppm.Cmp (Ppm.Gt, Ppm.Meta "ghost", Ppm.Const 0.)) ]
  in
  match Check.check_pipeline [ bad ] with
  | [ Check.Uninitialized_meta { meta = "ghost"; _ } ] -> ()
  | issues -> Alcotest.fail (Printf.sprintf "expected 1 issue, got %d" (List.length issues))

let test_check_meta_defined_upstream () =
  let producer = spec ~resources:roomy "producer" [ Ppm.Set_meta ("k", Ppm.Field "size") ] in
  let consumer =
    spec ~resources:roomy "consumer"
      [ Ppm.Drop_when (Ppm.Cmp (Ppm.Gt, Ppm.Meta "k", Ppm.Const 0.)) ]
  in
  Alcotest.(check int) "cross-PPM definition accepted" 0
    (List.length (Check.check_pipeline [ producer; consumer ]))

let test_check_undeclared_table () =
  let bad = spec ~resources:roomy "bad" [ Ppm.Apply_table "mystery" ] in
  match Check.check_pipeline [ bad ] with
  | [ Check.Undeclared_table { table = "mystery"; _ } ] -> ()
  | _ -> Alcotest.fail "undeclared table not flagged"

let test_check_table_outputs () =
  let ok =
    spec ~resources:roomy "ok"
      [ Ppm.Apply_table "acl_policy";
        Ppm.Drop_when (Ppm.Cmp (Ppm.Eq, Ppm.Meta "acl_deny", Ppm.Const 1.)) ]
  in
  Alcotest.(check int) "table output counts as defined" 0
    (List.length (Check.check_pipeline [ ok ]))

let test_check_unreachable_after_drop () =
  let bad =
    spec ~resources:roomy "bad" [ Ppm.Drop_when Ppm.True; Ppm.Set_meta ("m", Ppm.Const 1.) ]
  in
  Alcotest.(check bool) "dead code flagged" true
    (List.exists
       (function Check.Unreachable_after_drop _ -> true | _ -> false)
       (Check.check_pipeline [ bad ]))

let test_check_under_provisioned () =
  (* ten statements but zero declared stages *)
  let body = List.init 10 (fun i -> Ppm.Set_meta (Printf.sprintf "m%d" i, Ppm.Const 0.)) in
  let bad = spec ~resources:Resource.zero "bad" body in
  Alcotest.(check bool) "under-provisioning flagged" true
    (List.exists
       (function Check.Under_provisioned _ -> true | _ -> false)
       (Check.check_pipeline [ bad ]))

let test_check_probe_from_parser () =
  let bad = spec ~role:Ppm.Parser ~resources:roomy "bad" [ Ppm.Emit_probe "x" ] in
  Alcotest.(check bool) "parser probe flagged" true
    (List.exists
       (function Check.Probe_from_parser _ -> true | _ -> false)
       (Check.check_pipeline [ bad ]))

let prop_canonical_stable_under_renaming =
  QCheck.Test.make ~name:"canonicalization invariant under register renaming" ~count:100
    QCheck.(pair small_string small_string)
    (fun (r1, r2) ->
      QCheck.assume (r1 <> "" && r2 <> "");
      let a = spec "a" (counter_body ~reg:("reg_" ^ r1) ~meta:"m") in
      let b = spec "b" (counter_body ~reg:("reg_" ^ r2) ~meta:"m") in
      Equiv.canonical a = Equiv.canonical b)

let () =
  let qcheck =
    List.map Test_seed.to_alcotest
      [ prop_canonical_stable_under_renaming; prop_decompose_roundtrip ]
  in
  Alcotest.run "ff_dataflow"
    [
      ( "equivalence",
        [
          Alcotest.test_case "reflexive" `Quick test_equiv_reflexive;
          Alcotest.test_case "rename invariant" `Quick test_equiv_rename_invariant;
          Alcotest.test_case "hash field order" `Quick test_equiv_hash_field_order;
          Alcotest.test_case "commutativity" `Quick test_equiv_commutative_operands;
          Alcotest.test_case "comparison normalisation" `Quick
            test_equiv_comparison_normalisation;
          Alcotest.test_case "role matters" `Quick test_equiv_role_matters;
          Alcotest.test_case "structure matters" `Quick test_equiv_structure_matters;
          Alcotest.test_case "distinct vars kept" `Quick test_equiv_distinct_vars_not_conflated;
        ] );
      ( "graph",
        [
          Alcotest.test_case "of_pipeline" `Quick test_graph_of_pipeline;
          Alcotest.test_case "state edges weighted" `Quick test_graph_state_edges_weighted;
          Alcotest.test_case "clusters" `Quick test_clusters;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "order preserved" `Quick test_decompose_order_preserved;
          Alcotest.test_case "state affinity" `Quick test_decompose_state_affinity;
          Alcotest.test_case "roles" `Quick test_decompose_roles;
          Alcotest.test_case "resource estimate monotone" `Quick
            test_estimate_resources_monotone;
        ] );
      ( "check",
        [
          Alcotest.test_case "catalogue clean" `Quick test_check_catalogue_clean;
          Alcotest.test_case "uninitialized meta" `Quick test_check_uninitialized_meta;
          Alcotest.test_case "meta defined upstream" `Quick test_check_meta_defined_upstream;
          Alcotest.test_case "undeclared table" `Quick test_check_undeclared_table;
          Alcotest.test_case "table outputs" `Quick test_check_table_outputs;
          Alcotest.test_case "unreachable after drop" `Quick test_check_unreachable_after_drop;
          Alcotest.test_case "under provisioned" `Quick test_check_under_provisioned;
          Alcotest.test_case "probe from parser" `Quick test_check_probe_from_parser;
        ] );
      ( "merge",
        [
          Alcotest.test_case "shares parser and cms" `Quick test_merge_shares_parser_and_cms;
          Alcotest.test_case "savings positive" `Quick test_merge_savings_positive;
          Alcotest.test_case "distinct logic kept" `Quick test_merge_keeps_distinct_logic;
          Alcotest.test_case "resource max on merge" `Quick test_merge_resource_max;
        ] );
      ("properties", qcheck);
    ]
