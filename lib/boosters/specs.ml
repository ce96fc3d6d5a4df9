open Ff_dataplane
open Ff_dataplane.Ppm

let res = Resource.make

(* A standard ethernet/IP/TCP parser; every booster carries one, written
   with booster-specific metadata names so that sharing must be discovered
   by canonicalization rather than by name. *)
let parser_body ~flow_meta ~ttl_meta =
  [
    Set_meta (flow_meta, Hash [ "dst"; "proto"; "src" ]);
    Set_meta (ttl_meta, Field "ttl");
  ]

let parser ~booster ~flow_meta ~ttl_meta =
  make_spec ~name:(booster ^ "-parser") ~booster ~role:Parser
    ~resources:(res ~stages:1. ~sram_kb:16. ())
    (parser_body ~flow_meta ~ttl_meta)

let deparser ~booster =
  make_spec ~name:(booster ^ "-deparser") ~booster ~role:Deparser
    ~resources:(res ~stages:1. ~sram_kb:8. ())
    [ Set_meta ("out", Field "ttl") ]

(* Count-min-style sketch update: two hash rows incremented by packet size.
   Written twice below (heavy hitter vs. global rate limiter) with
   different register names; canonical forms coincide. *)
let cms_update_body ~r0 ~r1 =
  [
    Reg_write (r0, Hash [ "dst"; "proto"; "src" ],
       Binop (Add, Reg_read (r0, Hash [ "dst"; "proto"; "src" ]), Field "size"));
    Reg_write (r1, Hash [ "dst"; "src" ],
       Binop (Add, Reg_read (r1, Hash [ "dst"; "src" ]), Field "size"));
  ]

(* Per-flow connection state update (first/last seen, byte count): shared
   structure between the LFA detector and the dropper's meter bookkeeping. *)
let flow_state_body ~key ~bytes_reg ~last_reg =
  [
    Reg_write (bytes_reg, Meta key,
       Binop (Add, Reg_read (bytes_reg, Meta key), Field "size"));
    Reg_write (last_reg, Meta key, Field "now");
  ]

let lfa_detector () =
  let booster = "lfa-detector" in
  [
    parser ~booster ~flow_meta:"flow_key" ~ttl_meta:"ttl_copy";
    make_spec ~name:"flow-state" ~booster ~role:Detection
      ~resources:(res ~stages:2. ~sram_kb:512. ~alus:4. ~hash_units:1. ())
      (flow_state_body ~key:"flow_key" ~bytes_reg:"flow_bytes" ~last_reg:"flow_last"
      @ [
          (* first-seen timestamp feeds the age used by the classifier *)
          If (Cmp (Eq, Reg_read ("flow_first", Meta "flow_key"), Const 0.),
              [ Reg_write ("flow_first", Meta "flow_key", Field "now") ], []);
          Set_meta ("flow_age",
             Binop (Sub, Field "now", Reg_read ("flow_first", Meta "flow_key")));
        ]);
    make_spec ~name:"link-load-monitor" ~booster ~role:Detection
      ~resources:(res ~stages:1. ~sram_kb:32. ~alus:2. ())
      [
        Reg_write ("link_bytes", Const 0.,
           Binop (Add, Reg_read ("link_bytes", Const 0.), Field "size"));
        If (Cmp (Gt, Reg_read ("link_bytes", Const 0.), Const 850_000.),
            [ Emit_probe "mode-alarm" ], []);
      ];
    make_spec ~name:"flow-classifier" ~booster ~role:Detection
      ~resources:(res ~stages:2. ~sram_kb:128. ~alus:2. ~hash_units:1. ())
      [
        Mark_suspicious
          (And
             ( Cmp (Lt, Reg_read ("flow_bytes", Meta "flow_key"), Const 1_500_000.),
               Cmp (Gt, Meta "flow_age", Const 2.) ));
      ];
    deparser ~booster;
  ]

let reroute () =
  let booster = "reroute" in
  [
    parser ~booster ~flow_meta:"fkey" ~ttl_meta:"tcopy";
    make_spec ~name:"util-probe-processor" ~booster ~role:Detection
      ~resources:(res ~stages:2. ~sram_kb:64. ~alus:4. ())
      [
        Set_meta ("path_util", Binop (Max, Field "probe_util", Reg_read ("egress_util", Field "in_port")));
        If (Cmp (Lt, Meta "path_util", Reg_read ("best_metric", Field "probe_dst")),
            [
              Reg_write ("best_metric", Field "probe_dst", Meta "path_util");
              Reg_write ("best_nexthop", Field "probe_dst", Field "in_port");
              Emit_probe "util-probe";
            ],
            []);
      ];
    make_spec ~name:"suspicious-steering" ~booster ~role:Mitigation
      ~resources:(res ~stages:1. ~sram_kb:64. ~tcam:64. ())
      [
        If (Cmp (Eq, Field "suspicious", Const 1.),
            [ Apply_table "best_nexthop_table" ], []);
      ];
    deparser ~booster;
  ]

let obfuscator () =
  let booster = "obfuscator" in
  [
    parser ~booster ~flow_meta:"okey" ~ttl_meta:"ottl";
    make_spec ~name:"virtual-topology-lookup" ~booster ~role:Mitigation
      ~resources:(res ~stages:2. ~sram_kb:96. ~tcam:256. ())
      [
        If (Cmp (Eq, Field "ttl", Const 1.),
            [ Apply_table "virtual_topology"; Set_meta ("vresp", Field "vhop") ], []);
      ];
    deparser ~booster;
  ]

let dropper () =
  let booster = "dropper" in
  [
    parser ~booster ~flow_meta:"dkey" ~ttl_meta:"dttl";
    make_spec ~name:"flow-meter" ~booster ~role:Mitigation
      ~resources:(res ~stages:2. ~sram_kb:256. ~alus:4. ~hash_units:1. ())
      (flow_state_body ~key:"dkey" ~bytes_reg:"meter_tokens" ~last_reg:"meter_last");
    make_spec ~name:"drop-policy" ~booster ~role:Mitigation
      ~resources:(res ~stages:1. ~sram_kb:16. ~alus:1. ())
      [
        Drop_when
          (And
             ( Cmp (Eq, Field "suspicious", Const 1.),
               Cmp (Lt, Reg_read ("meter_tokens", Meta "dkey"), Field "size") ));
      ];
    deparser ~booster;
  ]

let heavy_hitter () =
  let booster = "heavy-hitter" in
  [
    parser ~booster ~flow_meta:"hhkey" ~ttl_meta:"hhttl";
    make_spec ~name:"cms-update" ~booster ~role:Detection
      ~resources:(res ~stages:2. ~sram_kb:128. ~alus:2. ~hash_units:2. ())
      (cms_update_body ~r0:"cms_row0" ~r1:"cms_row1");
    make_spec ~name:"hh-threshold" ~booster ~role:Detection
      ~resources:(res ~stages:1. ~sram_kb:16. ~alus:1. ())
      [
        If (Cmp (Gt, Reg_read ("cms_row0", Hash [ "dst"; "proto"; "src" ]), Const 500_000.),
            [ Emit_probe "mode-alarm" ], []);
      ];
    deparser ~booster;
  ]

let global_rate_limit () =
  let booster = "global-rate-limit" in
  [
    parser ~booster ~flow_meta:"grlkey" ~ttl_meta:"grlttl";
    (* same canonical form as the heavy hitter's cms-update *)
    make_spec ~name:"tenant-count" ~booster ~role:Detection
      ~resources:(res ~stages:2. ~sram_kb:128. ~alus:2. ~hash_units:2. ())
      (cms_update_body ~r0:"tenant_row_a" ~r1:"tenant_row_b");
    make_spec ~name:"view-sync" ~booster ~role:Telemetry
      ~resources:(res ~stages:1. ~sram_kb:64. ~alus:1. ())
      [
        Emit_probe "sync-probe";
        Set_meta ("remote_rate", Reg_read ("remote_views", Meta "grlkey"));
      ];
    make_spec ~name:"police" ~booster ~role:Mitigation
      ~resources:(res ~stages:1. ~sram_kb:32. ~alus:2. ())
      [
        Drop_when
          (Cmp (Gt, Binop (Add, Reg_read ("tenant_row_a", Meta "grlkey"), Meta "remote_rate"),
                Const 5_000_000.));
      ];
    deparser ~booster;
  ]

let hop_count_filter () =
  let booster = "hop-count-filter" in
  [
    parser ~booster ~flow_meta:"hkey" ~ttl_meta:"httl";
    make_spec ~name:"ttl-learn" ~booster ~role:Detection
      ~resources:(res ~stages:1. ~sram_kb:256. ~alus:2. ~hash_units:1. ())
      [
        Reg_write ("expected_ttl", Field "src",
           Binop (Add,
              Binop (Mul, Reg_read ("expected_ttl", Field "src"), Const 0.7),
              Binop (Mul, Field "ttl", Const 0.3)));
      ];
    make_spec ~name:"ttl-filter" ~booster ~role:Mitigation
      ~resources:(res ~stages:1. ~sram_kb:16. ~alus:2. ())
      [
        Drop_when
          (Or
             ( Cmp (Gt, Field "ttl", Binop (Add, Reg_read ("expected_ttl", Field "src"), Const 2.)),
               Cmp (Lt, Field "ttl", Binop (Sub, Reg_read ("expected_ttl", Field "src"), Const 2.)) ));
      ];
    deparser ~booster;
  ]

let access_control () =
  let booster = "access-control" in
  [
    parser ~booster ~flow_meta:"akey" ~ttl_meta:"attl";
    make_spec ~name:"policy-table" ~booster ~role:Mitigation
      ~resources:(res ~stages:1. ~sram_kb:64. ~tcam:512. ())
      [ Apply_table "acl_policy"; Drop_when (Cmp (Eq, Meta "acl_deny", Const 1.)) ];
    deparser ~booster;
  ]

let catalogue =
  [
    ("lfa-detector", lfa_detector);
    ("reroute", reroute);
    ("obfuscator", obfuscator);
    ("dropper", dropper);
    ("heavy-hitter", heavy_hitter);
    ("global-rate-limit", global_rate_limit);
    ("hop-count-filter", hop_count_filter);
    ("access-control", access_control);
  ]

let booster_names = List.map fst catalogue

let specs_of name =
  match List.assoc_opt name catalogue with
  | Some f -> f ()
  | None -> raise Not_found

let all () = List.map (fun (name, f) -> (name, f ())) catalogue
