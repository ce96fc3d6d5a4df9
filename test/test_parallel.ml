(* Unit tests for the parallel engine's building blocks: the region
   partition that assigns nodes to shards, the SPSC mailbox that carries
   cross-shard arrivals, and the sort-free drain that schedules them. The
   end-to-end guarantee (sharded runs bit-identical to the sequential
   engine) lives in test_differential.ml; these tests pin the invariants
   it rests on, one module at a time. *)

module T = Ff_topology.Topology
module Engine = Ff_netsim.Engine
module Packet = Ff_dataplane.Packet
module Prng = Ff_util.Prng
module Regions = Ff_modes.Regions
module Mailbox = Ff_parallel.Mailbox
module Psim = Ff_parallel.Psim

(* ---------------- Regions ---------------- *)

(* Hosts per switch, counting each host at its first neighbor (where the
   partition places it). *)
let hosts_served topo =
  let served = Array.make (T.num_nodes topo) 0 in
  List.iter
    (fun (h : T.node) ->
      match T.neighbors topo h.T.id with
      | (sw, _) :: _ -> served.(sw) <- served.(sw) + 1
      | [] -> ())
    (T.hosts topo);
  served

(* The partition contract, as a list of violations (empty = holds):
   every node lands in [0, shards), every shard owns a switch, per-shard
   host counts differ by at most the most hosts any one switch serves,
   and the result is a pure function of the topology. *)
let partition_violations topo ~shards =
  let shard_of = Regions.partition topo ~shards in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if Array.length shard_of <> T.num_nodes topo then
    fail "map covers %d of %d nodes" (Array.length shard_of) (T.num_nodes topo);
  Array.iteri
    (fun v s -> if s < 0 || s >= shards then fail "node %d in region %d" v s)
    shard_of;
  let switches = Array.make shards 0 and hosts = Array.make shards 0 in
  List.iter
    (fun (nd : T.node) ->
      let s = shard_of.(nd.T.id) in
      if s >= 0 && s < shards then
        match nd.T.kind with
        | T.Switch -> switches.(s) <- switches.(s) + 1
        | T.Host -> hosts.(s) <- hosts.(s) + 1)
    (T.nodes topo);
  Array.iteri (fun s n -> if n = 0 then fail "region %d owns no switch" s) switches;
  let spread = Array.fold_left max 0 hosts - Array.fold_left min max_int hosts in
  let per_switch = Array.fold_left max 0 (hosts_served topo) in
  if spread > per_switch then
    fail "host counts %s differ by %d > %d per switch"
      (String.concat "/" (Array.to_list (Array.map string_of_int hosts)))
      spread per_switch;
  if Regions.partition topo ~shards <> shard_of then fail "two calls disagree";
  List.rev !problems

let check_partition label topo ~shards =
  match partition_violations topo ~shards with
  | [] -> ()
  | problems -> Alcotest.failf "%s: %s" label (String.concat "; " problems)

let test_fat_tree k shards () =
  let topo = T.fat_tree ~k () in
  let label = Printf.sprintf "fat-tree(%d), %d shards" k shards in
  check_partition label topo ~shards;
  let shard_of = Regions.partition topo ~shards in
  (* every fat-tree link has the default 1 ms delay *)
  Alcotest.(check (float 0.)) (label ^ ": lookahead") 0.001 (Regions.lookahead topo ~shard_of)

(* The count-balanced partition put 112 of fat-tree(8)'s 128 hosts on
   shard 0; weighting switches by the hosts they serve splits them
   evenly. *)
let test_fat_tree8_hosts_even () =
  let topo = T.fat_tree ~k:8 () in
  let shard_of = Regions.partition topo ~shards:2 in
  let on_0 = List.length (List.filter (fun (h : T.node) -> shard_of.(h.T.id) = 0) (T.hosts topo)) in
  Alcotest.(check int) "hosts on shard 0" 64 on_0

let test_rejects () =
  let topo = T.ring ~n:3 () in
  Alcotest.check_raises "0 shards" (Invalid_argument "Regions.partition: shards < 1") (fun () ->
      ignore (Regions.partition topo ~shards:0));
  Alcotest.check_raises "more shards than switches"
    (Invalid_argument "Regions.partition: 4 shards > 3 switches") (fun () ->
      ignore (Regions.partition topo ~shards:4))

(* Random connected switch graphs (spanning tree plus chords) with the
   same number of hosts on every switch. The host bound is a property of
   that shape — fat-trees, rings and the generated families all have it:
   with uneven host counts the partition balances weight (switches plus
   hosts), and a long host-less chain can then own a whole region. *)
let random_topology rng =
  let n_sw = 1 + Prng.int rng 12 in
  let per_switch = 1 + Prng.int rng 3 in
  let topo = T.create () in
  let sws = Array.init n_sw (fun i -> T.add_node topo ~kind:T.Switch ~name:(Printf.sprintf "s%d" i)) in
  let link a b = ignore (T.add_link topo ~delay:(Prng.choose rng [| 0.0005; 0.001; 0.002 |]) a b) in
  for i = 1 to n_sw - 1 do
    link sws.(i) sws.(Prng.int rng i)
  done;
  for _ = 1 to Prng.int rng (n_sw + 1) do
    let a = Prng.int rng n_sw and b = Prng.int rng n_sw in
    if a <> b && T.find_link topo sws.(a) sws.(b) = None then link sws.(a) sws.(b)
  done;
  Array.iteri
    (fun i sw ->
      for j = 0 to per_switch - 1 do
        link (T.add_node topo ~kind:T.Host ~name:(Printf.sprintf "h%d_%d" i j)) sw
      done)
    sws;
  (topo, n_sw)

let prop_random_partition =
  QCheck.Test.make ~name:"partition invariants hold on random connected topologies"
    ~count:300 ~long_factor:5
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let topo, n_sw = random_topology rng in
      List.for_all
        (fun shards ->
          (match partition_violations topo ~shards with
          | [] -> ()
          | problems ->
            QCheck.Test.fail_reportf "%d switches, %d shards: %s" n_sw shards
              (String.concat "; " problems));
          (* the window bound is the fastest boundary-crossing link *)
          let shard_of = Regions.partition topo ~shards in
          let crossing = Regions.cross_links topo ~shard_of in
          let expect =
            List.fold_left (fun acc (l : T.link) -> Float.min acc l.T.delay) infinity crossing
          in
          if Regions.lookahead topo ~shard_of <> expect then
            QCheck.Test.fail_reportf "lookahead %g, fastest crossing link %g"
              (Regions.lookahead topo ~shard_of) expect;
          true)
        (List.init (min 4 n_sw) (fun i -> i + 1)))

(* ---------------- Mailbox ---------------- *)

let packet i = Packet.make ~src:0 ~dst:1 ~flow:i ~birth:0. ()

(* A capacity-4 ring takes 10 pushes: 4 in the ring, 6 in the spill. The
   drain must hand them back in push order, and the mailbox must work
   again afterwards. *)
let test_mailbox_fifo_through_spill () =
  let mb = Mailbox.create ~capacity:4 () in
  let round base n =
    for i = 0 to n - 1 do
      Mailbox.push mb ~at:(float_of_int (base + i)) ~to_node:(base + i) ~from_node:i
        (packet (base + i))
    done;
    let seen = ref [] in
    let count =
      Mailbox.drain mb (fun ~at ~to_node ~from_node:_ pkt ->
          Alcotest.(check (float 0.)) "time travels with the message" (float_of_int to_node) at;
          Alcotest.(check int) "packet travels with the message" to_node pkt.Packet.flow;
          seen := to_node :: !seen)
    in
    Alcotest.(check int) "drain count" n count;
    Alcotest.(check (list int)) "push order" (List.init n (fun i -> base + i)) (List.rev !seen);
    Alcotest.(check bool) "empty after drain" true (Mailbox.is_empty mb)
  in
  round 0 10;
  Alcotest.(check int) "spilled" 6 (Mailbox.overflowed mb);
  round 100 3;
  round 200 7;
  Alcotest.(check int) "spilled, total" 9 (Mailbox.overflowed mb)

(* The space leak test_util pins for the heap, for mailboxes: a drained
   slot must not pin its packet until the ring wraps round to overwrite
   it. The mailbox itself stays live across the collection. *)
let test_mailbox_drain_releases () =
  let mb = Mailbox.create ~capacity:8 () in
  let weak = Weak.create 6 in
  for i = 0 to 5 do
    let pkt = packet i in
    Weak.set weak i (Some pkt);
    Mailbox.push mb ~at:0. ~to_node:0 ~from_node:0 pkt
  done;
  ignore (Mailbox.drain mb (fun ~at:_ ~to_node:_ ~from_node:_ _ -> ()));
  Gc.full_major ();
  for i = 0 to 5 do
    Alcotest.(check bool) (Printf.sprintf "drained packet %d collected" i) false (Weak.check weak i)
  done;
  Alcotest.(check bool) "mailbox still usable" true (Mailbox.is_empty (Sys.opaque_identity mb))

(* ---------------- sort-free drain ---------------- *)

(* The drain used to collect every message as a (time, source, index)
   tuple and sort them before scheduling. [Psim.drain_inbox] schedules in
   (source, push) order instead and lets the engine's (time, seq) order do
   the rest. Pin that the two agree: two sources with interleaved times,
   same-instant arrivals within and across sources, and one mailbox small
   enough to spill. Each message is tagged to_node = source, from_node =
   push index, so the dispatch order reads off directly. *)
let test_drain_matches_sort () =
  let me = 1 and shards = 3 in
  let inbox = Array.init shards (fun src -> Mailbox.create ~capacity:(if src = 0 then 4 else 64) ()) in
  let times =
    [| [| 3.; 1.; 2.; 2.; 5.; 1.; 4.; 2.; 0.5 |]; [||]; [| 2.; 1.; 1.; 6.; 2.; 0.5; 3. |] |]
  in
  let sent = ref [] in
  Array.iteri
    (fun src ts ->
      Array.iteri
        (fun idx at ->
          Mailbox.push inbox.(src) ~at ~to_node:src ~from_node:idx (packet idx);
          sent := (at, src, idx) :: !sent)
        ts)
    times;
  Alcotest.(check bool) "source 0 spilled" true (Mailbox.overflowed inbox.(0) > 0);
  let engine = Engine.create () in
  let fired = ref [] in
  Engine.set_packet_handler engine (fun ~to_node ~from_node _ ->
      fired := (Engine.now engine, to_node, from_node) :: !fired);
  let count = Psim.drain_inbox inbox ~me engine in
  Alcotest.(check int) "drained" (List.length !sent) count;
  Engine.run engine ~until:10.;
  let reference = List.sort compare !sent in
  let show (at, src, idx) = Printf.sprintf "(%g, %d, %d)" at src idx in
  Alcotest.(check (list string))
    "dispatch order = sort by (time, source, push index)"
    (List.map show reference)
    (List.map show (List.rev !fired))

(* [me]'s own slot is never drained: a shard does not mail itself. *)
let test_drain_skips_self () =
  let inbox = Array.init 2 (fun _ -> Mailbox.create ()) in
  Mailbox.push inbox.(0) ~at:1. ~to_node:0 ~from_node:0 (packet 0);
  let engine = Engine.create () in
  Engine.set_packet_handler engine (fun ~to_node:_ ~from_node:_ _ -> ());
  Alcotest.(check int) "nothing from self" 0 (Psim.drain_inbox inbox ~me:0 engine);
  Alcotest.(check bool) "own slot untouched" false (Mailbox.is_empty inbox.(0))

let () =
  Alcotest.run "ff_parallel"
    [
      ( "regions",
        [
          Alcotest.test_case "fat-tree(4) 2 shards" `Quick (test_fat_tree 4 2);
          Alcotest.test_case "fat-tree(4) 4 shards" `Quick (test_fat_tree 4 4);
          Alcotest.test_case "fat-tree(8) 2 shards" `Quick (test_fat_tree 8 2);
          Alcotest.test_case "fat-tree(8) 4 shards" `Quick (test_fat_tree 8 4);
          Alcotest.test_case "fat-tree(8) hosts split evenly" `Quick test_fat_tree8_hosts_even;
          Alcotest.test_case "rejects bad shard counts" `Quick test_rejects;
          Test_seed.to_alcotest prop_random_partition;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo through the spill" `Quick test_mailbox_fifo_through_spill;
          Alcotest.test_case "drain releases packets" `Quick test_mailbox_drain_releases;
        ] );
      ( "drain",
        [
          Alcotest.test_case "sort-free drain = (time, src, idx) sort" `Quick
            test_drain_matches_sort;
          Alcotest.test_case "skips the shard's own slot" `Quick test_drain_skips_self;
        ] );
    ]
