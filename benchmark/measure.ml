(* One workload in one process: a discarded warm-up run, set-up runs,
   measured runs, and optionally one traced run; every run's outputs are
   checked. *)

module W = Workloads

type count = Reps of int | Seconds of float

type config = {
  workload : string;
  seed : int;
  size : W.size;  (** [Full], or [Small] for the smoke test *)
  count : count;  (** measured runs: a fixed number, or as many as fit *)
  trace : bool;
  spans : string option;  (** where the traced run's spans go (JSONL) *)
}

(* Measured runs per workload in [Reps] mode, and set-up runs in both
   modes: the million-flow workload takes seconds per run. *)
let default_reps = function "fluid_isp_1m" -> 5 | _ -> 7

(* Fewest measured runs in [Seconds] mode, so a median always exists. *)
let min_runs = 3

type result = {
  workload : string;
  seed : int;
  setup_s : float list;
  wall_s : float list;
  equiv_per_s : float list;
  alloc_words_per_equiv : float list;
  speedup_2shard : float list;
  peak_heap_mb : float;
  sim : (string * float) list;
  hops : int;
  events : int;
  equiv : float;
  attempted : int;
  failed : int;
  failures : string list;
  per_layer : (string * float) list;  (** empty unless traced *)
}

let same_counts (a : W.outcome) (b : W.outcome) =
  a.W.hops = b.W.hops && a.W.events = b.W.events && a.W.drops = b.W.drops
  && Int64.equal (Int64.bits_of_float a.W.equiv) (Int64.bits_of_float b.W.equiv)
  && a.W.fingerprint = b.W.fingerprint

let loop_s (o : W.outcome) ~setup_s =
  match o.W.setup_part_s with Some s -> o.W.wall_s -. s | None -> o.W.wall_s -. setup_s

(* ---------------- per-layer metrics from the traced run ---------------- *)

let per_layer_metrics ~(traced : W.outcome) ~(reference : W.outcome) ~calib
    ~untraced_loop_s ~setup_s ~baseline_wall_s ~gc ~gc_stat ~components =
  let cal_ns, cal_words = calib in
  let loop = loop_s traced ~setup_s in
  let loop_ns = loop *. 1e9 in
  let totals = Layers.stage_totals traced.W.tracers in
  (* per stage: calls, self ns and words per call (wrapper cost removed),
     drops; the estimated total is per-call time x calls *)
  let stage name =
    match Hashtbl.find_opt totals name with
    | None -> (0, 0., 0., 0)
    | Some s ->
      let per x =
        if s.Layers.s_sampled = 0 then 0. else float_of_int x /. float_of_int s.Layers.s_sampled
      in
      ( s.Layers.s_calls,
        Float.max 0. (per s.Layers.s_self_ns -. cal_ns),
        Float.max 0. (per s.Layers.s_self_words -. cal_words),
        s.Layers.s_drops )
  in
  let est name = let calls, ns, _, _ = stage name in float_of_int calls *. ns in
  let all_stages = Hashtbl.fold (fun name _ acc -> name :: acc) totals [] in
  let stage_ns = List.fold_left (fun acc n -> acc +. est n) 0. all_stages in
  let booster_ns =
    List.fold_left (fun acc n -> if n = "ttl" then acc else acc +. est n) 0. all_stages
  in
  let share x = if loop_ns <= 0. then 0. else x /. loop_ns in
  let stages =
    List.concat_map
      (fun s ->
        let calls, ns, words, drops = stage s in
        [ (Printf.sprintf "stage.%s.calls" s, float_of_int calls);
          (Printf.sprintf "stage.%s.ns_per_call" s, ns);
          (Printf.sprintf "stage.%s.words_per_call" s, words);
          (Printf.sprintf "stage.%s.share" s, share (est s));
          (Printf.sprintf "stage.%s.drop_frac" s,
           if calls = 0 then 0. else float_of_int drops /. float_of_int calls) ])
      Spec.stages
  in
  let gc_minor, gc_major = gc in
  let promoted, minor_words, major_collections = gc_stat in
  let parallel =
    if reference.W.shard_steps = [] then []
    else
      let steps = List.map float_of_int reference.W.shard_steps in
      let mean = List.fold_left ( +. ) 0. steps /. float_of_int (List.length steps) in
      let windows = reference.W.windows in
      [ ("parallel.baseline_wall_s", baseline_wall_s);
        ("parallel.windows", float_of_int windows);
        ("parallel.exchanged_per_window",
         float_of_int reference.W.exchanged /. float_of_int (max 1 windows));
        ("parallel.window_us", untraced_loop_s *. 1e6 /. float_of_int (max 1 windows));
        ("parallel.shard_imbalance", List.fold_left Float.max 0. steps /. mean) ]
  in
  let measured =
    traced.W.layer
    @ [ ("netsim.self_ns_per_equiv", (loop_ns -. stage_ns) /. Float.max 1. traced.W.equiv) ]
    @ stages
    @ [ ("boosters.share", share booster_ns) ]
    @ components @ parallel
    @ [ ("gc.minor_s", gc_minor); ("gc.major_s", gc_major);
        (* phase times are summed over domains *)
        ("gc.share",
         (gc_minor +. gc_major)
         /. (traced.W.wall_s *. float_of_int (max 1 (List.length reference.W.shard_steps))));
        ("gc.promoted_frac", if minor_words <= 0. then 0. else promoted /. minor_words);
        ("gc.major_collections", major_collections);
        ("trace.overhead_frac", (loop /. untraced_loop_s) -. 1.) ]
  in
  (* every declared metric, 0 where this workload has no such layer *)
  List.map
    (fun (name, _) -> (name, Option.value (List.assoc_opt name measured) ~default:0.))
    Spec.per_layer

(* ---------------- spans ---------------- *)

(* run -> {setup, loop} -> sampled stage calls, plus the component
   micro-timings, one JSON object per line. *)
let write_spans path ~workload ~(traced : W.outcome) ~setup_s ~components ~components_span =
  let lines = ref [] in
  let next = ref 0 in
  let span ?(extra = []) ~parent name start dur =
    incr next;
    let id = !next in
    lines :=
      Json.Obj
        ([ ("id", Json.Num (float_of_int id)); ("parent", Json.Num (float_of_int parent));
           ("name", Json.Str name); ("start_ns", Json.Num (float_of_int start));
           ("dur_ns", Json.Num (float_of_int dur)) ]
        @ extra)
      :: !lines;
    id
  in
  let ns s = int_of_float (s *. 1e9) in
  let start = traced.W.start_ns in
  let run =
    span ~parent:0 "run" start (ns traced.W.wall_s) ~extra:[ ("workload", Json.Str workload) ]
  in
  let setup_part = match traced.W.setup_part_s with Some s -> s | None -> setup_s in
  ignore (span ~parent:run "setup" start (ns setup_part));
  let loop = span ~parent:run "loop" (start + ns setup_part) (ns (traced.W.wall_s -. setup_part)) in
  List.iter
    (fun tr ->
      List.iter
        (fun (name, t0, dur) -> ignore (span ~parent:loop ("stage." ^ name) t0 dur))
        (Layers.stage_spans tr))
    traced.W.tracers;
  let c_start, c_dur = components_span in
  let comp = span ~parent:0 "components" c_start c_dur in
  List.iter
    (fun (name, v) -> ignore (span ~parent:comp name c_start 0 ~extra:[ ("value", Json.Num v) ]))
    components;
  (match Filename.dirname path with
  | "." | "" -> ()
  | dir -> if not (Sys.file_exists dir) then Sys.mkdir dir 0o755);
  let oc = open_out path in
  List.iter (fun j -> output_string oc (Json.to_string j); output_char oc '\n') (List.rev !lines);
  close_out oc

(* ---------------- the measurement ---------------- *)

let word_bytes = float_of_int (Sys.word_size / 8)

let run (cfg : config) =
  let inputs = W.inputs cfg.seed in
  let go = W.run cfg.workload in
  let attempted = ref 0 and failed = ref 0 and failures = ref [] in
  let check label (reference : W.outcome) (o : W.outcome) =
    incr attempted;
    let bad =
      List.filter_map (fun (name, ok) -> if ok then None else Some name) o.W.checks
      @ if same_counts reference o then [] else [ "simulated counts differ from the warm-up run" ]
    in
    if bad <> [] then begin
      incr failed;
      failures := Printf.sprintf "%s: %s" label (String.concat "; " bad) :: !failures
    end
  in
  let reference = go ~size:cfg.size ~kind:W.Plain inputs in
  check "warm-up" reference reference;
  (* the heap high-water mark of the first full run in a fresh process,
     so it does not depend on how many runs fit in the time budget *)
  let peak_heap_mb =
    float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1048576.
  in
  (* set-up, timed after the warm-up has grown the heap; sub-millisecond
     set-ups repeat until a quarter second has passed *)
  let set_up () =
    Gc.compact ();
    let o = go ~size:cfg.size ~kind:W.Setup_only inputs in
    Option.value o.W.setup_part_s ~default:o.W.wall_s
  in
  let setup_s =
    let t0 = Clock.now_ns () in
    let rec loop acc n =
      if n >= default_reps cfg.workload && (Clock.seconds_since t0 > 0.25 || n >= 200) then acc
      else loop (set_up () :: acc) (n + 1)
    in
    List.rev (loop [] 0)
  in
  let setup_med = Stats.median setup_s in
  (* each measured run with its loop time: host time after its set-up.
     A workload that cannot show where set-up ends gets a set-up-only run
     just before, so that the two drift with the host together *)
  let runs = ref [] in
  let t_start = Clock.now_ns () in
  let more () =
    match cfg.count with
    | Reps n -> List.length !runs < n
    | Seconds s -> List.length !runs < min_runs || Clock.seconds_since t_start < s
  in
  while more () do
    let setup_before = if reference.W.setup_part_s = None then set_up () else 0. in
    Gc.compact ();
    let o = go ~size:cfg.size ~kind:W.Plain inputs in
    check (Printf.sprintf "run %d" (List.length !runs + 1)) reference o;
    runs := (o, loop_s o ~setup_s:setup_before) :: !runs
  done;
  let runs, loops = List.split (List.rev !runs) in
  let untraced_loop_s = Stats.median loops in
  let baseline_walls = List.filter_map (fun o -> o.W.baseline_wall_s) runs in
  let per_layer =
    if not cfg.trace then []
    else begin
      let calib = Layers.calibrate () in
      Printf.printf "[trace] wrapper cost per timed call: %.1f ns, %.2f words\n" (fst calib)
        (snd calib);
      Gc.compact ();
      Layers.gc_begin ();
      let q0 = Gc.quick_stat () in
      let traced = go ~size:cfg.size ~kind:W.Traced inputs in
      let q1 = Gc.quick_stat () in
      let gc_minor, gc_major, lost = Layers.gc_end () in
      if lost > 0 then Printf.printf "[benchmark] warning: %d runtime events lost\n" lost;
      check "traced run" reference traced;
      let c0 = Clock.now_ns () in
      let components = Layers.components ~small:(cfg.size = W.Small) in
      let components_span = (c0, Clock.now_ns () - c0) in
      Option.iter
        (fun path ->
          write_spans path ~workload:cfg.workload ~traced ~setup_s:setup_med ~components
            ~components_span)
        cfg.spans;
      per_layer_metrics ~traced ~reference ~calib ~untraced_loop_s ~setup_s:setup_med
        ~baseline_wall_s:(Stats.median baseline_walls)
        ~gc:(gc_minor, gc_major)
        ~gc_stat:
          ( q1.Gc.promoted_words -. q0.Gc.promoted_words,
            q1.Gc.minor_words -. q0.Gc.minor_words,
            float_of_int (q1.Gc.major_collections - q0.Gc.major_collections) )
        ~components
    end
  in
  {
    workload = cfg.workload;
    seed = cfg.seed;
    setup_s;
    wall_s = List.map (fun o -> o.W.wall_s) runs;
    equiv_per_s = List.map2 (fun (o : W.outcome) loop -> o.W.equiv /. loop) runs loops;
    alloc_words_per_equiv =
      List.map (fun (o : W.outcome) -> o.W.alloc_words /. Float.max 1. o.W.equiv) runs;
    speedup_2shard =
      List.filter_map
        (fun (o : W.outcome) -> Option.map (fun b -> b /. o.W.wall_s) o.W.baseline_wall_s)
        runs;
    peak_heap_mb;
    sim = reference.W.sim;
    hops = reference.W.hops;
    events = reference.W.events;
    equiv = reference.W.equiv;
    attempted = !attempted;
    failed = !failed;
    failures = List.rev !failures;
    per_layer;
  }

(* ---------------- reporting ---------------- *)

(* Every end-to-end metric this workload defines, as run values. *)
let end_to_end_values r =
  List.filter_map
    (fun (m : Spec.metric) ->
      if not (Spec.applies m r.workload) then None
      else
        let values =
          match m.Spec.name with
          | "wall_s" -> r.wall_s
          | "setup_s" -> r.setup_s
          | "equiv_per_s" -> r.equiv_per_s
          | "alloc_words_per_equiv" -> r.alloc_words_per_equiv
          | "peak_heap_mb" -> [ r.peak_heap_mb ]
          | "speedup_2shard" -> r.speedup_2shard
          | "failed_frac" -> [ float_of_int r.failed /. float_of_int (max 1 r.attempted) ]
          | name -> Option.to_list (List.assoc_opt name r.sim)
        in
        if values = [] then None else Some (m, values))
    Spec.end_to_end

let print_report r =
  Printf.printf "\n== %s (seed %d): %d hops, %d events, %.0f packet-equivalents per run\n"
    r.workload r.seed r.hops r.events r.equiv;
  List.iter
    (fun ((m : Spec.metric), values) ->
      let q1, q3 = Stats.quartiles values in
      Printf.printf "  %-24s %14.6g %-6s [q1 %.6g, q3 %.6g] R=%d\n" m.Spec.name
        (Stats.median values) m.Spec.unit_ q1 q3 (List.length values))
    (end_to_end_values r);
  if r.per_layer <> [] then begin
    Printf.printf "  per layer (traced run):\n";
    List.iter
      (fun (name, unit_) ->
        Printf.printf "    %-36s %14.6g %s\n" name (List.assoc name r.per_layer) unit_)
      Spec.per_layer
  end;
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) r.failures;
  Printf.printf "%!"

let metric_json ~unit_ values =
  let q1, q3 = Stats.quartiles values in
  Json.Obj
    [ ("unit", Json.Str unit_); ("median", Json.Num (Stats.median values));
      ("q1", Json.Num q1); ("q3", Json.Num q3);
      ("runs", Json.Arr (List.map (fun v -> Json.Num v) values)) ]

(* The full record of one workload, as [run] stores it. *)
let to_json r =
  Json.Obj
    [ ("name", Json.Str r.workload); ("seed", Json.Num (float_of_int r.seed));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("failures", Json.Arr (List.map (fun s -> Json.Str s) r.failures));
      ("counts",
       Json.Obj
         [ ("hops", Json.Num (float_of_int r.hops)); ("events", Json.Num (float_of_int r.events));
           ("equiv", Json.Num r.equiv) ]);
      ("end_to_end",
       Json.Obj
         (List.map
            (fun ((m : Spec.metric), values) ->
              (m.Spec.name, metric_json ~unit_:m.Spec.unit_ values))
            (end_to_end_values r)));
      ("per_layer",
       Json.Obj
         (List.map
            (fun (name, unit_) ->
              (name, Json.Obj [ ("unit", Json.Str unit_);
                                ("value", Json.Num (List.assoc name r.per_layer)) ]))
            (if r.per_layer = [] then [] else Spec.per_layer))) ]

(* The one-line summary outside tooling reads: medians of the gated
   end-to-end metrics, or every per-layer metric when traced. *)
let summary_line r =
  let metrics =
    if r.per_layer <> [] then
      List.map
        (fun (name, unit_) ->
          (name, Json.Obj [ ("value", Json.Num (List.assoc name r.per_layer));
                            ("unit", Json.Str unit_) ]))
        Spec.per_layer
    else
      let values = end_to_end_values r in
      List.map
        (fun (m : Spec.metric) ->
          let v = List.assq m values in
          (m.Spec.name, Json.Obj [ ("value", Json.Num (Stats.median v));
                                   ("unit", Json.Str m.Spec.unit_) ]))
        Spec.gated_end_to_end
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool (r.failed = 0));
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed)); ("metrics", Json.Obj metrics) ])
