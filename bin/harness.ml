(* What every experiment shares: the gate file, the gate verdicts of one
   run, and the wrapper that runs a subcommand under one trace, one
   metrics registry and a profile line per experiment. *)

module Adaptive = Ff_attacks.Adaptive

(* ------------------------------------------------------------------ *)
(* Gates: bench/GATES, compiled in by bin/dune                         *)
(* ------------------------------------------------------------------ *)

let adversarial_strategies =
  [ Adaptive.Threshold_hug; Adaptive.Collision_probe; Adaptive.Epoch_time ]
let adversarial_seeds = [ 1; 2 ]

let baseline_key strategy seed =
  Printf.sprintf "adversarial.baseline.%s.%d" (Adaptive.strategy_name strategy) seed

let gate_keys =
  [ "perf.alloc-words-per-packet"; "shard.alloc-words-per-packet"; "fluid.alloc-words-per-equiv";
    "fluid.solver-alloc-words"; "shard.imbalance"; "fluid.equiv-per-s"; "fluid.touched-frac";
    "synflood.undefended-goodput"; "synflood.armed-goodput"; "adversarial.damage-gain";
    "adversarial.damage-residual"; "adversarial.wf-floor" ]
  @ List.concat_map (fun s -> List.map (baseline_key s) adversarial_seeds) adversarial_strategies

(* Checked as the program starts, before any subcommand simulates. *)
let gates =
  match Ff_util.Gates.parse ~keys:gate_keys Gates_text.text with
  | Ok g -> g
  | Error e ->
    Printf.eprintf "fastflex: bench/GATES: %s\n" e;
    exit 2

let find_gate key = Ff_util.Gates.find gates key
let gate key = Option.get (find_gate key)

(* The verdicts of one gated run: every check is made, a passing one may
   print its line, and [conclude] names every failure on stderr and exits
   1 if there was one. *)
type verdicts = { tag : string; mutable failures : string list }

let verdicts tag = { tag; failures = [] }

let check v ?pass ok failure =
  if ok then Option.iter (Printf.printf "[%s] %s\n" v.tag) pass
  else v.failures <- failure :: v.failures

let conclude ?all_hold v =
  match List.rev v.failures with
  | [] -> Option.iter (Printf.printf "[%s] %s\n" v.tag) all_hold
  | failures ->
    List.iter (Printf.eprintf "[%s] FAIL %s\n" v.tag) failures;
    exit 1

(* ------------------------------------------------------------------ *)
(* Observation: trace, metrics, profile                                *)
(* ------------------------------------------------------------------ *)

type obs = { trace : string option; kinds : string list option; metrics : string option }

(* Refuses what the run could not honour, before anything simulates: a
   --trace or --metrics file that cannot be written (the run would
   simulate in full, then die on the write), an unknown --trace-filter
   kind (the trace would be silently empty) and a --trace-filter with no
   --trace to filter. *)
let check_obs obs =
  let writable path =
    let dir = Filename.dirname path in
    let target = if Sys.file_exists path then path else dir in
    path <> "" && Sys.file_exists dir && Sys.is_directory dir
    && (not (Sys.file_exists path && Sys.is_directory path))
    && try Unix.access target [ Unix.W_OK ]; true with Unix.Unix_error _ -> false
  in
  let unwritable opt = function
    | Some path when not (writable path) -> [ Printf.sprintf "%s: cannot write %S" opt path ]
    | _ -> []
  in
  let filter =
    match (obs.kinds, obs.trace) with
    | None, _ -> []
    | Some _, None -> [ "--trace-filter needs --trace" ]
    | Some kinds, Some _ ->
      List.filter_map
        (fun k ->
          if List.mem k Ff_obs.Event.kinds then None
          else
            Some
              (Printf.sprintf "--trace-filter: unknown event kind %S (known: %s)" k
                 (String.concat ", " Ff_obs.Event.kinds)))
        kinds
  in
  match unwritable "--trace" obs.trace @ unwritable "--metrics" obs.metrics @ filter with
  | [] -> Ok obs
  | e :: _ -> Error e

(* Runs each [(name, run)] in turn with the trace and the metrics registry
   ambient, so the networks that scenarios build deep in the library
   report into them; prints a profile line after each, then writes the
   files the options ask for. *)
let observe obs experiments =
  let trace = Option.map (fun _ -> Ff_obs.Trace.create ()) obs.trace in
  Ff_obs.Trace.set_ambient trace;
  let metrics = Ff_obs.Metrics.create () in
  Ff_obs.Metrics.set_ambient (Some metrics);
  let trace_events () = Option.fold ~none:0 ~some:Ff_obs.Trace.count trace in
  List.iter
    (fun (name, run) ->
      let span =
        Ff_obs.Profile.start ~events:(Ff_netsim.Engine.total_steps ())
          ~trace_events:(trace_events ()) name
      in
      run ();
      let report =
        Ff_obs.Profile.finish span ~events:(Ff_netsim.Engine.total_steps ())
          ~trace_events:(trace_events ())
      in
      Format.printf "%a@." Ff_obs.Profile.pp_report report)
    experiments;
  (match (obs.trace, trace) with
  | Some file, Some tr ->
    Ff_obs.Trace.write ?kinds:obs.kinds tr file;
    Printf.printf "[trace] %d events (%d buffered, %d dropped) -> %s\n" (Ff_obs.Trace.count tr)
      (Ff_obs.Trace.length tr) (Ff_obs.Trace.dropped tr) file
  | _ -> ());
  Option.iter
    (fun file ->
      Ff_obs.Metrics.write_csv metrics ~now:infinity file;
      Printf.printf "[metrics] -> %s\n" file)
    obs.metrics
