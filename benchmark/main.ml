(* The FastFlex simulator benchmark.

     main.exe --workload W [--seed N] [--seconds S | --reps R] [--trace 0|1]
              [--record FILE]
       one workload in this process; prints every metric, then one JSON
       summary line (gated end-to-end medians, or per-layer metrics when
       traced, whose spans go to benchmark/out/spans-W.jsonl)
     main.exe run [--seed N] [--out FILE] [--trace]
       every workload, one child process each, R measured runs after a
       warm-up; writes the result JSON, exits 1 when an output check failed
     main.exe compare A.json B.json
       per workload and end-to-end metric: both medians and quartiles, and
       whether B is better, worse, unchanged or unresolved against A *)

open Ff_benchmark

let usage () =
  prerr_endline
    "usage: main.exe --workload W [--seed N] [--seconds S | --reps R] [--trace 0|1] \
     [--record FILE]\n\
    \       main.exe run [--seed N] [--out FILE] [--trace]\n\
    \       main.exe compare A.json B.json";
  exit 2

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("main.exe: " ^ s); exit 2) fmt

let int_arg flag v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ -> die "%s expects a whole number, got %S" flag v

(* ---------------- one workload ---------------- *)

let workload_mode args =
  let workload = ref None and seed = ref 1 and count = ref None and trace = ref false in
  let record = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := int_arg "--seed" n; parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
      | Some x when x > 0. -> count := Some (Measure.Seconds x)
      | _ -> die "--seconds expects a positive number, got %S" s);
      parse rest
    | "--reps" :: n :: rest -> count := Some (Measure.Reps (max 1 (int_arg "--reps" n))); parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := t = "1"; parse rest
    | "--record" :: f :: rest -> record := Some f; parse rest
    | a :: _ -> die "unexpected argument %S" a
  in
  parse args;
  let workload =
    match !workload with
    | Some w when List.mem w Spec.workload_names -> w
    | Some w -> die "unknown workload %S (one of: %s)" w (String.concat ", " Spec.workload_names)
    | None -> usage ()
  in
  let count = Option.value !count ~default:(Measure.Reps (Measure.default_reps workload)) in
  let spans =
    if !trace then Some (Printf.sprintf "benchmark/out/spans-%s.jsonl" workload) else None
  in
  let r =
    Measure.run
      { Measure.workload; seed = !seed; size = Workloads.Full; count; trace = !trace; spans }
  in
  Measure.print_report r;
  Option.iter (fun f -> Json.write_file f (Measure.to_json r)) !record;
  print_endline (Measure.summary_line r)

(* ---------------- run: every workload ---------------- *)

(* Reads to end of file: /proc files report a length of 0. *)
let read_text path = In_channel.with_open_bin path In_channel.input_all

let command_output prog args =
  try
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    ignore (Unix.close_process_in ic);
    line
  with Unix.Unix_error _ -> None

(* The commit, read from .git in the working directory without running
   git, so a plain source tree reports "unknown". *)
let git_head () =
  try
    let head = String.trim (read_text ".git/HEAD") in
    let prefix = "ref: " in
    if String.length head > 5 && String.sub head 0 5 = prefix then begin
      let ref_ = String.sub head 5 (String.length head - 5) in
      let loose = Filename.concat ".git" ref_ in
      if Sys.file_exists loose then String.trim (read_text loose)
      else
        String.split_on_char '\n' (read_text ".git/packed-refs")
        |> List.find_map (fun line ->
               match String.split_on_char ' ' line with
               | [ sha; r ] when r = ref_ -> Some sha
               | _ -> None)
        |> Option.value ~default:"unknown"
    end
    else head
  with Sys_error _ -> "unknown"

let cpu_model () =
  try
    String.split_on_char '\n' (read_text "/proc/cpuinfo")
    |> List.find_map (fun line ->
           match String.index_opt line ':' with
           | Some i when String.trim (String.sub line 0 i) = "model name" ->
             Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
           | _ -> None)
    |> Option.value ~default:"unknown"
  with Sys_error _ -> "unknown"

let fingerprint ~seed =
  Json.Obj
    [ ("nproc", Json.Str (Option.value (command_output "nproc" []) ~default:"unknown"));
      ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version); ("cpu", Json.Str (cpu_model ()));
      ("commit", Json.Str (git_head ())); ("seed", Json.Num (float_of_int seed));
      ("reps",
       Json.Obj
         (List.map
            (fun w -> (w, Json.Num (float_of_int (Measure.default_reps w))))
            Spec.workload_names)) ]

let run_mode args =
  let seed = ref 1 and out = ref "benchmark/out/result.json" and trace = ref false in
  let rec parse = function
    | [] -> ()
    | "--seed" :: n :: rest -> seed := int_arg "--seed" n; parse rest
    | "--out" :: f :: rest -> out := f; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | a :: _ -> die "unexpected argument %S" a
  in
  parse args;
  let out_dir = Filename.dirname !out in
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let t0 = Unix.gettimeofday () in
  let records =
    List.map
      (fun workload ->
        let record = Filename.concat out_dir (Printf.sprintf ".record-%s.json" workload) in
        let argv =
          [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int !seed;
             "--reps"; string_of_int (Measure.default_reps workload);
             "--trace"; (if !trace then "1" else "0"); "--record"; record |]
        in
        let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
        let _, status = Unix.waitpid [] pid in
        let json =
          match status with
          | Unix.WEXITED 0 -> Some (Json.read_file record)
          | _ -> None
        in
        (try Sys.remove record with Sys_error _ -> ());
        (workload, json))
      Spec.workload_names
  in
  let wall = Unix.gettimeofday () -. t0 in
  let failed =
    List.fold_left
      (fun acc (w, json) ->
        match json with
        | None ->
          Printf.printf "[benchmark] %s: child process failed\n" w;
          acc + 1
        | Some j -> acc + int_of_float (Json.to_num (Option.get (Json.member "failed" j))))
      0 records
  in
  let result =
    Json.Obj
      [ ("schema", Json.Str "fastflex-benchmark/1"); ("fingerprint", fingerprint ~seed:!seed);
        ("wall_s", Json.Num wall);
        ("workloads", Json.Arr (List.filter_map snd records)) ]
  in
  Json.write_file !out result;
  Printf.printf "\n[benchmark] %d workloads in %.1f s, %d failed runs; wrote %s\n"
    (List.length records) wall failed !out;
  if failed > 0 then exit 1

(* ---------------- compare ---------------- *)

(* workload name -> end-to-end metric name -> run values *)
let load_result path =
  let field k o =
    match Json.member k o with Some v -> v | None -> raise (Json.Parse_error ("no field " ^ k))
  in
  try
    List.map
      (fun w ->
        let metrics =
          match field "end_to_end" w with
          | Json.Obj kvs ->
            List.map (fun (k, m) -> (k, List.map Json.to_num (Json.to_list (field "runs" m)))) kvs
          | _ -> raise (Json.Parse_error "end_to_end is not an object")
        in
        (Json.to_str (field "name" w), metrics))
      (Json.to_list (field "workloads" (Json.read_file path)))
  with
  | Sys_error e -> die "%s" e
  | Json.Parse_error e -> die "%s: %s" path e

let compare_mode a_path b_path =
  let a = load_result a_path and b = load_result b_path in
  Printf.printf "%-17s %-22s %28s %28s  %s\n" "workload" "metric" "A median [q1, q3]"
    "B median [q1, q3]" "verdict";
  let show rs =
    let q1, q3 = Stats.quartiles rs in
    Printf.sprintf "%.5g [%.5g, %.5g]" (Stats.median rs) q1 q3
  in
  let verdicts =
    List.concat_map
      (fun (workload, ma) ->
        match List.assoc_opt workload b with
        | None ->
          Printf.printf "%-17s (missing from %s)\n" workload b_path;
          []
        | Some mb ->
          List.filter_map
            (fun (m : Spec.metric) ->
              match (List.assoc_opt m.Spec.name ma, List.assoc_opt m.Spec.name mb) with
              | Some ra, Some rb ->
                let v = Stats.compare_runs ~better:m.Spec.better ~bound:m.Spec.bound ra rb in
                Printf.printf "%-17s %-22s %28s %28s  %s\n" workload m.Spec.name (show ra)
                  (show rb) (Stats.verdict_to_string v);
                Some v
              | _ -> None)
            Spec.end_to_end)
      a
  in
  Printf.printf "\n%s\n"
    (String.concat ", "
       (List.map
          (fun v ->
            Printf.sprintf "%d %s"
              (List.length (List.filter (( = ) v) verdicts))
              (Stats.verdict_to_string v))
          Stats.[ Better; Worse; Unchanged; Unresolved ]))

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run_mode rest
  | [ "compare"; a; b ] -> compare_mode a b
  | "compare" :: _ -> usage ()
  | [] -> usage ()
  | args -> workload_mode args
