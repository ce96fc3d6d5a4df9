open Ff_dataplane

(* Registers, hash uses, tables, and ALU-ish updates of one statement. *)
let rec expr_stats (regs, hashes, alus) = function
  | Ppm.Const _ | Ppm.Field _ | Ppm.Meta _ -> (regs, hashes, alus)
  | Ppm.Reg_read (r, idx) -> expr_stats (r :: regs, hashes, alus) idx
  | Ppm.Hash fields -> (regs, List.sort compare fields :: hashes, alus)
  | Ppm.Binop (_, a, b) -> expr_stats (expr_stats (regs, hashes, alus + 1) a) b

let rec cond_stats acc = function
  | Ppm.True -> acc
  | Ppm.Cmp (_, a, b) -> expr_stats (expr_stats acc a) b
  | Ppm.And (a, b) | Ppm.Or (a, b) -> cond_stats (cond_stats acc a) b
  | Ppm.Not c -> cond_stats acc c

let rec stmt_stats acc = function
  | Ppm.Set_meta (_, e) -> expr_stats acc e
  | Ppm.Reg_write (r, idx, v) ->
    let regs, hashes, alus = expr_stats (expr_stats acc idx) v in
    (r :: regs, hashes, alus + 1)
  | Ppm.Mark_suspicious c | Ppm.Drop_when c -> cond_stats acc c
  | Ppm.Emit_probe _ -> acc
  | Ppm.Apply_table _ -> acc
  | Ppm.If (c, yes, no) ->
    let acc = cond_stats acc c in
    let acc = List.fold_left stmt_stats acc yes in
    List.fold_left stmt_stats acc no

let rec stmt_tables acc = function
  | Ppm.Apply_table t -> t :: acc
  | Ppm.If (_, yes, no) ->
    let acc = List.fold_left stmt_tables acc yes in
    List.fold_left stmt_tables acc no
  | Ppm.Set_meta _ | Ppm.Reg_write _ | Ppm.Mark_suspicious _ | Ppm.Drop_when _
  | Ppm.Emit_probe _ -> acc

let rec stmt_count acc = function
  | Ppm.If (_, yes, no) ->
    let acc = List.fold_left stmt_count (acc + 1) yes in
    List.fold_left stmt_count acc no
  | Ppm.Set_meta _ | Ppm.Reg_write _ | Ppm.Mark_suspicious _ | Ppm.Drop_when _
  | Ppm.Emit_probe _ | Ppm.Apply_table _ -> acc + 1

let estimate_resources body =
  let regs, hashes, alus =
    List.fold_left stmt_stats ([], [], 0) body
  in
  let tables = List.fold_left stmt_tables [] body in
  let distinct xs = List.length (List.sort_uniq compare xs) in
  let stmts = List.fold_left stmt_count 0 body in
  Resource.make
    ~stages:(Float.max 1. (ceil (float_of_int stmts /. 3.)))
    ~sram_kb:(64. *. float_of_int (distinct regs))
    ~tcam:(64. *. float_of_int (distinct tables))
    ~alus:(float_of_int alus)
    ~hash_units:(float_of_int (distinct hashes))
    ()

let stmt_regs s =
  let regs, _, _ = stmt_stats ([], [], 0) s in
  List.sort_uniq compare regs

let rec stmt_drops = function
  | Ppm.Drop_when _ -> true
  | Ppm.If (_, yes, no) -> List.exists stmt_drops yes || List.exists stmt_drops no
  | Ppm.Set_meta _ | Ppm.Reg_write _ | Ppm.Mark_suspicious _ | Ppm.Emit_probe _
  | Ppm.Apply_table _ -> false

let rec stmt_touches_packet_state = function
  | Ppm.Reg_write _ -> true
  | Ppm.Mark_suspicious _ | Ppm.Drop_when _ | Ppm.Emit_probe _ | Ppm.Apply_table _ -> true
  | Ppm.Set_meta (_, e) ->
    let regs, _, _ = expr_stats ([], [], 0) e in
    regs <> []
  | Ppm.If (_, yes, no) ->
    List.exists stmt_touches_packet_state yes || List.exists stmt_touches_packet_state no

let intersects a b = List.exists (fun x -> List.mem x b) a

(* the soft size limit: a PPM this long closes unless the next statement
   shares its state *)
let max_stmts_per_ppm = 6

let decompose ~booster body =
  (* Walk the program, accumulating the current PPM; close it when the next
     statement shares no register with it (state-affinity boundary) or the
     soft size limit is reached with no coupling. *)
  let close acc cur =
    match cur with [] -> acc | stmts -> List.rev stmts :: acc
  in
  let rec walk acc cur cur_regs = function
    | [] -> List.rev (close acc cur)
    | s :: rest ->
      let regs = stmt_regs s in
      let coupled = cur = [] || intersects regs cur_regs in
      let full = List.length cur >= max_stmts_per_ppm in
      if coupled && not full then
        walk acc (s :: cur) (List.sort_uniq compare (regs @ cur_regs)) rest
      else walk (close acc cur) [ s ] regs rest
  in
  let groups = walk [] [] [] body in
  let role_of group =
    if List.exists stmt_drops group then Ppm.Mitigation
    else if List.for_all (fun s -> not (stmt_touches_packet_state s)) group then Ppm.Parser
    else Ppm.Detection
  in
  List.mapi
    (fun i group ->
      Ppm.make_spec
        ~name:(Printf.sprintf "%s-ppm%d" booster i)
        ~booster ~role:(role_of group) ~resources:(estimate_resources group) group)
    groups

let roundtrip specs = List.concat_map (fun s -> s.Ppm.body) specs
