open Ff_dataplane

type issue =
  | Uninitialized_meta of { ppm : string; meta : string }
  | Undeclared_table of { ppm : string; table : string }
  | Unreachable_after_drop of { ppm : string; stmts : int }
  | Under_provisioned of { ppm : string; need : Resource.t }
  | Probe_from_parser of { ppm : string }

let pp_issue fmt = function
  | Uninitialized_meta { ppm; meta } ->
    Format.fprintf fmt "%s: metadata %S read before any write" ppm meta
  | Undeclared_table { ppm; table } ->
    Format.fprintf fmt "%s: table %S applied but not declared" ppm table
  | Unreachable_after_drop { ppm; stmts } ->
    Format.fprintf fmt "%s: %d statement(s) unreachable after an unconditional drop" ppm stmts
  | Under_provisioned { ppm; need } ->
    Format.fprintf fmt "%s: declared resources below estimated footprint %a" ppm Resource.pp
      need
  | Probe_from_parser { ppm } ->
    Format.fprintf fmt "%s: parser/deparser emits probes" ppm

(* the match-action tables the shipped booster runtimes install, and the
   metadata each table's actions write *)
let declared_tables = [ "best_nexthop_table"; "virtual_topology"; "acl_policy" ]

let table_outputs =
  [ ("best_nexthop_table", []); ("virtual_topology", [ "vhop" ]); ("acl_policy", [ "acl_deny" ]) ]

(* Metas read by an expression/condition. *)
let rec expr_metas acc = function
  | Ppm.Const _ | Ppm.Field _ | Ppm.Hash _ -> acc
  | Ppm.Meta m -> m :: acc
  | Ppm.Reg_read (_, idx) -> expr_metas acc idx
  | Ppm.Binop (_, a, b) -> expr_metas (expr_metas acc a) b

let rec cond_metas acc = function
  | Ppm.True -> acc
  | Ppm.Cmp (_, a, b) -> expr_metas (expr_metas acc a) b
  | Ppm.And (a, b) | Ppm.Or (a, b) -> cond_metas (cond_metas acc a) b
  | Ppm.Not c -> cond_metas acc c

(* Walk one body tracking defined metas (flow-insensitive within branches:
   a meta set in either branch counts as defined afterwards — conservative
   for double-set, permissive for single-branch definitions, which is the
   usual compromise for a lint-level check). *)
let rec walk_stmt ppm defined issues = function
  | Ppm.Set_meta (m, e) ->
    let issues = read_check ppm defined issues (expr_metas [] e) in
    (m :: defined, issues)
  | Ppm.Reg_write (_, idx, v) ->
    (defined, read_check ppm defined issues (expr_metas (expr_metas [] idx) v))
  | Ppm.Mark_suspicious c | Ppm.Drop_when c ->
    (defined, read_check ppm defined issues (cond_metas [] c))
  | Ppm.Emit_probe _ -> (defined, issues)
  | Ppm.Apply_table t ->
    (* table actions may write the metadata declared for them *)
    let outs = try List.assoc t table_outputs with Not_found -> [] in
    (outs @ defined, issues)
  | Ppm.If (c, yes, no) ->
    let issues = read_check ppm defined issues (cond_metas [] c) in
    let d1, issues = walk_body ppm defined issues yes in
    let d2, issues = walk_body ppm defined issues no in
    (List.sort_uniq compare (d1 @ d2), issues)

and walk_body ppm defined issues body =
  List.fold_left (fun (d, i) s -> walk_stmt ppm d i s) (defined, issues) body

and read_check ppm defined issues metas =
  List.fold_left
    (fun issues m ->
      if List.mem m defined then issues
      else Uninitialized_meta { ppm; meta = m } :: issues)
    issues metas

let rec tables_of acc = function
  | Ppm.Apply_table t -> t :: acc
  | Ppm.If (_, yes, no) ->
    let acc = List.fold_left tables_of acc yes in
    List.fold_left tables_of acc no
  | Ppm.Set_meta _ | Ppm.Reg_write _ | Ppm.Mark_suspicious _ | Ppm.Drop_when _
  | Ppm.Emit_probe _ -> acc

let rec emits_probe = function
  | Ppm.Emit_probe _ -> true
  | Ppm.If (_, yes, no) -> List.exists emits_probe yes || List.exists emits_probe no
  | Ppm.Set_meta _ | Ppm.Reg_write _ | Ppm.Mark_suspicious _ | Ppm.Drop_when _
  | Ppm.Apply_table _ -> false

let unreachable_after_drop body =
  let rec scan = function
    | [] -> 0
    | Ppm.Drop_when Ppm.True :: rest -> List.length rest
    | _ :: rest -> scan rest
  in
  scan body

let resource_fits_estimate spec =
  let need = Decompose.estimate_resources spec.Ppm.body in
  (* only stages are directly comparable across the cost model and the
     hand-declared vectors; SRAM etc. are sized by table capacity choices *)
  (spec.Ppm.resources.Resource.stages >= need.Resource.stages, need)

let check_pipeline specs =
  let _, issues =
    List.fold_left
      (fun (defined, issues) spec ->
        let ppm = spec.Ppm.name in
        (* metadata initialization, threaded across the whole pipeline *)
        let defined, issues = walk_body ppm defined issues spec.Ppm.body in
        (* tables *)
        let issues =
          List.fold_left
            (fun issues table ->
              if List.mem table declared_tables then issues
              else Undeclared_table { ppm; table } :: issues)
            issues
            (List.sort_uniq compare (List.fold_left tables_of [] spec.Ppm.body))
        in
        (* dead code after drop *)
        let issues =
          match unreachable_after_drop spec.Ppm.body with
          | 0 -> issues
          | stmts -> Unreachable_after_drop { ppm; stmts } :: issues
        in
        (* resource sanity *)
        let fits, need = resource_fits_estimate spec in
        let issues = if fits then issues else Under_provisioned { ppm; need } :: issues in
        (* probes from parsers *)
        let issues =
          if
            (spec.Ppm.role = Ppm.Parser || spec.Ppm.role = Ppm.Deparser)
            && List.exists emits_probe spec.Ppm.body
          then Probe_from_parser { ppm } :: issues
          else issues
        in
        (defined, issues))
      ([], []) specs
  in
  List.rev issues
