type role = Parser | Detection | Mitigation | Forwarding | Telemetry | Deparser

let role_to_string = function
  | Parser -> "parser"
  | Detection -> "detection"
  | Mitigation -> "mitigation"
  | Forwarding -> "forwarding"
  | Telemetry -> "telemetry"
  | Deparser -> "deparser"

type binop = Add | Sub | Mul | Min | Max | Xor

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Const of float
  | Field of string
  | Meta of string
  | Reg_read of string * expr
  | Hash of string list
  | Binop of binop * expr * expr

type cond =
  | True
  | Cmp of cmp * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type stmt =
  | Set_meta of string * expr
  | Reg_write of string * expr * expr
  | Mark_suspicious of cond
  | Drop_when of cond
  | Emit_probe of string
  | Apply_table of string
  | If of cond * stmt list * stmt list

type spec = {
  name : string;
  booster : string;
  role : role;
  resources : Resource.t;
  body : stmt list;
}

let make_spec ~name ~booster ~role ~resources body = { name; booster; role; resources; body }

let rec expr_regs_read acc = function
  | Const _ | Field _ | Meta _ | Hash _ -> acc
  | Reg_read (r, idx) -> expr_regs_read (r :: acc) idx
  | Binop (_, a, b) -> expr_regs_read (expr_regs_read acc a) b

let rec cond_regs_read acc = function
  | True -> acc
  | Cmp (_, a, b) -> expr_regs_read (expr_regs_read acc a) b
  | And (a, b) | Or (a, b) -> cond_regs_read (cond_regs_read acc a) b
  | Not c -> cond_regs_read acc c

let rec stmt_fold ~on_expr ~on_cond ~on_stmt acc s =
  let acc = on_stmt acc s in
  match s with
  | Set_meta (_, e) -> on_expr acc e
  | Reg_write (_, idx, v) -> on_expr (on_expr acc idx) v
  | Mark_suspicious c | Drop_when c -> on_cond acc c
  | Emit_probe _ | Apply_table _ -> acc
  | If (c, yes, no) ->
    let acc = on_cond acc c in
    let acc = List.fold_left (stmt_fold ~on_expr ~on_cond ~on_stmt) acc yes in
    List.fold_left (stmt_fold ~on_expr ~on_cond ~on_stmt) acc no

let fold_body spec ~on_expr ~on_cond ~on_stmt init =
  List.fold_left (stmt_fold ~on_expr ~on_cond ~on_stmt) init spec.body

let dedup_sorted xs = List.sort_uniq compare xs

let registers_read spec =
  fold_body spec ~on_expr:expr_regs_read ~on_cond:cond_regs_read ~on_stmt:(fun acc _ -> acc) []
  |> dedup_sorted

let registers_written spec =
  fold_body spec
    ~on_expr:(fun acc _ -> acc)
    ~on_cond:(fun acc _ -> acc)
    ~on_stmt:(fun acc s -> match s with Reg_write (r, _, _) -> r :: acc | _ -> acc)
    []
  |> dedup_sorted

let state_shared a b =
  let inter xs ys = List.filter (fun x -> List.mem x ys) xs in
  dedup_sorted
    (inter (registers_written a) (registers_read b) @ inter (registers_written b) (registers_read a))

let body_size spec =
  fold_body spec
    ~on_expr:(fun acc _ -> acc)
    ~on_cond:(fun acc _ -> acc)
    ~on_stmt:(fun acc _ -> acc + 1)
    0
