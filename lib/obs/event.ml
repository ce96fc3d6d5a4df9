type transfer_phase =
  | Xfer_start
  | Xfer_retransmit
  | Xfer_complete
  | Xfer_failed

type t =
  | Mode_transition of { sw : int; attack : string; activated : bool }
  | Reroute of { sw : int; dst : int; next_hop : int }
  | State_transfer of {
      xfer_id : int;
      src : int;
      dst : int;
      phase : transfer_phase;
      chunks : int;
    }
  | Fec_recovery of { xfer_id : int; group : int }
  | Drop of { node : int; reason : string }
  | Probe of { sw : int; kind : string }
  | Fault of { kind : string; a : int; b : int; up : bool }
  | Repair of { subsystem : string; node : int; info : string }
  | Fluid_rates of { flows : int; classes : int; total_bps : float }
  | Fluid_tier of { node : int; flows : int; demoted : bool }

let phase_label = function
  | Xfer_start -> "start"
  | Xfer_retransmit -> "retransmit"
  | Xfer_complete -> "complete"
  | Xfer_failed -> "failed"

let kind = function
  | Mode_transition _ -> "mode_transition"
  | Reroute _ -> "reroute"
  | State_transfer _ -> "state_transfer"
  | Fec_recovery _ -> "fec_recovery"
  | Drop _ -> "drop"
  | Probe _ -> "probe"
  | Fault _ -> "fault"
  | Repair _ -> "repair"
  | Fluid_rates _ -> "fluid_rates"
  | Fluid_tier _ -> "fluid_tier"

(* [next] matches every constructor: an event added to [t] cannot be left
   out of [kinds]. *)
let kinds =
  let next = function
    | None -> Some (Mode_transition { sw = 0; attack = ""; activated = false })
    | Some (Mode_transition _) -> Some (Reroute { sw = 0; dst = 0; next_hop = 0 })
    | Some (Reroute _) ->
      Some (State_transfer { xfer_id = 0; src = 0; dst = 0; phase = Xfer_start; chunks = 0 })
    | Some (State_transfer _) -> Some (Fec_recovery { xfer_id = 0; group = 0 })
    | Some (Fec_recovery _) -> Some (Drop { node = 0; reason = "" })
    | Some (Drop _) -> Some (Probe { sw = 0; kind = "" })
    | Some (Probe _) -> Some (Fault { kind = ""; a = 0; b = 0; up = false })
    | Some (Fault _) -> Some (Repair { subsystem = ""; node = 0; info = "" })
    | Some (Repair _) -> Some (Fluid_rates { flows = 0; classes = 0; total_bps = 0. })
    | Some (Fluid_rates _) -> Some (Fluid_tier { node = 0; flows = 0; demoted = false })
    | Some (Fluid_tier _) -> None
  in
  List.of_seq (Seq.unfold (fun e -> Option.map (fun e -> (kind e, Some e)) (next e)) None)

let node = function
  | Mode_transition { sw; _ } | Reroute { sw; _ } | Probe { sw; _ } -> sw
  | State_transfer { src; _ } -> src
  | Fec_recovery _ | Fluid_rates _ -> -1
  | Drop { node; _ } -> node
  | Fault { a; _ } -> a
  | Repair { node; _ } | Fluid_tier { node; _ } -> node

(* minimal JSON rendering: values are pre-rendered strings *)
let jstr s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let jint i = string_of_int i
let jbool b = if b then "true" else "false"

let json_fields = function
  | Mode_transition { sw; attack; activated } ->
    [ ("sw", jint sw); ("attack", jstr attack); ("activated", jbool activated) ]
  | Reroute { sw; dst; next_hop } ->
    [ ("sw", jint sw); ("dst", jint dst); ("next_hop", jint next_hop) ]
  | State_transfer { xfer_id; src; dst; phase; chunks } ->
    [ ("xfer_id", jint xfer_id); ("src", jint src); ("dst", jint dst);
      ("phase", jstr (phase_label phase)); ("chunks", jint chunks) ]
  | Fec_recovery { xfer_id; group } -> [ ("xfer_id", jint xfer_id); ("group", jint group) ]
  | Drop { node; reason } -> [ ("node", jint node); ("reason", jstr reason) ]
  | Probe { sw; kind } -> [ ("sw", jint sw); ("kind", jstr kind) ]
  | Fault { kind; a; b; up } ->
    [ ("kind", jstr kind); ("a", jint a); ("b", jint b); ("up", jbool up) ]
  | Repair { subsystem; node; info } ->
    [ ("subsystem", jstr subsystem); ("node", jint node); ("info", jstr info) ]
  | Fluid_rates { flows; classes; total_bps } ->
    [ ("flows", jint flows); ("classes", jint classes);
      ("total_bps", Printf.sprintf "%.1f" total_bps) ]
  | Fluid_tier { node; flows; demoted } ->
    [ ("node", jint node); ("flows", jint flows); ("demoted", jbool demoted) ]

let detail ev =
  String.concat " "
    (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) (json_fields ev))
