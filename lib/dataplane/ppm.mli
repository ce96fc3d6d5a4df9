(** Packet processing modules (PPMs) — the unit FastFlex decomposes
    boosters into (paper section 3.1).

    A PPM has two faces. Its {e spec} is a small imperative IR over packet
    fields, metadata, and named register state; the program analyzer uses it
    for equivalence checking and sharing, the scheduler for resource
    packing, and the scaling engine to identify transferable state. Its
    runtime behaviour is executed by the simulator's switches (built in
    [Ff_boosters] as closures over real state objects). *)

type role = Parser | Detection | Mitigation | Forwarding | Telemetry | Deparser

val role_to_string : role -> string

type binop = Add | Sub | Mul | Min | Max | Xor

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type expr =
  | Const of float
  | Field of string  (** packet header field *)
  | Meta of string  (** per-packet metadata variable *)
  | Reg_read of string * expr  (** register name, index expression *)
  | Hash of string list  (** hash of header fields *)
  | Binop of binop * expr * expr

type cond =
  | True
  | Cmp of cmp * expr * expr
  | And of cond * cond
  | Or of cond * cond
  | Not of cond

type stmt =
  | Set_meta of string * expr
  | Reg_write of string * expr * expr  (** register, index, value *)
  | Mark_suspicious of cond
  | Drop_when of cond
  | Emit_probe of string  (** probe class emitted (mode/util/sync) *)
  | Apply_table of string  (** named match-action table lookup *)
  | If of cond * stmt list * stmt list

type spec = {
  name : string;
  booster : string;  (** owning booster (defense app) *)
  role : role;
  resources : Resource.t;
  body : stmt list;
}

val make_spec :
  name:string -> booster:string -> role:role -> resources:Resource.t -> stmt list -> spec

val registers_read : spec -> string list
(** Register names the body reads, deduplicated, sorted. *)

val registers_written : spec -> string list
(** Register names the body writes — the state a switch repurposing must
    transfer out (paper section 3.4). *)

val state_shared : spec -> spec -> string list
(** Registers written by one and read by the other (either direction):
    the dataflow-graph edge weight basis. *)

val body_size : spec -> int
(** Statement count (including nested), a complexity proxy. *)
