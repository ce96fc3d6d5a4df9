(** Stateful switch primitives: register arrays, counters, and token-bucket
    meters — the per-flow/per-destination state tables the paper lists among
    shareable PPM components. *)

(** Fixed-size array of floats indexed by a hash of a key, i.e. a P4
    register array accessed through a hash unit. *)
module Array_reg : sig
  type t

  val create : name:string -> slots:int -> unit -> t

  val get : t -> int -> float
  (** Read by key (hashed). *)

  val set : t -> int -> float -> unit
  val bump : t -> int -> float -> float
  (** Add to the slot and return the new value. *)

  val get_slot : t -> int -> float
  (** Read a raw slot (no hashing). *)

  val set_slot : t -> int -> float -> unit

  val reset : t -> unit
  val dump : t -> (string * float) list
  (** [name[i] -> value] for non-zero slots — what a state transfer ships. *)

  val load : t -> (string * float) list -> unit
  (** Inverse of [dump] for entries matching this register's name. *)
end

(** Token-bucket meter for rate limiting suspicious flows. *)
module Meter : sig
  type t

  val create : rate:float -> burst:float -> t
  (** [rate] in bytes/second, [burst] in bytes. *)

  val allow : t -> now:float -> bytes:float -> bool
  (** Consume tokens if available; [false] means the packet exceeds the
      configured rate and should be dropped/marked. *)
end
