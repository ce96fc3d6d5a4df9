(** The gate file: the bounds that gated experiments enforce on every run
    (allocation budgets, throughput and goodput floors, recorded
    baselines), one [<key>: <number>] per line. Blank lines and lines
    starting with [#] are comments.

    Parsing fails closed: a line without a colon, an empty key, a value
    that is not a finite number, a key outside the expected set, a key
    given twice and an expected key left out are all errors, so a typo
    cannot silently drop a gate. *)

type t

val parse : keys:string list -> string -> (t, string) result
(** [parse ~keys text] accepts exactly the keys in [keys], each once. The
    error names the offending line (1-based) or the missing key. *)

val find : t -> string -> float option
(** The value of a key; [None] for a key outside [keys]. *)
