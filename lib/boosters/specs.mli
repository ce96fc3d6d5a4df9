(** PPM decompositions of the shipped boosters — the analysis-side face
    used by the program analyzer (sharing/equivalence), the scheduler
    (resource packing), and the scaling engine (transferable state). The
    resource vectors are plausible Tofino-class figures in the style of the
    module table of paper Figure 1.

    Boosters deliberately implement some functions with different register
    and metadata names but identical structure (e.g. the count-min update
    of the heavy hitter vs. the global rate limiter, and the common
    parser): the equivalence checker must discover the sharing, not string
    equality. *)

val booster_names : string list
(** ["lfa-detector"; "reroute"; "obfuscator"; "dropper"; "heavy-hitter";
    "global-rate-limit"; "hop-count-filter"; "access-control"] *)

val specs_of : string -> Ff_dataplane.Ppm.spec list
(** PPMs of one booster in pipeline order. Raises [Not_found] for an
    unknown name. *)

val all : unit -> (string * Ff_dataplane.Ppm.spec list) list
