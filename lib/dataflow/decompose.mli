(** Automatic decomposition of a monolithic switch program into PPMs
    (paper section 3.1, "Opportunity: Decomposition": "we can use a program
    analysis engine to decompose programs into smaller modules to enable a
    tighter packing").

    Statements are grouped by state affinity: statements touching the same
    registers belong together (splitting them would force the register's
    value to travel in packet headers), while statements with disjoint
    state can live in different PPMs on different switches. The partition
    preserves program order, so concatenating the produced PPM bodies
    yields the original program. *)

val estimate_resources : Ff_dataplane.Ppm.stmt list -> Ff_dataplane.Resource.t
(** Resource footprint of a statement list under the PISA cost model:
    one stage per 3 statements (min 1), 64 KB SRAM per distinct register,
    one ALU per arithmetic register update, one hash unit per distinct
    hash computation, 64 TCAM entries per table application. *)

val decompose :
  booster:string ->
  Ff_dataplane.Ppm.stmt list ->
  Ff_dataplane.Ppm.spec list
(** Partition a flat program into PPM specs named [<booster>-ppm<i>].
    Adjacent statements sharing register state always land in the same
    PPM; a PPM is closed when the next statement shares no state with it
    or when it reaches 6 statements without state coupling to the next.
    The first PPM is a [Parser]-role module if it only reads fields into
    metadata; mitigation-looking statements (drops) give their PPM the
    [Mitigation] role, otherwise [Detection]. *)

val roundtrip : Ff_dataplane.Ppm.spec list -> Ff_dataplane.Ppm.stmt list
(** Concatenated bodies, for checking order preservation. *)
