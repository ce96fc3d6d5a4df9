(** SYN flood: bots open connections they never finish. Each packet is a
    64-byte SYN with a fresh flow id — the target is the victim's accept
    backlog, not its links, so the attack rate that kills a server is
    orders of magnitude below a volumetric flood. Spoofed sources make
    the bots unable to answer the SYN-ACK even by accident, pinning each
    half-open slot until the server times it out. *)

type t

val launch :
  Ff_netsim.Net.t ->
  bots:int list ->
  victim:int ->
  syn_rate_pps:float ->
  ?start:float ->
  ?spoof_as:int list ->
  unit ->
  t
(** Each bot emits SYNs at [syn_rate_pps] from [start] (default 0) for
    the rest of the run. With [spoof_as], claimed sources are drawn
    round-robin from the list and packets carry initial TTL 48; without
    it bots use their own address (and still never complete the
    handshake). *)

val syns_sent : t -> int
