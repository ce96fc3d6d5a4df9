(** Random loss injection — the failure model the FEC/retransmission
    machinery is evaluated against (and a general fault-injection tool for
    tests and the chaos harness). Installed as a switch stage so it drops
    packets the way a faulty link would. *)

type t

type class_filter = All | Control_only | Data_only | State_chunks_only | Mode_probes_only

type model =
  | Bernoulli  (** i.i.d. loss with probability [prob] *)
  | Gilbert_elliott of { p_gb : float; p_bg : float; good_loss : float; bad_loss : float }
      (** Two-state bursty loss: a Markov chain moves good→bad with
          [p_gb] and bad→good with [p_bg] (per matched packet), dropping
          with [good_loss] / [bad_loss] in the respective state. Bursts in
          the bad state are geometric with mean [1 /. p_bg]; the
          stationary loss rate is
          [(p_bg *. good_loss +. p_gb *. bad_loss) /. (p_gb +. p_bg)]. *)

val install :
  Ff_netsim.Net.t ->
  sw:int ->
  prob:float ->
  ?seed:int ->
  ?classes:class_filter ->
  ?model:model ->
  unit ->
  t
(** Drop arriving packets of the selected class. Under [Bernoulli] (the
    default) each is dropped with probability [prob]; under
    [Gilbert_elliott] the chain's parameters govern and [prob] is unused. *)

val dropped : t -> int
val seen : t -> int

val set_enabled : t -> bool -> unit
(** Gate the stage on/off without removing it — how the chaos harness
    windows a burst-loss episode. Disabled stages pass everything and
    count nothing. *)

val bursts : t -> int
(** Completed drop runs (consecutive dropped packets), counting a
    still-open run. *)

val mean_burst_len : t -> float
(** Average length of drop runs; 0 when none occurred. Under
    [Gilbert_elliott] with [bad_loss = 1.] and [good_loss = 0.] this
    estimates [1 /. p_bg]. *)
