module Packet = Ff_dataplane.Packet

(* Per-net allocation (see [Net.fresh_flow_id]): a process-wide counter
   would make flow ids — and every hash keyed on them — depend on how
   many flows earlier simulations in the same process created. *)
let fresh_flow_id net = Net.fresh_flow_id net

module Tcp = struct
  (* All-float record: flat layout, so the per-ack congestion-control and
     RTT-estimator stores stay unboxed (a mixed record boxes every float
     field write). *)
  type cc = {
    mutable cwnd : float;
    mutable ssthresh : float;
    mutable srtt : float;
    mutable rttvar : float;
    mutable last_cut : float; (* last multiplicative decrease, for once-per-RTT *)
    mutable delivered : float; (* receiver-side bytes *)
  }

  type t = {
    net : Net.t;
    flow : int;
    src : int;
    dst : int;
    packet_size : int;
    max_cwnd : float;
    stop : float option;
    cc : cc;
    mutable next_seq : int;
    (* The outstanding window as parallel slots ([o_seqs.(i) = -1] free):
       in-flight count is bounded by the cwnd cap, so a linear scan over
       the slots beats a Hashtbl probe whose float values would box on
       every insert — this runs once per data packet sent and acked. *)
    mutable o_seqs : int array;
    mutable o_sent : float array; (* send time, by slot *)
    mutable o_dead : float array; (* current retransmit deadline, by slot *)
    mutable o_live : int;
    (* FIFO retransmit queue as an int ring: the list version re-appended
       with [@], O(n) conses per timeout *)
    mutable retx : int array;
    mutable retx_head : int;
    mutable retx_len : int;
    mutable sent_packets : int;
    mutable retransmissions : int;
    mutable running : bool;
    (* receiver side: seqs are dense from 0, so delivery dedup is a bitset
       rather than a Hashtbl that conses per received packet *)
    mutable received : Bytes.t;
    rx_window : Ff_util.Stats.Window_counter.t;
  }

  let flow_id t = t.flow
  let delivered_bytes t = t.cc.delivered
  let sent_packets t = t.sent_packets
  let retransmissions t = t.retransmissions
  let cwnd t = t.cc.cwnd
  let srtt t = t.cc.srtt

  let goodput t ~now = Ff_util.Stats.Window_counter.rate t.rx_window ~now

  let rto t =
    if t.cc.srtt = 0. then 0.2
    else Float.min 1.0 (Float.max 0.05 (t.cc.srtt +. (4. *. t.cc.rttvar)))

  let update_rtt t sample =
    let cc = t.cc in
    if cc.srtt = 0. then begin
      cc.srtt <- sample;
      cc.rttvar <- sample /. 2.
    end
    else begin
      cc.rttvar <- (0.75 *. cc.rttvar) +. (0.25 *. Float.abs (cc.srtt -. sample));
      cc.srtt <- (0.875 *. cc.srtt) +. (0.125 *. sample)
    end

  let stopped t now = match t.stop with Some s -> now >= s | None -> false

  (* ---- outstanding-window slots ---- *)

  let slot_of_seq t seq =
    let a = t.o_seqs in
    let n = Array.length a in
    let rec go i = if i >= n then -1 else if Array.unsafe_get a i = seq then i else go (i + 1) in
    go 0

  let free_slot t =
    let i = slot_of_seq t (-1) in
    if i >= 0 then i
    else begin
      let cap = Array.length t.o_seqs in
      let ncap = max 64 (2 * cap) in
      let ns = Array.make ncap (-1) in
      Array.blit t.o_seqs 0 ns 0 cap;
      let grow_f a =
        let n = Array.make ncap 0. in
        Array.blit a 0 n 0 cap;
        n
      in
      t.o_sent <- grow_f t.o_sent;
      t.o_dead <- grow_f t.o_dead;
      t.o_seqs <- ns;
      cap
    end

  (* ---- retransmit ring ---- *)

  let retx_push t seq =
    let cap = Array.length t.retx in
    if t.retx_len = cap then begin
      let ncap = max 16 (2 * cap) in
      let nr = Array.make ncap 0 in
      for k = 0 to t.retx_len - 1 do
        nr.(k) <- t.retx.((t.retx_head + k) mod cap)
      done;
      t.retx <- nr;
      t.retx_head <- 0
    end;
    t.retx.((t.retx_head + t.retx_len) mod Array.length t.retx) <- seq;
    t.retx_len <- t.retx_len + 1

  let retx_pop t =
    let s = t.retx.(t.retx_head) in
    t.retx_head <- (t.retx_head + 1) mod Array.length t.retx;
    t.retx_len <- t.retx_len - 1;
    s

  let rec try_send t =
    let now = Net.now t.net in
    if t.running && not (stopped t now) then begin
      if float_of_int t.o_live < t.cc.cwnd then begin
        let seq, is_retx =
          if t.retx_len > 0 then (retx_pop t, true)
          else begin
            let s = t.next_seq in
            t.next_seq <- s + 1;
            (s, false)
          end
        in
        let pkt =
          Packet.make_data ~size:t.packet_size ~seq ~ttl:64 ~src:t.src ~dst:t.dst ~flow:t.flow
        in
        let slot = free_slot t in
        t.o_seqs.(slot) <- seq;
        t.o_sent.(slot) <- now;
        t.o_live <- t.o_live + 1;
        t.sent_packets <- t.sent_packets + 1;
        if is_retx then t.retransmissions <- t.retransmissions + 1;
        Net.send_from_host t.net pkt;
        let deadline = now +. rto t in
        t.o_dead.(slot) <- deadline;
        Engine.schedule (Net.engine t.net) ~at:deadline (fun () -> on_timeout t seq);
        try_send t
      end
    end

  and on_timeout t seq =
    let slot = slot_of_seq t seq in
    if slot >= 0 then begin
      let deadline = t.o_dead.(slot) in
      let now = Net.now t.net in
      if now >= deadline -. 1e-9 then begin
        (* unacked past its deadline: treat as loss *)
        t.o_seqs.(slot) <- -1;
        t.o_live <- t.o_live - 1;
        retx_push t seq;
        let cc = t.cc in
        if now -. cc.last_cut > Float.max cc.srtt 0.05 then begin
          cc.ssthresh <- Float.max 2. (cc.cwnd /. 2.);
          cc.cwnd <- Float.max 1. (cc.cwnd /. 2.);
          cc.last_cut <- now
        end;
        try_send t
      end
      else
        (* the deadline moved (retransmission with a fresher RTO): re-arm *)
        Engine.schedule (Net.engine t.net) ~at:deadline (fun () -> on_timeout t seq)
    end

  let on_ack t seq =
    let slot = slot_of_seq t seq in
    if slot >= 0 (* else duplicate or late ack *) then begin
      let sent_at = t.o_sent.(slot) in
      t.o_seqs.(slot) <- -1;
      t.o_live <- t.o_live - 1;
      let now = Net.now t.net in
      update_rtt t (now -. sent_at);
      let cc = t.cc in
      if cc.cwnd < cc.ssthresh then cc.cwnd <- cc.cwnd +. 1. (* slow start *)
      else cc.cwnd <- cc.cwnd +. (1. /. cc.cwnd);
      cc.cwnd <- Float.min t.max_cwnd cc.cwnd;
      try_send t
    end

  let seq_received t seq = (Char.code (Bytes.get t.received (seq lsr 3)) lsr (seq land 7)) land 1 = 1

  let mark_received t seq =
    if seq lsr 3 >= Bytes.length t.received then begin
      let nlen = max (2 * Bytes.length t.received) ((seq lsr 3) + 1) in
      let nb = Bytes.make nlen '\000' in
      Bytes.blit t.received 0 nb 0 (Bytes.length t.received);
      t.received <- nb
    end;
    let b = seq lsr 3 in
    Bytes.set t.received b (Char.chr (Char.code (Bytes.get t.received b) lor (1 lsl (seq land 7))))

  let on_data t (pkt : Packet.t) =
    let now = Net.now t.net in
    if pkt.seq lsr 3 >= Bytes.length t.received || not (seq_received t pkt.seq) then begin
      mark_received t pkt.seq;
      t.cc.delivered <- t.cc.delivered +. float_of_int pkt.size;
      Ff_util.Stats.Window_counter.add t.rx_window ~now (float_of_int pkt.size)
    end;
    let ack = Packet.make_ack ~acked:pkt.seq ~src:t.dst ~dst:t.src ~flow:t.flow in
    Net.send_from_host t.net ack

  (* congestion window at start, packets *)
  let initial_cwnd = 2.

  let start net ~src ~dst ?at ?stop ?(packet_size = 1000) ?(max_cwnd = 64.) () =
    let at = match at with Some a -> a | None -> Net.now net in
    let t =
      {
        net;
        flow = fresh_flow_id net;
        src;
        dst;
        packet_size;
        max_cwnd;
        stop;
        cc =
          { cwnd = initial_cwnd; ssthresh = 32.; srtt = 0.; rttvar = 0.; last_cut = -1.;
            delivered = 0. };
        next_seq = 0;
        o_seqs = Array.make 64 (-1);
        o_sent = Array.make 64 0.;
        o_dead = Array.make 64 0.;
        o_live = 0;
        retx = Array.make 16 0;
        retx_head = 0;
        retx_len = 0;
        sent_packets = 0;
        retransmissions = 0;
        running = true;
        received = Bytes.make 256 '\000';
        rx_window = Ff_util.Stats.Window_counter.create ~width:1.0;
      }
    in
    (* receiver at dst handles data; sender at src handles acks *)
    Hashtbl.replace (Net.host net dst).Net.receivers t.flow (fun pkt -> on_data t pkt);
    Hashtbl.replace (Net.host net src).Net.receivers t.flow (fun pkt ->
        match pkt.Packet.payload with
        | Packet.Ack { acked } -> on_ack t acked
        | _ -> ());
    Engine.schedule (Net.engine net) ~at (fun () -> try_send t);
    t

  let pause t = t.running <- false

  let resume t ~now =
    ignore now;
    if not t.running then begin
      t.running <- true;
      try_send t
    end
end

module Listener = struct
  (* Server-side accept state: the resource a SYN flood actually exhausts.
     Each SYN that reaches the host occupies one half-open slot until the
     peer's handshake ack arrives or the slot times out — the accept
     backlog is capped, so a flood starves legitimate handshakes at the
     server even when every link has headroom. *)
  type t = {
    net : Net.t;
    host : int;
    backlog : int;
    syn_timeout : float;
    half_open : (int, float) Hashtbl.t;  (* flow id -> SYN arrival time *)
    established_rx : (int, unit) Hashtbl.t;
    mutable trust_validated : bool;
    mutable established : int;
    mutable backlog_drops : int;
    mutable timeouts : int;
    mutable data_bytes : float;
    mutable peak_half_open : int;
  }

  let half_open_count t = Hashtbl.length t.half_open
  let established t = t.established
  let backlog_drops t = t.backlog_drops
  let timeouts t = t.timeouts
  let peak_occupancy t = float_of_int t.peak_half_open /. float_of_int t.backlog
  let occupancy t = float_of_int (half_open_count t) /. float_of_int t.backlog

  (* The server-side split-proxy agent flips this: when the edge switch
     validates cookies, a handshake ack arriving without a half-open entry
     is accepted on the edge's word instead of being dropped as stray. *)
  let set_trust_validated t v = t.trust_validated <- v

  let reply t (pkt : Packet.t) payload =
    Net.send_from_host t.net
      (Packet.make_control ~payload ~src:t.host ~dst:pkt.Packet.src ~flow:pkt.Packet.flow)

  let expire t flow =
    match Hashtbl.find_opt t.half_open flow with
    | Some opened when Net.now t.net >= opened +. t.syn_timeout -. 1e-9 ->
      Hashtbl.remove t.half_open flow;
      t.timeouts <- t.timeouts + 1
    | _ -> ()

  let on_syn t (pkt : Packet.t) =
    let flow = pkt.Packet.flow in
    if Hashtbl.mem t.half_open flow then
      (* duplicate/retried SYN of a connection we already hold: re-reply
         without consuming another slot *)
      reply t pkt (Packet.Syn_ack { cookie = 0 })
    else if Hashtbl.length t.half_open >= t.backlog then begin
      t.backlog_drops <- t.backlog_drops + 1;
      Net.count_drop t.net "backlog-full"
    end
    else begin
      Hashtbl.replace t.half_open flow (Net.now t.net);
      let occ = Hashtbl.length t.half_open in
      if occ > t.peak_half_open then t.peak_half_open <- occ;
      Engine.after (Net.engine t.net) ~delay:t.syn_timeout (fun () -> expire t flow);
      reply t pkt (Packet.Syn_ack { cookie = 0 })
    end

  let establish t flow =
    Hashtbl.replace t.established_rx flow ();
    t.established <- t.established + 1

  let on_handshake_ack t (pkt : Packet.t) cookie =
    let flow = pkt.Packet.flow in
    if Hashtbl.mem t.half_open flow then begin
      Hashtbl.remove t.half_open flow;
      establish t flow
    end
    else if t.trust_validated && cookie <> 0 && not (Hashtbl.mem t.established_rx flow) then
      (* split proxy: the edge switch completed the cookie handshake and
         forwarded only the validated ack — no half-open entry ever
         existed here *)
      establish t flow
  (* else: stray ack (or duplicate) — ignore *)

  let rx t (pkt : Packet.t) =
    match pkt.Packet.payload with
    | Packet.Syn -> on_syn t pkt
    | Packet.Handshake_ack { cookie } -> on_handshake_ack t pkt cookie
    | Packet.Data ->
      if Hashtbl.mem t.established_rx pkt.Packet.flow then
        t.data_bytes <- t.data_bytes +. float_of_int pkt.Packet.size
    | Packet.Fin ->
      Hashtbl.remove t.established_rx pkt.Packet.flow;
      Hashtbl.remove t.half_open pkt.Packet.flow
    | _ -> ()

  let install net ~host ~backlog ~syn_timeout () =
    let t =
      {
        net;
        host;
        backlog;
        syn_timeout;
        half_open = Hashtbl.create 64;
        established_rx = Hashtbl.create 64;
        trust_validated = false;
        established = 0;
        backlog_drops = 0;
        timeouts = 0;
        data_bytes = 0.;
        peak_half_open = 0;
      }
    in
    (Net.host net host).Net.fallback_rx <- Some (rx t);
    t
end

module Handshake = struct
  (* A legitimate client opening short connections in a loop: SYN, wait
     for SYN-ACK (retrying a few times), complete with the echoed cookie,
     push a small data burst, FIN, repeat. Completed handshakes are the
     scenario's goodput unit — a flooded (or guarded) server shows up
     directly in this counter. *)

  (* SYN retransmission timeout (s) and retries before a connection
     counts as failed; data packets per connection and their size *)
  let syn_timeout = 1.0
  let max_retries = 2
  let data_packets = 4
  let data_size = 1000

  type t = {
    net : Net.t;
    src : int;
    dst : int;
    conn_interval : float;
    mutable attempts : int;
    mutable completed : int;
    mutable failed : int;
  }

  let attempts t = t.attempts
  let completed t = t.completed
  let failed t = t.failed

  (* Completed handshakes expressed as bytes for goodput probes: one
     handshake stands for its data burst. *)
  let completed_bytes t = float_of_int (t.completed * data_packets * data_size)

  let send_ctl t ~flow payload =
    Net.send_from_host t.net (Packet.make_control ~payload ~src:t.src ~dst:t.dst ~flow)

  let rec attempt t =
    let flow = fresh_flow_id t.net in
    t.attempts <- t.attempts + 1;
    let state = ref `Waiting (* `Waiting -> `Done | `Failed *) in
    let host = Net.host t.net t.src in
    let finish () =
      Hashtbl.remove host.Net.receivers flow;
      Engine.after (Net.engine t.net) ~delay:t.conn_interval (fun () -> attempt t)
    in
    Hashtbl.replace host.Net.receivers flow (fun (pkt : Packet.t) ->
        match pkt.Packet.payload with
        | Packet.Syn_ack { cookie } when !state = `Waiting ->
          state := `Done;
          t.completed <- t.completed + 1;
          send_ctl t ~flow (Packet.Handshake_ack { cookie });
          (* short data burst, then teardown; paced a few ms apart so
             the burst does not self-congest the access link *)
          for i = 0 to data_packets - 1 do
            Engine.after (Net.engine t.net)
              ~delay:(0.002 *. float_of_int (i + 1))
              (fun () ->
                let d =
                  Packet.make_data ~size:data_size ~seq:i ~ttl:64 ~src:t.src ~dst:t.dst
                    ~flow
                in
                Net.send_from_host t.net d)
          done;
          Engine.after (Net.engine t.net)
            ~delay:(0.002 *. float_of_int (data_packets + 2))
            (fun () ->
              send_ctl t ~flow Packet.Fin;
              finish ())
        | _ -> ());
    let rec arm_timeout tries_left =
      Engine.after (Net.engine t.net) ~delay:syn_timeout (fun () ->
          if !state = `Waiting then
            if tries_left > 0 then begin
              send_ctl t ~flow Packet.Syn;
              arm_timeout (tries_left - 1)
            end
            else begin
              state := `Failed;
              t.failed <- t.failed + 1;
              finish ()
            end)
    in
    send_ctl t ~flow Packet.Syn;
    arm_timeout max_retries

  let start net ~src ~dst ?at ~conn_interval () =
    let at = match at with Some a -> a | None -> Net.now net in
    let t =
      {
        net;
        src;
        dst;
        conn_interval;
        attempts = 0;
        completed = 0;
        failed = 0;
      }
    in
    Engine.schedule (Net.engine net) ~at (fun () -> attempt t);
    t
end

module Cbr = struct
  type t = {
    net : Net.t;
    flow : int;
    src : int;
    dst : int;
    packet_size : int;
    rate_pps : float;
    stop : float option;
    pulse_period : float option;
    pulse_duty : float;
    ttl : int;
    via : int;
    mutable sent_packets : int;
    mutable delivered_bytes : float;
    mutable running : bool;
    mutable seq : int;
  }

  let flow_id t = t.flow
  let delivered_bytes t = t.delivered_bytes
  let sent_packets t = t.sent_packets
  let stop_now t = t.running <- false

  let in_duty t now =
    match t.pulse_period with
    | None -> true
    | Some p -> Float.rem now p < t.pulse_duty *. p

  (* One burst = [burst_len] send ticks sharing a single engine closure
     (Engine.schedule_burst), so a constant-rate source pays one allocation
     per burst instead of one closure per packet. Tick times accumulate by
     [period] exactly like the old self-scheduling chain. *)
  let burst_len = 64

  let send_tick t =
    let now = Net.now t.net in
    let stopped = match t.stop with Some s -> now >= s | None -> false in
    if t.running && not stopped then begin
      if in_duty t now then begin
        let pkt =
          Packet.make_data ~size:t.packet_size ~seq:t.seq ~ttl:t.ttl ~src:t.src ~dst:t.dst
            ~flow:t.flow
        in
        t.seq <- t.seq + 1;
        t.sent_packets <- t.sent_packets + 1;
        Net.send_from_host_via t.net ~via:t.via pkt
      end;
      true
    end
    else false

  let rec arm t ~start =
    let period = 1. /. t.rate_pps in
    Engine.schedule_burst (Net.engine t.net) ~start ~period ~count:burst_len (fun k ->
        let continue = send_tick t in
        if continue && k = burst_len - 1 then
          arm t ~start:(Net.now t.net +. period);
        continue)

  let start net ~src ~dst ~rate_pps ?at ?stop ?(packet_size = 1000) ?pulse_period
      ?(pulse_duty = 0.5) ?(ttl = 64) ?via () =
    assert (rate_pps > 0.);
    let at = match at with Some a -> a | None -> Net.now net in
    let t =
      {
        net;
        flow = fresh_flow_id net;
        src;
        dst;
        packet_size;
        rate_pps;
        stop;
        pulse_period;
        pulse_duty;
        ttl;
        via = (match via with Some v -> v | None -> src);
        sent_packets = 0;
        delivered_bytes = 0.;
        running = true;
        seq = 0;
      }
    in
    Hashtbl.replace (Net.host net dst).Net.receivers t.flow (fun pkt ->
        t.delivered_bytes <- t.delivered_bytes +. float_of_int pkt.Packet.size);
    arm t ~start:at;
    t
end

module Traceroute = struct
  (* probe TTLs 1..max_ttl, [probes_per_hop] attempts each; replies are
     collected for [timeout] seconds *)
  let max_ttl = 16
  let timeout = 1.0
  let probes_per_hop = 3

  let run net ~src ~dst ~on_done =
    let flow = fresh_flow_id net in
    let replies : (int * int) list ref = ref [] in
    let host = Net.host net src in
    Hashtbl.replace host.Net.receivers flow (fun pkt ->
        match pkt.Packet.payload with
        | Packet.Traceroute_reply { hop; responder; _ } ->
          if not (List.mem_assoc hop !replies) then replies := (hop, responder) :: !replies
        | _ -> ());
    (* several probes per hop, paced apart: congested queues tail-drop
       individual probes, exactly what real traceroute retries cope with *)
    for ttl = 1 to max_ttl do
      for attempt = 0 to probes_per_hop - 1 do
        let pkt =
          Packet.make ~src ~dst ~flow ~ttl ~size:Packet.control_size
            ~payload:(Packet.Traceroute_probe { probe_id = ttl; probe_ttl = ttl; responder = -1 })
            ()
        in
        let delay =
          (0.002 *. float_of_int ttl)
          +. (float_of_int attempt *. timeout /. float_of_int (probes_per_hop + 1))
        in
        Engine.after (Net.engine net) ~delay (fun () -> Net.send_from_host net pkt)
      done
    done;
    Engine.after (Net.engine net) ~delay:timeout (fun () ->
        Hashtbl.remove host.Net.receivers flow;
        (* truncate at the first reply from the destination itself *)
        let sorted = List.sort compare !replies in
        let rec cut acc = function
          | [] -> List.rev acc
          | (hop, responder) :: rest ->
            if responder = dst then List.rev ((hop, responder) :: acc) else cut ((hop, responder) :: acc) rest
        in
        on_done (cut [] sorted))
end
