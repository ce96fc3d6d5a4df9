(* Bounded model checking of the mode protocol's switch transition.

   Chaos testing samples three seeds; this explorer enumerates every probe
   delivery, loss and reorder interleaving on a small switch graph, up to
   a loss budget, and runs each delivery through [Protocol.step] — the
   function the ["mode-protocol"] stage runs. It checks, on every
   interleaving:

   - epoch monotonicity: no transition lowers a switch's known epoch;
   - no half-activated region: every terminal (quiescent) state has each
     switch within [region_ttl] hops of the origin at the final (epoch,
     activate), and each switch beyond it untouched;
   - convergence: terminal states exist and all of them converge. Once
     the loss budget is spent the rest of a run is lossless, so reaching
     quiescence is healing.

   Time is abstracted away. The dwell is 0, so a clear applies at once,
   and a re-advertisement round fires only when no probe is in flight:
   millisecond floods against a 100 ms-scale timer. With [anti_entropy]
   off the step is fire-and-forget flooding, and the checker must find
   the convergence hole anti-entropy exists to close.

   In-flight probes form a set: a probe is its content (sender, receiver,
   epoch, activate, ttl), so two identical ones are indistinguishable and
   collapse. The adversary gains nothing from duplicates, and dense graphs
   stay tractable. *)

module Protocol = Ff_modes.Protocol

type config = {
  adj : int list array;  (* switch ids 0 .. n-1, symmetric, each list sorted *)
  origin : int;  (* where the alarm fires *)
  region_ttl : int;
  include_clear : bool;  (* also a clear, issued at any point after the raise *)
  anti_entropy : bool;  (* acks, adverts, repairs, re-advertisement *)
  loss_budget : int;  (* probes the adversary may destroy per run *)
  max_states : int;  (* hitting it clears [exhausted] *)
}

type report = {
  states : int;
  transitions : int;
  terminals : int;  (* quiescent states: no transition enabled *)
  converged : int;
  violations : string list;  (* deduplicated; empty = every invariant holds *)
  counterexample : string list option;  (* actions reaching the first violation *)
  exhausted : bool;  (* false: the verdict is incomplete, never silent *)
}

type probe = { pr_from : int; pr_to : int; pr_epoch : int; pr_act : bool; pr_ttl : int }

(* [inflight] is kept sorted and deduplicated; states are never mutated
   once built — a step copies the node it changes *)
type state = {
  sws : Protocol.node array;
  inflight : probe list;
  lost : int;
  cleared : bool;
}

let line n = Array.init n (fun i -> List.filter (fun j -> j >= 0 && j < n) [ i - 1; i + 1 ])

let cycle n = Array.init n (fun i -> List.sort_uniq compare [ (i + n - 1) mod n; (i + 1) mod n ])

let complete n = Array.init n (fun i -> List.filter (fun j -> j <> i) (List.init n Fun.id))

let default ~adj =
  {
    adj;
    origin = 0;
    region_ttl = Array.length adj;
    include_clear = true;
    anti_entropy = true;
    loss_budget = 1;
    max_states = 500_000;
  }

let known (n : Protocol.node) = max n.seen n.ad_epoch

let probe_str p =
  Printf.sprintf "probe %d->%d epoch %d %s ttl %d" p.pr_from p.pr_to p.pr_epoch
    (if p.pr_act then "act" else "clear")
    p.pr_ttl

(* Runs [input] at switch [sw]: the new switch array and the probes the
   step sends. *)
let step cfg sws sw input =
  let sent = ref [] in
  let emit ~from ~to_ ~epoch ~activate ~ttl =
    sent := { pr_from = from; pr_to = to_; pr_epoch = epoch; pr_act = activate; pr_ttl = ttl } :: !sent
  in
  let io =
    {
      Protocol.learned = (fun _ ~seen:_ ~active:_ ~ad_epoch:_ -> ());
      flood =
        (fun from ~except ~epoch ~activate ~ttl ->
          List.iter (fun q -> if q <> except then emit ~from ~to_:q ~epoch ~activate ~ttl) cfg.adj.(from));
      send = (fun from _ ~to_ ~epoch ~activate ~ttl -> emit ~from ~to_ ~epoch ~activate ~ttl);
    }
  in
  let sws = Array.copy sws in
  let node = { (sws.(sw)) with Protocol.pending = sws.(sw).Protocol.pending } in
  sws.(sw) <- node;
  Protocol.step io ~anti_entropy:cfg.anti_entropy ~neighbors:cfg.adj.(sw) sw node input;
  (sws, !sent)

let with_inflight st sws inflight = { st with sws; inflight = List.sort_uniq compare inflight }

let alarm cfg st ~epoch ~activate =
  let sws, sent =
    step cfg st.sws cfg.origin (Protocol.Alarm { epoch; activate; ttl = cfg.region_ttl })
  in
  with_inflight st sws (st.inflight @ sent)

let initial cfg =
  let blank =
    { Protocol.seen = 0; active = false; ad_epoch = 0; ad_activate = false; ad_ttl = 0;
      pending = [] }
  in
  let st =
    { sws = Array.make (Array.length cfg.adj) blank; inflight = []; lost = 0; cleared = false }
  in
  alarm cfg st ~epoch:1 ~activate:true

let rec remove_one p = function
  | [] -> []
  | x :: tl -> if x = p then tl else x :: remove_one p tl

(* enabled transitions: (label, successor) *)
let successors cfg st =
  let deliveries =
    List.map
      (fun p ->
        let sws, sent =
          step cfg st.sws p.pr_to
            (Protocol.Probe
               { from = p.pr_from; epoch = p.pr_epoch; activate = p.pr_act; ttl = p.pr_ttl })
        in
        ("deliver " ^ probe_str p, with_inflight st sws (remove_one p st.inflight @ sent)))
      st.inflight
  in
  let losses =
    if st.lost >= cfg.loss_budget then []
    else
      List.map
        (fun p ->
          ( "lose " ^ probe_str p,
            { st with inflight = remove_one p st.inflight; lost = st.lost + 1 } ))
        st.inflight
  in
  let clear =
    if cfg.include_clear && not st.cleared then
      [ ("clear_alarm", alarm cfg { st with cleared = true } ~epoch:2 ~activate:false) ]
    else []
  in
  let readverts =
    if cfg.anti_entropy && st.inflight = [] then
      List.concat
        (List.init (Array.length st.sws) (fun sw ->
             if st.sws.(sw).Protocol.pending = [] then []
             else
               let sws, sent = step cfg st.sws sw Protocol.Readvert in
               [ (Printf.sprintf "readvert at %d" sw, with_inflight st sws sent) ]))
    else []
  in
  deliveries @ losses @ clear @ readverts

(* hop distances over the switch graph, BFS *)
let distances adj origin =
  let d = Array.make (Array.length adj) (-1) in
  d.(origin) <- 0;
  let q = Queue.create () in
  Queue.add origin q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun v ->
        if d.(v) < 0 then begin
          d.(v) <- d.(u) + 1;
          Queue.add v q
        end)
      adj.(u)
  done;
  d

let run cfg =
  let dist = distances cfg.adj cfg.origin in
  let final_epoch = if cfg.include_clear then 2 else 1 in
  let final_act = not cfg.include_clear in
  (* Keys are marshalled states: the default [Hashtbl.hash] inspects only
     ~10 nodes of a structure, and states share a deep common prefix, so
     hashing them directly collapses the table into linear scans. No
     sharing, so equal states marshal alike however their nodes alias. *)
  let key (st : state) = Marshal.to_string st [ Marshal.No_sharing ] in
  let visited : (string, unit) Hashtbl.t = Hashtbl.create 4096 in
  let parent : (string, state * string) Hashtbl.t = Hashtbl.create 4096 in
  let violations = ref [] in
  let counterexample = ref None in
  let transitions = ref 0 in
  let terminals = ref 0 in
  let convergent = ref 0 in
  let exhausted = ref true in
  let add_violation st msg =
    if not (List.mem msg !violations) then violations := msg :: !violations;
    if !counterexample = None then begin
      let rec walk acc st =
        match Hashtbl.find_opt parent (key st) with
        | None -> acc
        | Some (prev, label) -> walk (label :: acc) prev
      in
      counterexample := Some (walk [] st)
    end
  in
  let check_terminal st =
    incr terminals;
    let ok = ref true in
    Array.iteri
      (fun sw (me : Protocol.node) ->
        let in_region = dist.(sw) >= 0 && dist.(sw) <= cfg.region_ttl in
        let want_epoch = if in_region then final_epoch else 0 in
        let want_act = in_region && final_act in
        if me.seen <> want_epoch || me.active <> want_act then begin
          ok := false;
          add_violation st
            (Printf.sprintf
               "unconverged terminal: switch %d at (epoch %d, %s), expected (epoch %d, %s)" sw
               me.seen
               (if me.active then "active" else "inactive")
               want_epoch
               (if want_act then "active" else "inactive"))
        end)
      st.sws;
    if !ok then incr convergent
  in
  let start = initial cfg in
  let stack = ref [ start ] in
  Hashtbl.replace visited (key start) ();
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | st :: rest ->
      stack := rest;
      let succs = successors cfg st in
      if succs = [] then check_terminal st
      else
        List.iter
          (fun (label, st') ->
            incr transitions;
            (* epoch monotonicity across every edge of the state graph *)
            Array.iteri
              (fun sw me' ->
                let me = st.sws.(sw) in
                if known me' < known me then
                  add_violation st'
                    (Printf.sprintf "epoch regression at switch %d: %d -> %d (%s)" sw (known me)
                       (known me') label))
              st'.sws;
            let k' = key st' in
            if not (Hashtbl.mem visited k') then
              if Hashtbl.length visited >= cfg.max_states then begin
                (* budget blown: report truncation loudly and stop grinding
                   through the residual frontier *)
                exhausted := false;
                stack := []
              end
              else begin
                Hashtbl.replace visited k' ();
                Hashtbl.replace parent k' (st, label);
                stack := st' :: !stack
              end)
          succs
  done;
  {
    states = Hashtbl.length visited;
    transitions = !transitions;
    terminals = !terminals;
    converged = !convergent;
    violations = List.rev !violations;
    counterexample = !counterexample;
    exhausted = !exhausted;
  }
