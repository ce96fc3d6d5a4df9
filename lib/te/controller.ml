type t = {
  mutable count : int;
  mutable times : float list;
  mutable observers : (float -> unit) list;
  mutable plan : Solver.plan option;
}

let start net ~period ~delay ~estimate =
  let t = { count = 0; times = []; observers = []; plan = None } in
  let engine = Ff_netsim.Net.engine net in
  Ff_netsim.Engine.every engine ~period (fun () ->
      let matrix = estimate () in
      let plan = Solver.solve ~k:4 (Ff_netsim.Net.topology net) matrix in
      (* the control loop takes [delay] to measure, compute and push rules *)
      Ff_netsim.Engine.after engine ~delay (fun () ->
          Solver.install_prefix_based net plan;
          t.plan <- Some plan;
          t.count <- t.count + 1;
          let now = Ff_netsim.Net.now net in
          t.times <- now :: t.times;
          List.iter (fun f -> f now) t.observers));
  t

let reconfig_count t = t.count
let reconfig_times t = List.rev t.times
let on_reconfig t f = t.observers <- f :: t.observers
let last_plan t = t.plan
