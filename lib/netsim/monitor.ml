let sample engine ~period ?until ~name probe =
  (* start at the current clock, not 0.: a monitor attached mid-run used
     to make Engine.every reject the first tick as scheduled in the past *)
  let start = Engine.now engine in
  let series = Ff_util.Series.create ~name in
  Engine.every engine ~start ?until ~period (fun () ->
      let now = Engine.now engine in
      Ff_util.Series.add series ~time:now (probe now));
  series

let link_utilization net ~from_ ~to_ ~period ?until () =
  let name = Printf.sprintf "util-%d->%d" from_ to_ in
  sample (Net.engine net) ~period ?until ~name (fun _ -> Net.utilization net ~from_ ~to_)

(* ---------------- flow-kind-agnostic goodput probes ---------------- *)

type probe = float -> float

let tcp_probe f now = Flow.Tcp.goodput f ~now

(* CBR keeps only a cumulative delivered-bytes counter (no receive window
   on its hot path), so its rate probe differentiates that counter between
   successive samples. The closure carries the last sample; the first call
   returns 0 (no interval yet). *)
let cbr_probe f =
  let last_t = ref nan in
  let last_b = ref 0. in
  fun now ->
    let b = Flow.Cbr.delivered_bytes f in
    let r =
      if Float.is_nan !last_t || now <= !last_t then 0.
      else (b -. !last_b) /. (now -. !last_t)
    in
    last_t := now;
    last_b := b;
    r

let counter_probe read =
  let last_t = ref nan in
  let last_b = ref 0. in
  fun now ->
    let b = read () in
    let r =
      if Float.is_nan !last_t || now <= !last_t then 0.
      else (b -. !last_b) /. (now -. !last_t)
    in
    last_t := now;
    last_b := b;
    r

let sum_probes probes now = List.fold_left (fun acc p -> acc +. p now) 0. probes

let aggregate_goodput net ?(flows = []) ?(probes = []) ~period ~name () =
  let probes = List.map tcp_probe flows @ probes in
  sample (Net.engine net) ~period ~name (fun now -> sum_probes probes now)

let normalized_goodput net ~flows ~baseline ~period ~name () =
  assert (baseline > 0.);
  let probes = List.map tcp_probe flows in
  sample (Net.engine net) ~period ~name (fun now -> sum_probes probes now /. baseline)
