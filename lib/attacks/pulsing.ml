module Flow = Ff_netsim.Flow

type t = { burst_pps : float; duty : float; flows : Flow.Cbr.t list }

let launch net ~bots ~victim ~burst_pps ?(duty = 0.2) ?(start = 0.) () =
  let flows =
    List.map
      (fun bot ->
        Flow.Cbr.start net ~src:bot ~dst:victim ~rate_pps:burst_pps ~at:start ~pulse_period:1.0
          ~pulse_duty:duty ())
      bots
  in
  { burst_pps; duty; flows }

let flows t = t.flows
let average_rate_pps t = t.burst_pps *. t.duty *. float_of_int (List.length t.flows)
