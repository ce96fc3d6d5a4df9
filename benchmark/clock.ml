(* The monotonic clock, bound directly to the C stub that bechamel's
   monotonic_clock library ships. Its [Monotonic_clock.now] wrapper is a
   cross-module call that returns a boxed int64; the stage wrapper reads
   the clock twice per sampled call and must not allocate, so the external
   is declared here with an unboxed result and converted to an immediate
   int at the call site. *)
external now_int64 : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* Nanoseconds since an arbitrary origin. *)
let[@inline] now_ns () = Int64.to_int (now_int64 ())

let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9
