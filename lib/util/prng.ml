(* The splitmix64 state lives unboxed in 8 bytes: a mutable [int64]
   record field would box a fresh state on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 s;
  mix64 s

let int64 t = next t

let split t = of_state (next t)

(* Uniform via rejection sampling: plain [rem] over the 63-bit draw favors
   small residues when the bound does not divide 2^63. Draws from the
   incomplete top interval are rejected and retried; [bits - v + (bound-1)]
   wraps negative exactly for those draws. Power-of-two bounds divide 2^63,
   so masking is exact and keeps the historical value stream; non-power
   bounds also keep the stream for every accepted draw (rejection odds are
   [bound / 2^63] per draw). *)
let int t bound =
  assert (bound > 0);
  let b = Int64.of_int bound in
  if bound land (bound - 1) = 0 then
    Int64.to_int (Int64.logand (Int64.shift_right_logical (next t) 1) (Int64.sub b 1L))
  else begin
    let v = ref (-1) in
    while !v < 0 do
      let bits = Int64.shift_right_logical (next t) 1 in
      let r = Int64.rem bits b in
      if Int64.compare (Int64.add (Int64.sub bits r) (Int64.sub b 1L)) 0L >= 0 then
        v := Int64.to_int r
    done;
    !v
  end

let float t bound =
  assert (bound > 0.);
  let raw = Int64.shift_right_logical (next t) 11 in
  (* 53 significant bits, uniform in [0,1) *)
  Int64.to_float raw /. 9007199254740992. *. bound

let bool t = Int64.logand (next t) 1L = 1L

let exponential t ~mean =
  assert (mean > 0.);
  let u = float t 1.0 in
  -.mean *. log (1.0 -. u)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
