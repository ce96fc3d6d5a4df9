type t = { seed : int; bits : Bytes.t; nbits : int; hashes : int }

let create ?(seed = 0x01000193) ~bits ~hashes () =
  assert (bits > 0 && hashes > 0);
  { seed; bits = Bytes.make ((bits + 7) / 8) '\000'; nbits = bits; hashes }

let bit_index t key h = Hash.mix ~seed:t.seed ~lane:h key mod t.nbits

let set_bit t i =
  let byte = i / 8 and off = i mod 8 in
  Bytes.set t.bits byte (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl off)))

let get_bit t i =
  let byte = i / 8 and off = i mod 8 in
  Char.code (Bytes.get t.bits byte) land (1 lsl off) <> 0

let add t key =
  for h = 0 to t.hashes - 1 do
    set_bit t (bit_index t key h)
  done

let mem t key =
  let rec check h = h >= t.hashes || (get_bit t (bit_index t key h) && check (h + 1)) in
  check 0

let reset t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let count_set_bits t =
  let count = ref 0 in
  for i = 0 to t.nbits - 1 do
    if get_bit t i then incr count
  done;
  !count

let expected_fp_rate t ~inserted =
  let m = float_of_int t.nbits and k = float_of_int t.hashes and n = float_of_int inserted in
  (1. -. exp (-.k *. n /. m)) ** k
