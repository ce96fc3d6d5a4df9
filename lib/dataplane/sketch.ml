(* one hash salt for every sketch, so any two of equal dimensions merge *)
let seed = 0x5bd1e995

type t = {
  rows_n : int;
  cols_n : int;
  cells : float array; (* rows * cols, row-major *)
  mutable total : float;
}

let create ~rows ~cols () =
  assert (rows > 0 && cols > 0);
  { rows_n = rows; cols_n = cols; cells = Array.make (rows * cols) 0.; total = 0. }

let index t row key = (row * t.cols_n) + (Hash.mix ~seed ~lane:row key mod t.cols_n)

let add t key w =
  for r = 0 to t.rows_n - 1 do
    let i = index t r key in
    t.cells.(i) <- t.cells.(i) +. w
  done;
  t.total <- t.total +. w

let estimate t key =
  let est = ref infinity in
  for r = 0 to t.rows_n - 1 do
    est := min !est t.cells.(index t r key)
  done;
  if !est = infinity then 0. else !est

let total t = t.total

let merge_into ~dst ~src =
  if dst.rows_n <> src.rows_n || dst.cols_n <> src.cols_n then
    invalid_arg "Sketch.merge_into: incompatible sketches";
  Array.iteri (fun i v -> dst.cells.(i) <- dst.cells.(i) +. v) src.cells;
  dst.total <- dst.total +. src.total

type snapshot = { cells : (int * float) list; total : float }

let serialize (t : t) =
  let out = ref [] in
  Array.iteri (fun i v -> if v <> 0. then out := (i, v) :: !out) t.cells;
  { cells = List.rev !out; total = t.total }

(* [total] travels alongside the cells: summing absorbed cell values into
   [t.total] would count each key [rows] times (every [add] writes [rows]
   cells but bumps [total] once), inflating it by ~[rows]x per transfer. *)
let absorb (t : t) { cells; total } =
  List.iter
    (fun (i, v) ->
      if i >= 0 && i < Array.length t.cells then t.cells.(i) <- t.cells.(i) +. v)
    cells;
  t.total <- t.total +. total
