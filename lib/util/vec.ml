(* Growable int vector: the incremental fluid solver's workhorse for
   dirty sets, per-link incidence lists and per-solve worklists. Plain
   int arrays double on demand and never shrink, so steady-state
   operation allocates nothing. *)

type t = { mutable a : int array; mutable len : int }

let create () = { a = Array.make 8 0; len = 0 }

let length t = t.len

let clear t = t.len <- 0

let push t x =
  if t.len = Array.length t.a then begin
    let b = Array.make (2 * t.len) 0 in
    Array.blit t.a 0 b 0 t.len;
    t.a <- b
  end;
  t.a.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  Array.unsafe_get t.a i

(* Keep elements at even offsets paired with the following odd offset
   when the predicate on the pair holds; used to compact (id, gen)
   incidence pairs in place. *)
let filter_pairs_in_place f t =
  let w = ref 0 in
  let i = ref 0 in
  while !i + 1 < t.len do
    let x = Array.unsafe_get t.a !i and y = Array.unsafe_get t.a (!i + 1) in
    if f x y then begin
      Array.unsafe_set t.a !w x;
      Array.unsafe_set t.a (!w + 1) y;
      w := !w + 2
    end;
    i := !i + 2
  done;
  t.len <- !w
