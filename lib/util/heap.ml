(* Parallel-array storage: priorities live in a bare [float array] (unboxed
   by the runtime), sequence numbers, tags and values in their own arrays.
   Pushing therefore allocates nothing — the old per-push entry record was
   the single biggest allocation of the event loop.

   The two int tag columns ride along through every sift so a caller can
   attach unboxed payload words to each element (the engine's packet lane
   stores to/from node ids there); callers that don't need them pay two
   int stores per swap, which is noise next to the float compare. *)
type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable tag1s : int array;
  mutable tag2s : int array;
  mutable vals : 'a array;
  mutable len : int;
  mutable next_seq : int;
}

(* Neutral filler for vacated value slots. An immediate int masquerading
   as ['a]: safe because every value array is created below with this
   filler (so the runtime never specializes them to flat float arrays,
   and all accesses in this module stay generic), and because a filler
   slot is never read — [len] bounds every lookup. Without the clearing,
   a popped element stayed reachable from [vals.(len)] until the slot was
   overwritten: a space leak pinning packets and closures on any heap
   that drains (the event engine's lanes drain at the end of every
   run). *)
let nil : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () =
  {
    prios = [||];
    seqs = [||];
    tag1s = [||];
    tag2s = [||];
    vals = [||];
    len = 0;
    next_seq = 0;
  }

let is_empty t = t.len = 0
let size t = t.len

let grow t =
  let cap = Array.length t.prios in
  if t.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let np = Array.make ncap 0. in
    let ns = Array.make ncap 0 in
    let n1 = Array.make ncap 0 in
    let n2 = Array.make ncap 0 in
    let nv = Array.make ncap (nil ()) in
    Array.blit t.prios 0 np 0 t.len;
    Array.blit t.seqs 0 ns 0 t.len;
    Array.blit t.tag1s 0 n1 0 t.len;
    Array.blit t.tag2s 0 n2 0 t.len;
    Array.blit t.vals 0 nv 0 t.len;
    t.prios <- np;
    t.seqs <- ns;
    t.tag1s <- n1;
    t.tag2s <- n2;
    t.vals <- nv
  end

let push_tagged t ~prio ~seq ~tag1 ~tag2 value =
  grow t;
  let p = t.prios and s = t.seqs and t1 = t.tag1s and t2 = t.tag2s and v = t.vals in
  (* hole-based sift up: shift larger parents down, place the new element
     once. Unsafe accesses: every index is in [0, len) with len <= capacity
     by [grow]'s postcondition. *)
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get p parent in
    if prio < pp || (prio = pp && seq < Array.unsafe_get s parent) then begin
      Array.unsafe_set p !i pp;
      Array.unsafe_set s !i (Array.unsafe_get s parent);
      Array.unsafe_set t1 !i (Array.unsafe_get t1 parent);
      Array.unsafe_set t2 !i (Array.unsafe_get t2 parent);
      Array.unsafe_set v !i (Array.unsafe_get v parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set p !i prio;
  Array.unsafe_set s !i seq;
  Array.unsafe_set t1 !i tag1;
  Array.unsafe_set t2 !i tag2;
  Array.unsafe_set v !i value

let push_seq t ~prio ~seq value = push_tagged t ~prio ~seq ~tag1:0 ~tag2:0 value

let push t ~prio value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_seq t ~prio ~seq value

let sift_down t =
  let p = t.prios and s = t.seqs and t1 = t.tag1s and t2 = t.tag2s and v = t.vals in
  (* comparisons written out instead of a [less a b] helper: the local
     closure capturing [p]/[s] was a fresh block on every pop *)
  (* indices stay below t.len <= capacity, so the accesses are in range *)
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let smallest = ref !i in
    if
      l < t.len
      && (Array.unsafe_get p l < Array.unsafe_get p !smallest
         || (Array.unsafe_get p l = Array.unsafe_get p !smallest
            && Array.unsafe_get s l < Array.unsafe_get s !smallest))
    then smallest := l;
    if
      r < t.len
      && (Array.unsafe_get p r < Array.unsafe_get p !smallest
         || (Array.unsafe_get p r = Array.unsafe_get p !smallest
            && Array.unsafe_get s r < Array.unsafe_get s !smallest))
    then smallest := r;
    if !smallest <> !i then begin
      let tp = Array.unsafe_get p !smallest
      and ts = Array.unsafe_get s !smallest
      and tt1 = Array.unsafe_get t1 !smallest
      and tt2 = Array.unsafe_get t2 !smallest
      and tv = Array.unsafe_get v !smallest in
      Array.unsafe_set p !smallest (Array.unsafe_get p !i);
      Array.unsafe_set s !smallest (Array.unsafe_get s !i);
      Array.unsafe_set t1 !smallest (Array.unsafe_get t1 !i);
      Array.unsafe_set t2 !smallest (Array.unsafe_get t2 !i);
      Array.unsafe_set v !smallest (Array.unsafe_get v !i);
      Array.unsafe_set p !i tp;
      Array.unsafe_set s !i ts;
      Array.unsafe_set t1 !i tt1;
      Array.unsafe_set t2 !i tt2;
      Array.unsafe_set v !i tv;
      i := !smallest
    end
    else continue := false
  done

let remove_min t =
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.prios.(0) <- t.prios.(t.len);
    t.seqs.(0) <- t.seqs.(t.len);
    t.tag1s.(0) <- t.tag1s.(t.len);
    t.tag2s.(0) <- t.tag2s.(t.len);
    t.vals.(0) <- t.vals.(t.len);
    t.vals.(t.len) <- nil ();
    sift_down t
  end
  else t.vals.(0) <- nil ()

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) and value = t.vals.(0) in
    remove_min t;
    Some (prio, value)
  end

let min_prio t =
  if t.len = 0 then invalid_arg "Heap.min_prio: empty heap";
  t.prios.(0)

(* Cross-module calls returning floats box the result; these comparison
   entry points return bools so a caller merging heaps doesn't pay a
   fresh float box per peek. *)
let top_before a b =
  if a.len = 0 then false
  else if b.len = 0 then true
  else
    let pa = a.prios.(0) and pb = b.prios.(0) in
    pa < pb || (pa = pb && a.seqs.(0) < b.seqs.(0))

let top_at_most t x = t.len > 0 && t.prios.(0) <= x
let top_lt t x = t.len > 0 && t.prios.(0) < x

let top_tag1 t =
  if t.len = 0 then invalid_arg "Heap.top_tag1: empty heap";
  t.tag1s.(0)

let top_tag2 t =
  if t.len = 0 then invalid_arg "Heap.top_tag2: empty heap";
  t.tag2s.(0)

let pop_min t =
  if t.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let value = t.vals.(0) in
  remove_min t;
  value

let clear t =
  (* releasing the values matters as much as resetting the length: a
     cleared-but-retained heap (Engine.clear keeps the engine for reuse)
     must not pin the previous run's packets and closures *)
  if t.len > 0 then Array.fill t.vals 0 t.len (nil ());
  t.len <- 0;
  t.next_seq <- 0
