(* Slot-indexed storage. The heap proper is three parallel columns indexed
   by heap position: [prios] (a bare [float array], unboxed by the
   runtime), [seqs] and [slots]. A slot id names the element's row in the
   arena columns [vals], [tag1s] and [tag2s], which never move while the
   element is queued.

   Both sifts therefore store only floats and ints: no [caml_modify], and
   no young value written into a major-heap array once per level. A push
   writes its value and tags into its slot once; a pop reads the value and
   clears the slot once.

   Free slot ids are kept in [slots] itself, past [len]: [slots] is always
   a permutation of [0, capacity), positions [0, len) naming queued
   elements and positions [len, capacity) the free rows. A push takes the
   free id at position [len]; a pop hands the minimum's id back at the
   position it vacates. No free stack, no extra allocation.

   The tag columns are allocated on the first [push_tagged] and grown with
   the heap from then on; a heap that never tags (the engine's thunk lane)
   keeps them empty and reads its tags as 0. *)
type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : 'a array;
  mutable tag1s : int array;
  mutable tag2s : int array;
  mutable len : int;
  mutable next_seq : int;
}

(* Neutral filler for free value rows. An immediate int masquerading as
   ['a]: safe because every value array is created below with this filler
   (so the runtime never specializes them to flat float arrays, and all
   accesses in this module stay generic), and because a free row is never
   read — only slot ids at positions below [len] are dereferenced. Without
   the clearing, a popped element stayed reachable from its row until the
   row was reused: a space leak pinning packets and closures on any heap
   that drains (the event engine's lanes drain at the end of every run). *)
let nil : 'a. unit -> 'a = fun () -> Obj.magic 0

let create () =
  {
    prios = [||];
    seqs = [||];
    slots = [||];
    vals = [||];
    tag1s = [||];
    tag2s = [||];
    len = 0;
    next_seq = 0;
  }

let is_empty t = t.len = 0
let size t = t.len

let tagged t = Array.length t.tag1s > 0

let extend_int a ncap =
  let na = Array.make ncap 0 in
  Array.blit a 0 na 0 (Array.length a);
  na

(* Called only when full: every row is in use, so [slots] holds exactly
   the ids [0, cap) and the new rows [cap, ncap) are the free ones. *)
let grow t =
  let cap = Array.length t.prios in
  let ncap = max 16 (2 * cap) in
  let np = Array.make ncap 0. in
  Array.blit t.prios 0 np 0 cap;
  t.prios <- np;
  t.seqs <- extend_int t.seqs ncap;
  let ns = Array.make ncap 0 in
  Array.blit t.slots 0 ns 0 cap;
  for i = cap to ncap - 1 do
    Array.unsafe_set ns i i
  done;
  t.slots <- ns;
  let nv = Array.make ncap (nil ()) in
  Array.blit t.vals 0 nv 0 cap;
  t.vals <- nv;
  if tagged t then begin
    t.tag1s <- extend_int t.tag1s ncap;
    t.tag2s <- extend_int t.tag2s ncap
  end

(* Queue [value] under (prio, seq) and return its slot. Hole-based sift
   up: shift larger parents down, place the new key once. Unsafe accesses:
   every position is in [0, len] with len < capacity after [grow]. *)
let insert t ~prio ~seq value =
  if t.len = Array.length t.prios then grow t;
  let p = t.prios and s = t.seqs and sl = t.slots in
  let slot = Array.unsafe_get sl t.len in
  Array.unsafe_set t.vals slot value;
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pp = Array.unsafe_get p parent in
    if prio < pp || (prio = pp && seq < Array.unsafe_get s parent) then begin
      Array.unsafe_set p !i pp;
      Array.unsafe_set s !i (Array.unsafe_get s parent);
      Array.unsafe_set sl !i (Array.unsafe_get sl parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set p !i prio;
  Array.unsafe_set s !i seq;
  Array.unsafe_set sl !i slot;
  slot

let push_tagged t ~prio ~seq ~tag1 ~tag2 value =
  let slot = insert t ~prio ~seq value in
  if not (tagged t) then begin
    (* first tagged push: the columns take the current capacity, and
       [grow] keeps them in step from here on *)
    let cap = Array.length t.prios in
    t.tag1s <- Array.make cap 0;
    t.tag2s <- Array.make cap 0
  end;
  Array.unsafe_set t.tag1s slot tag1;
  Array.unsafe_set t.tag2s slot tag2

let push_seq t ~prio ~seq value =
  let slot = insert t ~prio ~seq value in
  if tagged t then begin
    Array.unsafe_set t.tag1s slot 0;
    Array.unsafe_set t.tag2s slot 0
  end

let push t ~prio value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push_seq t ~prio ~seq value

(* Drop the minimum: free its row, then sift the last key down from the
   root as a hole. The comparisons are written out instead of a [less a b]
   helper: a local closure capturing the columns was a fresh block on
   every pop. Positions stay below [len] <= capacity. *)
let remove_min t =
  let p = t.prios and s = t.seqs and sl = t.slots in
  let top = Array.unsafe_get sl 0 in
  Array.unsafe_set t.vals top (nil ());
  let n = t.len - 1 in
  t.len <- n;
  let lp = Array.unsafe_get p n
  and ls = Array.unsafe_get s n
  and lslot = Array.unsafe_get sl n in
  (* the vacated position [n] joins the free region with the freed row *)
  Array.unsafe_set sl n top;
  if n > 0 then begin
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (Array.unsafe_get p r < Array.unsafe_get p l
               || (Array.unsafe_get p r = Array.unsafe_get p l
                  && Array.unsafe_get s r < Array.unsafe_get s l))
          then r
          else l
        in
        let cp = Array.unsafe_get p c in
        if cp < lp || (cp = lp && Array.unsafe_get s c < ls) then begin
          Array.unsafe_set p !i cp;
          Array.unsafe_set s !i (Array.unsafe_get s c);
          Array.unsafe_set sl !i (Array.unsafe_get sl c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set p !i lp;
    Array.unsafe_set s !i ls;
    Array.unsafe_set sl !i lslot
  end

let pop t =
  if t.len = 0 then None
  else begin
    let prio = t.prios.(0) and value = t.vals.(t.slots.(0)) in
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
  if tagged t then t.tag1s.(t.slots.(0)) else 0

let top_tag2 t =
  if t.len = 0 then invalid_arg "Heap.top_tag2: empty heap";
  if tagged t then t.tag2s.(t.slots.(0)) else 0

let pop_min t =
  if t.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let value = t.vals.(t.slots.(0)) in
  remove_min t;
  value

let clear t =
  (* releasing the values matters as much as resetting the length: a
     cleared-but-retained heap (Engine.clear keeps the engine for reuse)
     must not pin the previous run's packets and closures. [slots] stays a
     permutation, so with [len] at 0 every row is free again. *)
  for i = 0 to t.len - 1 do
    Array.unsafe_set t.vals (Array.unsafe_get t.slots i) (nil ())
  done;
  t.len <- 0;
  t.next_seq <- 0
