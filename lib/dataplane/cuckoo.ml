(* Cuckoo filter (Fan et al., CoNEXT'14): approximate set membership with
   deletion — the exact-member tracker CuckooGuard-style SYN defenses keep
   per verified flow. Unlike the sketches, whose cost is per-counter, the
   resource profile here is per-entry: each admitted flow owns one
   fingerprint slot until it is explicitly deleted.

   Eviction is BFS ("kick") based, but the search runs *before* any slot is
   mutated: we look for a chain of relocations ending in a free slot, apply
   it back-to-front (every move lands in a slot just vacated), and only then
   place the new fingerprint. A failed insert therefore leaves the table
   bit-identical — no fingerprint is ever orphaned mid-kick — which is the
   property the oracle-differential suite pins down (insert returned true
   iff the key is findable, false iff nothing changed). *)

(* fingerprints per bucket *)
let slots = 4

(* bound on the eviction search's bucket expansions per insert *)
let max_kicks = 128

type t = {
  seed : int;
  n_buckets : int;  (* power of two, so the alt-bucket XOR stays in range *)
  fp_bits : int;
  table : int array;  (* n_buckets * slots; 0 = empty, else fp in [1, 2^fp_bits) *)
  mutable occupied : int;
  mutable failed_inserts : int;
  mutable kicks : int;
  (* Homeless fingerprints from [absorb] (migration must never manufacture
     a false negative, even into a full table); never fed by [insert]. *)
  mutable stash : (int * int) list;
}

let occupancy_threshold = 0.95

let rec pow2_ge n k = if k >= n then k else pow2_ge n (2 * k)

let create ?(seed = 0xC0C0) ?(fp_bits = 12) ~capacity () =
  if capacity <= 0 then invalid_arg "Cuckoo.create: capacity must be positive";
  if fp_bits < 2 || fp_bits > 30 then invalid_arg "Cuckoo.create: fp_bits out of range";
  let n_buckets = pow2_ge ((capacity + slots - 1) / slots) 1 in
  {
    seed;
    n_buckets;
    fp_bits;
    table = Array.make (n_buckets * slots) 0;
    occupied = 0;
    failed_inserts = 0;
    kicks = 0;
    stash = [];
  }

let capacity t = t.n_buckets * slots
let size t = t.occupied
let stash_size t = List.length t.stash
let failed_inserts t = t.failed_inserts
let kicks t = t.kicks
let occupancy t = float_of_int t.occupied /. float_of_int (t.n_buckets * slots)

(* fingerprint in [1, 2^fp_bits): 0 is the empty-slot marker *)
let fingerprint t key = 1 + (Hash.mix ~seed:t.seed ~lane:0 key mod ((1 lsl t.fp_bits) - 1))

let bucket_of_key t key = Hash.mix ~seed:t.seed ~lane:1 key land (t.n_buckets - 1)

(* Partial-key cuckoo hashing: the alternate bucket is derivable from the
   fingerprint alone, so relocation never needs the original key. XOR with
   a hash of the fingerprint is an involution: alt (alt b fp) fp = b. *)
let alt_bucket t b fp = b lxor (Hash.mix ~seed:t.seed ~lane:2 fp land (t.n_buckets - 1))

let free_slot_in t b =
  let base = b * slots in
  let rec go s =
    if s >= slots then -1 else if t.table.(base + s) = 0 then base + s else go (s + 1)
  in
  go 0

let bucket_has t b fp =
  let base = b * slots in
  let rec go s =
    if s >= slots then false
    else if t.table.(base + s) = fp then true
    else go (s + 1)
  in
  go 0

let member t key =
  let fp = fingerprint t key in
  let b1 = bucket_of_key t key in
  let b2 = alt_bucket t b1 fp in
  bucket_has t b1 fp || bucket_has t b2 fp
  || List.exists (fun (b, f) -> f = fp && (b = b1 || b = b2)) t.stash

(* BFS over relocation chains: a node is a table cell; expanding cell [c]
   means "the fingerprint in [c] could move to its alternate bucket".
   [parent] remembers the cell each discovered free slot was reached from,
   so the chain replays back-to-front. The frontier is bounded by
   [max_kicks] expansions, which bounds both search work and chain
   length. *)
let find_eviction_path t b1 b2 =
  let parent = Hashtbl.create 16 in
  let q = Queue.create () in
  let seed_bucket b =
    let base = b * slots in
    for s = 0 to slots - 1 do
      let c = base + s in
      if not (Hashtbl.mem parent c) then begin
        Hashtbl.replace parent c (-1);
        Queue.add c q
      end
    done
  in
  seed_bucket b1;
  if b2 <> b1 then seed_bucket b2;
  let expansions = ref 0 in
  let found = ref (-1) in
  while !found < 0 && !expansions < max_kicks && not (Queue.is_empty q) do
    let c = Queue.pop q in
    incr expansions;
    let fp = t.table.(c) in
    (* a free seed cell means no eviction is needed at all — caller
       handles that before searching, so [fp <> 0] here *)
    let nb = alt_bucket t (c / slots) fp in
    let free = free_slot_in t nb in
    if free >= 0 then begin
      if not (Hashtbl.mem parent free) then Hashtbl.replace parent free c;
      found := free
    end
    else begin
      let base = nb * slots in
      for s = 0 to slots - 1 do
        let c' = base + s in
        if not (Hashtbl.mem parent c') then begin
          Hashtbl.replace parent c' c;
          Queue.add c' q
        end
      done
    end
  done;
  if !found < 0 then None
  else begin
    (* walk back to a seed cell, collecting the chain free-end first *)
    let rec chain c acc = if c < 0 then acc else chain (Hashtbl.find parent c) (c :: acc) in
    Some (chain !found [])
  end

(* Apply a relocation chain [seed; ...; free]: moving back-to-front, each
   cell's fingerprint hops to the next cell in the chain, which is free by
   induction (the last is free by construction, earlier ones were just
   vacated). Finishes with the seed cell empty. *)
let apply_chain t chain =
  let arr = Array.of_list chain in
  for i = Array.length arr - 2 downto 0 do
    t.table.(arr.(i + 1)) <- t.table.(arr.(i));
    t.table.(arr.(i)) <- 0;
    t.kicks <- t.kicks + 1
  done;
  arr.(0)

let place t b1 b2 fp =
  let c = free_slot_in t b1 in
  let c = if c >= 0 then c else free_slot_in t b2 in
  let c =
    if c >= 0 then c
    else
      match find_eviction_path t b1 b2 with
      | Some chain -> apply_chain t chain
      | None -> -1
  in
  if c < 0 then false
  else begin
    t.table.(c) <- fp;
    t.occupied <- t.occupied + 1;
    true
  end

let insert t key =
  let fp = fingerprint t key in
  let b1 = bucket_of_key t key in
  let b2 = alt_bucket t b1 fp in
  let ok = place t b1 b2 fp in
  if not ok then t.failed_inserts <- t.failed_inserts + 1;
  ok

let remove_from_bucket t b fp =
  let base = b * slots in
  let rec go s =
    if s >= slots then false
    else if t.table.(base + s) = fp then begin
      t.table.(base + s) <- 0;
      t.occupied <- t.occupied - 1;
      true
    end
    else go (s + 1)
  in
  go 0

let remove_from_stash t b1 b2 fp =
  let rec go acc = function
    | [] -> None
    | (b, f) :: rest when f = fp && (b = b1 || b = b2) -> Some (List.rev_append acc rest)
    | e :: rest -> go (e :: acc) rest
  in
  match go [] t.stash with
  | Some stash ->
    t.stash <- stash;
    true
  | None -> false

let delete t key =
  let fp = fingerprint t key in
  let b1 = bucket_of_key t key in
  let b2 = alt_bucket t b1 fp in
  remove_from_bucket t b1 fp || remove_from_bucket t b2 fp || remove_from_stash t b1 b2 fp

(* With load factor a, a negative lookup compares against 2*slots*a
   occupied slots on average, each matching with probability 1/(2^f - 1). *)
let expected_fp_rate t =
  let per_slot = 1. /. float_of_int ((1 lsl t.fp_bits) - 1) in
  let compared = 2. *. float_of_int slots *. occupancy t in
  1. -. ((1. -. per_slot) ** compared)

(* Per-entry memory is the defining cost: fp_bits per slot of SRAM, two
   hash lanes (bucket + fingerprint), and the read-modify-write ALUs of
   the insert path. TCAM-free. *)
let resource t =
  Resource.make ~stages:2.
    ~sram_kb:(float_of_int (t.n_buckets * slots * t.fp_bits) /. 8. /. 1024.)
    ~alus:2. ~hash_units:2. ()

type snapshot = {
  ck_buckets : int;
  ck_slots : int;
  ck_fp_bits : int;
  ck_seed : int;
  ck_entries : (int * int) list;  (** (bucket, fingerprint) pairs, stash included *)
}

let serialize t =
  let entries = ref t.stash in
  for b = t.n_buckets - 1 downto 0 do
    let base = b * slots in
    for s = slots - 1 downto 0 do
      let fp = t.table.(base + s) in
      if fp <> 0 then entries := (b, fp) :: !entries
    done
  done;
  { ck_buckets = t.n_buckets; ck_slots = slots; ck_fp_bits = t.fp_bits; ck_seed = t.seed;
    ck_entries = !entries }

(* Union semantics for migration: every fingerprint of the snapshot must be
   findable afterwards — an entry that cannot be placed (both buckets full
   even after eviction search) goes to the stash rather than being dropped.
   Geometry and seed must match, otherwise (bucket, fingerprint) pairs are
   meaningless in this table. *)
let absorb t snap =
  if snap.ck_buckets <> t.n_buckets || snap.ck_slots <> slots
     || snap.ck_fp_bits <> t.fp_bits || snap.ck_seed <> t.seed
  then invalid_arg "Cuckoo.absorb: geometry/seed mismatch";
  List.iter
    (fun (b, fp) ->
      if b < 0 || b >= t.n_buckets || fp <= 0 || fp >= 1 lsl t.fp_bits then
        invalid_arg "Cuckoo.absorb: entry out of range";
      let b2 = alt_bucket t b fp in
      if not (place t b b2 fp) then t.stash <- (b, fp) :: t.stash)
    snap.ck_entries
