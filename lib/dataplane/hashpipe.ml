type slot = { mutable key : int; mutable cnt : float; mutable used : bool }

type t = { mutable seed : int; stages : slot array array }

let create ~stages ~slots_per_stage () =
  assert (stages > 0 && slots_per_stage > 0);
  {
    seed = 0x9747b28c;
    stages =
      Array.init stages (fun _ ->
          Array.init slots_per_stage (fun _ -> { key = 0; cnt = 0.; used = false }));
  }

(* Resident entries stay where the old salt put them. [heavy_hitters]
   and [resident_keys] scan every slot, so per-key epoch totals survive
   a mid-epoch rotation exactly; only [count]'s point probe (which
   looks where the *current* salt points) can miss pre-rotation
   residencies. *)
let reseed t seed = t.seed <- seed

let index t stage key = Hash.mix ~seed:t.seed ~lane:stage key mod Array.length t.stages.(stage)

let update t ~key ~weight =
  (* Stage 0: always insert; evict the incumbent if different. *)
  let s0 = t.stages.(0).(index t 0 key) in
  let carry =
    if not s0.used then begin
      s0.key <- key;
      s0.cnt <- weight;
      s0.used <- true;
      None
    end
    else if s0.key = key then begin
      s0.cnt <- s0.cnt +. weight;
      None
    end
    else begin
      let evicted = (s0.key, s0.cnt) in
      s0.key <- key;
      s0.cnt <- weight;
      Some evicted
    end
  in
  (* Later stages: the carried key replaces the resident entry iff its count
     is larger; otherwise the carry keeps moving (and is dropped after the
     last stage). *)
  let rec push stage carry =
    match carry with
    | None -> ()
    | Some (k, c) ->
      if stage >= Array.length t.stages then ()
      else begin
        let s = t.stages.(stage).(index t stage k) in
        if not s.used then begin
          s.key <- k;
          s.cnt <- c;
          s.used <- true
        end
        else if s.key = k then s.cnt <- s.cnt +. c
        else if c > s.cnt then begin
          let evicted = (s.key, s.cnt) in
          s.key <- k;
          s.cnt <- c;
          push (stage + 1) (Some evicted)
        end
        else push (stage + 1) carry
      end
  in
  push 1 carry

let count t ~key =
  let total = ref 0. in
  Array.iteri
    (fun si _ ->
      let s = t.stages.(si).(index t si key) in
      if s.used && s.key = key then total := !total +. s.cnt)
    t.stages;
  !total

let heavy_hitters t ~threshold =
  let table = Hashtbl.create 64 in
  Array.iter
    (Array.iter (fun s ->
         if s.used then
           Hashtbl.replace table s.key ((try Hashtbl.find table s.key with Not_found -> 0.) +. s.cnt)))
    t.stages;
  Hashtbl.fold (fun k c acc -> if c >= threshold then (k, c) :: acc else acc) table []
  |> List.sort (fun (_, c1) (_, c2) -> compare c2 c1)

let reset t =
  Array.iter
    (Array.iter (fun s ->
         s.key <- 0;
         s.cnt <- 0.;
         s.used <- false))
    t.stages

let resident_keys t =
  let keys = Hashtbl.create 64 in
  Array.iter (Array.iter (fun s -> if s.used then Hashtbl.replace keys s.key ())) t.stages;
  Hashtbl.fold (fun k () acc -> k :: acc) keys []
