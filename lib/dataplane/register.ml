module Array_reg = struct
  type t = { name : string; name_seed : int; data : float array }

  let create ~name ~slots () =
    assert (slots > 0);
    { name; name_seed = Hash.of_string name; data = Array.make slots 0. }

  let index_of t key = Hash.mix ~seed:t.name_seed ~lane:0 key mod Array.length t.data

  let get t key = t.data.(index_of t key)
  let set t key v = t.data.(index_of t key) <- v

  let bump t key delta =
    let i = index_of t key in
    t.data.(i) <- t.data.(i) +. delta;
    t.data.(i)

  let get_slot t i = t.data.(i)
  let set_slot t i v = t.data.(i) <- v

  let reset t = Array.fill t.data 0 (Array.length t.data) 0.

  let fold_slots t ~init ~f =
    let acc = ref init in
    Array.iteri (fun i v -> acc := f !acc i v) t.data;
    !acc

  let dump t =
    fold_slots t ~init:[] ~f:(fun acc i v ->
        if v <> 0. then (Printf.sprintf "%s[%d]" t.name i, v) :: acc else acc)
    |> List.rev

  let load t entries =
    let prefix = t.name ^ "[" in
    List.iter
      (fun (key, v) ->
        if String.length key > String.length prefix
           && String.sub key 0 (String.length prefix) = prefix
        then begin
          let idx_str = String.sub key (String.length prefix)
              (String.length key - String.length prefix - 1)
          in
          match int_of_string_opt idx_str with
          | Some i when i >= 0 && i < Array.length t.data -> t.data.(i) <- v
          | _ -> ()
        end)
      entries
end

module Meter = struct
  type t = {
    rate : float;
    burst : float;
    mutable tokens : float;
    mutable last : float;
  }

  let create ~rate ~burst =
    assert (rate >= 0. && burst > 0.);
    { rate; burst; tokens = burst; last = 0. }

  let refill t ~now =
    if now > t.last then begin
      (* a float comparison, not polymorphic [min], which boxes both
         operands on every call; same result as [min] *)
      let filled = t.tokens +. ((now -. t.last) *. t.rate) in
      t.tokens <- (if t.burst <= filled then t.burst else filled);
      t.last <- now
    end

  let allow t ~now ~bytes =
    refill t ~now;
    if t.tokens >= bytes then begin
      t.tokens <- t.tokens -. bytes;
      true
    end
    else false
end
