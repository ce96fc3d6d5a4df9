type t = { name : string; mutable rev_points : (float * float) list; mutable n : int }

let create ~name = { name; rev_points = []; n = 0 }

let name t = t.name

let add t ~time v =
  (match t.rev_points with
  | (prev, _) :: _ -> assert (time >= prev)
  | [] -> ());
  t.rev_points <- (time, v) :: t.rev_points;
  t.n <- t.n + 1

let points t = List.rev t.rev_points
let length t = t.n
let last t = match t.rev_points with [] -> None | p :: _ -> Some p

let resample t ~step ~until =
  assert (step > 0.);
  let pts = Array.of_list (points t) in
  let n = Array.length pts in
  let rec grid acc i time =
    if time > until +. 1e-9 then List.rev acc
    else begin
      (* advance i to the last sample with timestamp <= time *)
      let rec advance i = if i + 1 < n && fst pts.(i + 1) <= time then advance (i + 1) else i in
      let i = if n = 0 then -1 else if fst pts.(0) > time then -1 else advance (max i 0) in
      let v = if i < 0 then 0. else snd pts.(i) in
      grid ((time, v) :: acc) i (time +. step)
    end
  in
  grid [] (-1) 0.

let pp_ascii ?(height = 16) fmt series =
  let width = 72 in
  let all_points = List.concat_map points series in
  if all_points = [] then Format.fprintf fmt "(empty series)@."
  else begin
    let tmax = List.fold_left (fun acc (t, _) -> max acc t) 0. all_points in
    let vmax = List.fold_left (fun acc (_, v) -> max acc v) 0. all_points in
    let vmax = if vmax <= 0. then 1. else vmax in
    let canvas = Array.make_matrix height width ' ' in
    let glyphs = [| '*'; 'o'; '+'; 'x'; '#'; '@' |] in
    List.iteri
      (fun si s ->
        let glyph = glyphs.(si mod Array.length glyphs) in
        let step = tmax /. float_of_int (width - 1) in
        let step = if step <= 0. then 1. else step in
        List.iter
          (fun (time, v) ->
            let col = int_of_float (time /. step +. 0.5) in
            let row = height - 1 - int_of_float (v /. vmax *. float_of_int (height - 1) +. 0.5) in
            let col = min (width - 1) (max 0 col) and row = min (height - 1) (max 0 row) in
            canvas.(row).(col) <- glyph)
          (resample s ~step ~until:tmax))
      series;
    Format.fprintf fmt "%8.2f +" vmax;
    for _ = 1 to width do Format.pp_print_char fmt '-' done;
    Format.fprintf fmt "@.";
    Array.iter
      (fun row ->
        Format.fprintf fmt "%8s |" "";
        Array.iter (Format.pp_print_char fmt) row;
        Format.fprintf fmt "@.")
      canvas;
    Format.fprintf fmt "%8.2f +" 0.;
    for _ = 1 to width do Format.pp_print_char fmt '-' done;
    Format.fprintf fmt "> t=%.1fs@." tmax;
    List.iteri
      (fun si s ->
        Format.fprintf fmt "%10s '%c' = %s@." "" glyphs.(si mod Array.length glyphs) (name s))
      series
  end

let pp_csv fmt series =
  match series with
  | [] -> ()
  | first :: _ ->
    let tmax =
      List.fold_left
        (fun acc s -> match last s with None -> acc | Some (t, _) -> max acc t)
        0. series
    in
    let step =
      match points first with
      | (t0, _) :: (t1, _) :: _ when t1 > t0 -> t1 -. t0
      | _ -> 1.
    in
    let columns = List.map (fun s -> (name s, resample s ~step ~until:tmax)) series in
    Format.fprintf fmt "time";
    List.iter (fun (n, _) -> Format.fprintf fmt ",%s" n) columns;
    Format.fprintf fmt "@.";
    let rows = List.map snd columns in
    let len = List.fold_left (fun acc r -> min acc (List.length r)) max_int rows in
    for i = 0 to len - 1 do
      let time, _ = List.nth (List.hd rows) i in
      Format.fprintf fmt "%.3f" time;
      List.iter (fun r -> Format.fprintf fmt ",%.4f" (snd (List.nth r i))) rows;
      Format.fprintf fmt "@."
    done
