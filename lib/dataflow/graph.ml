open Ff_dataplane

type vertex = { vid : int; spec : Ppm.spec; boosters : string list }

type edge = { u : int; v : int; weight : float }

type t = { vertices : vertex array; edges : edge list }

let shared_weight a b = float_of_int (List.length (Ppm.state_shared a b))

let of_pipeline ~booster specs =
  let vertices =
    Array.of_list (List.mapi (fun i spec -> { vid = i; spec; boosters = [ booster ] }) specs)
  in
  let n = Array.length vertices in
  let edges = ref [] in
  (* chain edges in pipeline order *)
  for i = 0 to n - 2 do
    edges :=
      { u = i; v = i + 1; weight = shared_weight vertices.(i).spec vertices.(i + 1).spec }
      :: !edges
  done;
  (* long-range state-sharing edges *)
  for i = 0 to n - 1 do
    for j = i + 2 to n - 1 do
      let w = shared_weight vertices.(i).spec vertices.(j).spec in
      if w > 0. then edges := { u = i; v = j; weight = w } :: !edges
    done
  done;
  { vertices; edges = List.rev !edges }

let vertices t = Array.to_list t.vertices
let edges t = t.edges
let vertex t i = t.vertices.(i)
let num_vertices t = Array.length t.vertices

let total_resources t =
  Resource.sum (Array.to_list (Array.map (fun v -> v.spec.Ppm.resources) t.vertices))

let resource_max (a : Resource.t) (b : Resource.t) : Resource.t =
  {
    stages = Float.max a.stages b.stages;
    sram_kb = Float.max a.sram_kb b.sram_kb;
    tcam = Float.max a.tcam b.tcam;
    alus = Float.max a.alus b.alus;
    hash_units = Float.max a.hash_units b.hash_units;
  }

let merge graphs =
  (* Concatenate all vertices, then collapse equivalence classes. *)
  let all =
    List.concat_map
      (fun g -> List.map (fun v -> (g, v)) (Array.to_list g.vertices))
      graphs
  in
  let merged : vertex list ref = ref [] in
  let report = ref [] in
  (* For each (graph, old vid) remember the new vid. *)
  let remap : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let graph_index g = Hashtbl.hash (Obj.repr g) in
  List.iter
    (fun (g, v) ->
      let existing =
        List.find_opt (fun m -> Equiv.equivalent m.spec v.spec) !merged
      in
      match existing with
      | Some m ->
        report := (m.spec.Ppm.name, v.spec.Ppm.name) :: !report;
        let updated =
          {
            m with
            boosters = List.sort_uniq compare (v.boosters @ m.boosters);
            spec = { m.spec with resources = resource_max m.spec.Ppm.resources v.spec.Ppm.resources };
          }
        in
        merged := List.map (fun x -> if x.vid = m.vid then updated else x) !merged;
        Hashtbl.replace remap (Hashtbl.hash (graph_index g, v.vid)) m.vid
      | None ->
        let vid = List.length !merged in
        merged := !merged @ [ { v with vid } ];
        Hashtbl.replace remap (Hashtbl.hash (graph_index g, v.vid)) vid)
    all;
  let edges =
    List.concat_map
      (fun g ->
        List.map
          (fun e ->
            {
              u = Hashtbl.find remap (Hashtbl.hash (graph_index g, e.u));
              v = Hashtbl.find remap (Hashtbl.hash (graph_index g, e.v));
              weight = e.weight;
            })
          g.edges)
      graphs
  in
  (* deduplicate edges, keeping the max weight *)
  let table = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.u <> e.v then begin
        let key = (min e.u e.v, max e.u e.v) in
        match Hashtbl.find_opt table key with
        | Some w when w >= e.weight -> ()
        | _ -> Hashtbl.replace table key e.weight
      end)
    edges;
  let edges =
    Hashtbl.fold (fun (u, v) weight acc -> { u; v; weight } :: acc) table []
    |> List.sort (fun e1 e2 -> compare (e1.u, e1.v) (e2.u, e2.v))
  in
  ({ vertices = Array.of_list !merged; edges }, List.rev !report)

let clusters t =
  let n = Array.length t.vertices in
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let union i j =
    let ri = find i and rj = find j in
    if ri <> rj then parent.(ri) <- rj
  in
  List.iter (fun e -> if e.weight >= 1. then union e.u e.v) t.edges;
  let groups = Hashtbl.create 16 in
  for i = 0 to n - 1 do
    let r = find i in
    Hashtbl.replace groups r (i :: (try Hashtbl.find groups r with Not_found -> []))
  done;
  Hashtbl.fold (fun _ members acc -> List.rev members :: acc) groups []
  |> List.sort compare

let savings ~before ~after =
  let sum_stages gs =
    List.fold_left (fun acc g -> acc +. (total_resources g).Resource.stages) 0. gs
  in
  let b = sum_stages before in
  if b <= 0. then 0. else (b -. (total_resources after).Resource.stages) /. b

let to_dot ?(name = "dataflow") t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %S {\n  rankdir=LR;\n" name);
  Array.iter
    (fun v ->
      let shared = List.length v.boosters > 1 in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\\n%s | %.0f stages\"%s];\n" v.vid
           v.spec.Ppm.name
           (Ppm.role_to_string v.spec.Ppm.role)
           v.spec.Ppm.resources.Resource.stages
           (if shared then " peripheries=2 style=bold" else "")))
    t.vertices;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%.0f\"%s];\n" e.u e.v e.weight
           (if e.weight > 0. then " penwidth=2" else "")))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
