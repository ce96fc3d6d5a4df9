module Graph = Ff_dataflow.Graph
module Specs = Ff_boosters.Specs

type compiled = {
  graphs : (string * Graph.t) list;
  merged : Graph.t;
  sharing : (string * string) list;
  savings : float;
}

let boosters ?names () =
  let names = match names with Some ns -> ns | None -> Specs.booster_names in
  let graphs =
    List.map (fun name -> (name, Graph.of_pipeline ~booster:name (Specs.specs_of name))) names
  in
  let merged, sharing = Graph.merge (List.map snd graphs) in
  let savings = Graph.savings ~before:(List.map snd graphs) ~after:merged in
  { graphs; merged; sharing; savings }

let pack_onto compiled ~switches =
  let capacities = List.map (fun sw -> (sw, Ff_dataplane.Resource.tofino_like)) switches in
  Ff_placement.Pack.first_fit_decreasing ~capacities compiled.merged

let verify () =
  List.map
    (fun name -> (name, Ff_dataflow.Check.check_pipeline (Specs.specs_of name)))
    Specs.booster_names

let module_rows compiled =
  List.map
    (fun v ->
      ( v.Graph.spec.Ff_dataplane.Ppm.name,
        v.Graph.boosters,
        v.Graph.spec.Ff_dataplane.Ppm.resources ))
    (Graph.vertices compiled.merged)
