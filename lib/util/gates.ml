type t = (string * float) list

let parse_line ~keys seen lineno raw =
  let line = String.trim raw in
  if line = "" || line.[0] = '#' then Ok seen
  else
    let fail fmt = Printf.ksprintf (fun s -> Error (Printf.sprintf "line %d: %s" lineno s)) fmt in
    match String.index_opt line ':' with
    | None -> fail "expected '<key>: <number>', got %S" line
    | Some c -> (
      let key = String.trim (String.sub line 0 c) in
      let value = String.trim (String.sub line (c + 1) (String.length line - c - 1)) in
      match float_of_string_opt value with
      | _ when key = "" -> fail "empty key in %S" line
      | None -> fail "%s: %S is not a number" key value
      | Some v when not (Float.is_finite v) -> fail "%s: %S is not a finite number" key value
      | Some v ->
        if not (List.mem key keys) then fail "unknown key %S" key
        else if List.mem_assoc key seen then fail "duplicate key %S" key
        else Ok ((key, v) :: seen))

let parse ~keys text =
  let rec go seen lineno = function
    | [] -> (
      match List.find_opt (fun k -> not (List.mem_assoc k seen)) keys with
      | Some k -> Error (Printf.sprintf "missing key %S" k)
      | None -> Ok seen)
    | raw :: rest ->
      Result.bind (parse_line ~keys seen lineno raw) (fun seen -> go seen (lineno + 1) rest)
  in
  go [] 1 (String.split_on_char '\n' text)

let find t key = List.assoc_opt key t
