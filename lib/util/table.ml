let print ~header ~rows =
  let ncols = List.length header in
  List.iter (fun r -> assert (List.length r = ncols)) rows;
  let widths = Array.make ncols 0 in
  let measure row = List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row in
  measure header;
  List.iter measure rows;
  let print_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then print_string "  ";
        Printf.printf "%-*s" widths.(i) cell)
      row;
    print_newline ()
  in
  print_row header;
  Array.iter (fun w -> print_string (String.make w '-'); print_string "  ") widths;
  print_newline ();
  List.iter print_row rows
