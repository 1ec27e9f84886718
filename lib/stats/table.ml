type t = { header : string list; mutable rows : string list list }

let create ~header = { header; rows = [] }
let add_row t row = t.rows <- row :: t.rows
let row_count t = List.length t.rows

let pp fmt t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) 0 all
  in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  List.iter measure all;
  let render row =
    let cells =
      List.mapi
        (fun i cell -> cell ^ String.make (widths.(i) - String.length cell) ' ')
        row
    in
    Format.fprintf fmt "  %s@." (String.concat "  " cells)
  in
  render t.header;
  let rule =
    Array.to_list widths
    |> List.map (fun w -> String.make w '-')
    |> String.concat "  "
  in
  Format.fprintf fmt "  %s@." rule;
  List.iter render rows

let print t = pp Format.std_formatter t
let cell_pct v = Printf.sprintf "%.1f%%" (100. *. v)
