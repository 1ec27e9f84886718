let glyphs = [| '*'; '+'; 'o'; 'x'; '#'; '@'; '%'; '&' |]

(* Plot area in characters. *)
let width = 64
let height = 16

let render ~x_min ~x_max ~y_min ~y_max ~x_label ~y_label series
    ~points_of =
  let buf = Buffer.create ((width + 12) * (height + 4)) in
  let grid = Array.make_matrix height width ' ' in
  let x_span = Float.max 1e-9 (x_max -. x_min) in
  let y_span = Float.max 1e-9 (y_max -. y_min) in
  List.iteri
    (fun si (_, s) ->
      let glyph = glyphs.(si mod Array.length glyphs) in
      List.iter
        (fun (x, y) ->
          let cx =
            int_of_float ((x -. x_min) /. x_span *. float_of_int (width - 1))
          in
          let cy =
            int_of_float ((y -. y_min) /. y_span *. float_of_int (height - 1))
          in
          if cx >= 0 && cx < width && cy >= 0 && cy < height then
            grid.(height - 1 - cy).(cx) <- glyph)
        (points_of s))
    series;
  for row = 0 to height - 1 do
    let y_val = y_max -. (float_of_int row /. float_of_int (height - 1) *. y_span) in
    Buffer.add_string buf (Printf.sprintf "  %8.1f |" y_val);
    for col = 0 to width - 1 do
      Buffer.add_char buf grid.(row).(col)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.add_string buf ("           +" ^ String.make width '-' ^ "\n");
  Buffer.add_string buf
    (Printf.sprintf "            %-12.1f%*s%12.1f  (%s)\n" x_min (width - 24)
       "" x_max x_label);
  (if y_label <> "" then
     Buffer.add_string buf (Printf.sprintf "            y: %s\n" y_label));
  List.iteri
    (fun si (label, _) ->
      Buffer.add_string buf
        (Printf.sprintf "            %c %s\n"
           glyphs.(si mod Array.length glyphs)
           label))
    series;
  Buffer.contents buf

let cdf ?(x_label = "") series =
  let all_points =
    List.concat_map (fun (_, c) -> Cdf.points c) series
  in
  match all_points with
  | [] -> "  (no samples)\n"
  | first :: _ ->
      let x_min, x_max =
        List.fold_left
          (fun (lo, hi) (p : Cdf.point) -> (Float.min lo p.Cdf.x, Float.max hi p.Cdf.x))
          (first.Cdf.x, first.Cdf.x)
          all_points
      in
      render ~x_min ~x_max ~y_min:0. ~y_max:1. ~x_label
        ~y_label:"CDF" series
        ~points_of:(fun c ->
          List.map (fun (p : Cdf.point) -> (p.Cdf.x, p.Cdf.p)) (Cdf.points c))

let xy ?(x_label = "") ?(y_label = "") series =
  let all_points = List.concat_map snd series in
  match all_points with
  | [] -> "  (no points)\n"
  | (x0, y0) :: _ ->
      let x_min, x_max, y_min, y_max =
        List.fold_left
          (fun (xl, xh, yl, yh) (x, y) ->
            (Float.min xl x, Float.max xh x, Float.min yl y, Float.max yh y))
          (x0, x0, y0, y0) all_points
      in
      let y_min = Float.min 0. y_min in
      render ~x_min ~x_max ~y_min ~y_max ~x_label ~y_label
        series ~points_of:(fun s -> s)
