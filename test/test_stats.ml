(* Tests for the statistics helpers the bench harness relies on. *)

module Summary = Jury_stats.Summary
module Cdf = Jury_stats.Cdf
module Rate = Jury_stats.Rate
module Table = Jury_stats.Table

module Str_contains = struct
  let contains haystack needle =
    let hl = String.length haystack and nl = String.length needle in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    nl = 0 || go 0
end

let checkf = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_summary_basic () =
  let s = Summary.of_list [ 1.; 2.; 3.; 4.; 5. ] in
  checkf "mean" 3. s.Summary.mean;
  checkf "min" 1. s.Summary.min;
  checkf "max" 5. s.Summary.max;
  checkf "p50" 3. s.Summary.p50;
  check_int "n" 5 s.Summary.n

let test_summary_percentile () =
  let xs = Array.init 101 float_of_int in
  checkf "p0" 0. (Summary.percentile xs 0.);
  checkf "p100" 100. (Summary.percentile xs 1.);
  checkf "p50" 50. (Summary.percentile xs 0.5);
  checkf "p95" 95. (Summary.percentile xs 0.95);
  (* interpolation *)
  checkf "interp" 0.5 (Summary.percentile [| 0.; 1. |] 0.5)

let test_summary_stddev () =
  checkf "constant" 0. (Summary.stddev [| 4.; 4.; 4. |]);
  let s = Summary.stddev [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_bool "known stddev" true (abs_float (s -. 2.138) < 0.01)

let test_summary_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Summary.of_array: empty")
    (fun () -> ignore (Summary.of_array [||]))

let test_cdf_basic () =
  let cdf = Cdf.of_samples [| 3.; 1.; 2.; 2. |] in
  let pts = Cdf.points cdf in
  check_int "distinct points" 3 (List.length pts);
  checkf "first x" 1. (List.hd pts).Cdf.x;
  checkf "first p" 0.25 (List.hd pts).Cdf.p;
  checkf "last p" 1.0 (List.nth pts 2).Cdf.p;
  checkf "dup collapsed p" 0.75 (List.nth pts 1).Cdf.p

let test_cdf_queries () =
  let cdf = Cdf.of_samples (Array.init 100 (fun i -> float_of_int i)) in
  checkf "quantile 0.5" 49. (Cdf.value_at cdf 0.5);
  checkf "fraction below" 0.5 (Cdf.fraction_below cdf 49.);
  checkf "fraction below min" 0. (Cdf.fraction_below cdf (-1.))

let test_cdf_downsample () =
  let cdf = Cdf.of_samples (Array.init 1000 float_of_int) in
  let small = Cdf.downsample cdf 10 in
  check_int "downsampled" 10 (List.length (Cdf.points small));
  let pts = Cdf.points small in
  checkf "keeps first" 0. (List.hd pts).Cdf.x;
  checkf "keeps last" 999. (List.nth pts 9).Cdf.x

let test_cdf_edge_cases () =
  (* value_at on an empty CDF refuses rather than inventing a value. *)
  Alcotest.check_raises "empty value_at"
    (Invalid_argument "Cdf.value_at: empty CDF") (fun () ->
      ignore (Cdf.value_at (Cdf.of_samples [||]) 0.5));
  (* k=1 must not divide by zero: it keeps the p=1 point. *)
  let cdf = Cdf.of_samples (Array.init 100 float_of_int) in
  let one = Cdf.points (Cdf.downsample cdf 1) in
  check_int "k=1 one point" 1 (List.length one);
  checkf "k=1 keeps last x" 99. (List.hd one).Cdf.x;
  checkf "k=1 keeps p=1" 1. (List.hd one).Cdf.p;
  (* fraction_below at exact sample boundaries is inclusive. *)
  let cdf = Cdf.of_samples [| 1.; 2.; 2.; 3. |] in
  checkf "at min" 0.25 (Cdf.fraction_below cdf 1.);
  checkf "below dup run" 0.25 (Cdf.fraction_below cdf 1.999);
  checkf "at dup run" 0.75 (Cdf.fraction_below cdf 2.);
  checkf "at max" 1. (Cdf.fraction_below cdf 3.);
  checkf "below min" 0. (Cdf.fraction_below cdf 0.999)

let test_rate () =
  let r = Rate.create ~window_sec:1.0 in
  Rate.tick r ~at_sec:0.5 ();
  Rate.tick r ~at_sec:0.7 ();
  Rate.tick r ~at_sec:2.5 ~count:4 ();
  check_int "total" 6 (Rate.total r);
  let series = Rate.series r in
  check_int "covers empty windows" 3 (Array.length series);
  checkf "first window rate" 2. (snd series.(0));
  checkf "empty window" 0. (snd series.(1));
  checkf "last window rate" 4. (snd series.(2));
  checkf "peak" 4. (Rate.peak_rate r);
  checkf "mean" 2. (Rate.mean_rate r)

let test_rate_negative_timestamps () =
  let r = Rate.create ~window_sec:1.0 in
  (* Truncation toward zero would merge these into one window. *)
  Rate.tick r ~at_sec:(-0.5) ();
  Rate.tick r ~at_sec:0.5 ();
  let series = Rate.series r in
  check_int "windows either side of zero" 2 (Array.length series);
  checkf "negative window starts at -1" (-1.) (fst series.(0));
  checkf "negative window rate" 1. (snd series.(0));
  checkf "positive window rate" 1. (snd series.(1));
  Alcotest.check_raises "NaN rejected"
    (Invalid_argument "Rate.tick: timestamp must be finite") (fun () ->
      Rate.tick r ~at_sec:Float.nan ());
  Alcotest.check_raises "infinity rejected"
    (Invalid_argument "Rate.tick: timestamp must be finite") (fun () ->
      Rate.tick r ~at_sec:Float.infinity ())

let test_rate_huge_span () =
  let r = Rate.create ~window_sec:1.0 in
  Rate.tick r ~at_sec:0.5 ();
  Rate.tick r ~at_sec:0.25e9 ~count:3 ();
  (* A dense series would need 250 M rows; the sparse fallback returns
     just the populated windows, in order. *)
  let series = Rate.series r in
  check_int "sparse rows only" 2 (Array.length series);
  checkf "first populated window" 0. (fst series.(0));
  checkf "second populated window" 0.25e9 (fst series.(1));
  checkf "peak over sparse series" 3. (Rate.peak_rate r);
  check_int "total" 4 (Rate.total r)

let test_table () =
  let t = Table.create ~header:[ "a"; "b" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  check_int "rows" 2 (Table.row_count t);
  let out = Format.asprintf "%a" Table.pp t in
  check_bool "aligned" true
    (String.length out > 0
    && String.split_on_char '\n' out |> List.length >= 4);
  Alcotest.(check string) "pct" "11.3%" (Table.cell_pct 0.113)

module Ascii_plot = Jury_stats.Ascii_plot

let test_ascii_plot_cdf () =
  let cdf = Cdf.of_samples (Array.init 100 float_of_int) in
  let out = Ascii_plot.cdf ~x_label:"ms" [ ("series-a", cdf) ] in
  check_bool "draws axis" true (String.length out > 200);
  check_bool "legend present" true
    (String.length out > 0
    && Str_contains.contains out "series-a");
  check_bool "x label present" true (Str_contains.contains out "(ms)");
  Alcotest.(check string) "empty input" "  (no samples)\n"
    (Ascii_plot.cdf [ ])

let test_ascii_plot_xy () =
  let out =
    Ascii_plot.xy ~x_label:"rate" ~y_label:"tput"
      [ ("up", [ (0., 0.); (10., 10.) ]); ("flat", [ (0., 5.); (10., 5.) ]) ]
  in
  check_bool "renders" true (String.length out > 200);
  check_bool "both legends" true
    (Str_contains.contains out "up" && Str_contains.contains out "flat")

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf monotone" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 100) (float_bound_exclusive 1000.))
    (fun xs ->
      let cdf = Cdf.of_samples (Array.of_list xs) in
      let pts = Cdf.points cdf in
      let rec mono = function
        | a :: (b :: _ as rest) ->
            a.Cdf.x < b.Cdf.x && a.Cdf.p < b.Cdf.p && mono rest
        | _ -> true
      in
      mono pts
      && (match List.rev pts with
         | last :: _ -> abs_float (last.Cdf.p -. 1.0) < 1e-9
         | [] -> false))

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 50) (float_bound_exclusive 100.))
              (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let arr = Array.of_list xs in
      let v = Summary.percentile arr q in
      let lo = Array.fold_left min arr.(0) arr in
      let hi = Array.fold_left max arr.(0) arr in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

let suite =
  [ ("summary basic", `Quick, test_summary_basic);
    ("summary percentile", `Quick, test_summary_percentile);
    ("summary stddev", `Quick, test_summary_stddev);
    ("summary empty", `Quick, test_summary_empty);
    ("cdf basic", `Quick, test_cdf_basic);
    ("cdf queries", `Quick, test_cdf_queries);
    ("cdf downsample", `Quick, test_cdf_downsample);
    ("cdf edge cases", `Quick, test_cdf_edge_cases);
    ("rate windows", `Quick, test_rate);
    ("rate negative timestamps", `Quick, test_rate_negative_timestamps);
    ("rate huge span stays sparse", `Quick, test_rate_huge_span);
    ("table rendering", `Quick, test_table);
    ("ascii plot cdf", `Quick, test_ascii_plot_cdf);
    ("ascii plot xy", `Quick, test_ascii_plot_xy);
    QCheck_alcotest.to_alcotest prop_cdf_monotone;
    QCheck_alcotest.to_alcotest prop_percentile_bounds ]
