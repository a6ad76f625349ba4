(* Self-tests of the benchmark's own machinery: run with [--self-test]. *)

let check name ok =
  Printf.printf "%s  %s\n" (if ok then "ok  " else "FAIL") name;
  ok

let take n next = List.init n (fun _ -> next ())

let stream_is_seeded () =
  List.for_all
    (fun (w : Workloads.t) ->
      let n = 3 * Workloads.round_length w in
      let a = take n (Workloads.stream w ~seed:42) and b = take n (Workloads.stream w ~seed:42) in
      let c = take n (Workloads.stream w ~seed:43) in
      (* Every round covers each model's whole pool exactly once. *)
      let round = take (Workloads.round_length w) (Workloads.stream w ~seed:7) in
      let distinct = List.sort_uniq compare round in
      a = b && a <> c && List.length distinct = List.length round)
    Workloads.all

let text = Option.get (Workloads.by_name "text-steady")
let no_gates _ _ _ _ = ""

let inputs_are_seeded () =
  let p1 = Workloads.make_pool text ~seed:5 ~path:no_gates in
  let p2 = Workloads.make_pool text ~seed:5 ~path:no_gates in
  let p3 = Workloads.make_pool text ~seed:6 ~path:no_gates in
  let same a b =
    List.for_all2 (fun (ta, va) (tb, vb) -> ta = tb && Tensor.equal va vb) a b
  in
  same p1.(0).(2).(1) p2.(0).(2).(1) && not (same p1.(0).(2).(1) p3.(0).(2).(1))

(* A stand-in gate path: the parity of the first token id. *)
let pool_keeps_anchor_path () =
  let path _ _ _ inputs =
    match inputs with (_, t) :: _ -> string_of_int ((Tensor.data_i t).(0) land 1) | [] -> ""
  in
  let pool = Workloads.make_pool text ~seed:5 ~path in
  Array.for_all
    (fun per_binding ->
      let paths = Array.map (path () () ()) per_binding in
      Array.for_all (( = ) paths.(0)) paths)
    pool.(0)

(* The nearest-rank definition, checked by counting rather than sorting:
   at least [ceil (p n / 100)] samples lie at or below the result, and
   fewer lie strictly below it. *)
let percentile_matches_definition () =
  let rng = Rng.create 11 in
  List.for_all
    (fun n ->
      let v = Array.init n (fun _ -> Float.round (Rng.float rng 50.0)) in
      List.for_all
        (fun p ->
          let q = Stats.percentile p v in
          let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
          let count f = Array.fold_left (fun c x -> if f x then c + 1 else c) 0 v in
          Array.mem q v && count (fun x -> x <= q) >= rank && count (fun x -> x < q) < rank)
        [ 0.0; 1.0; 10.0; 25.0; 50.0; 90.0; 99.0; 100.0 ])
    [ 1; 2; 3; 7; 10; 33; 100; 101 ]

let metric_names_valid () =
  let names = List.map fst (Metric_names.end_to_end @ Metric_names.per_layer) in
  List.for_all Stats.valid_metric_name names
  && List.length (List.sort_uniq compare names) = List.length names

let error_ratio_counts_mismatch () =
  let t = Tensor.rand_uniform (Rng.create 3) [ 4; 4 ] in
  let bad = Tensor.map_f (fun v -> v +. 1.0) t in
  let reference = [ 7, t ] in
  let mism = Oracle.mismatches reference [ [ 7, Tensor.map_f Fun.id t ]; [ 7, bad ] ] in
  mism = 1
  && Oracle.error_ratio ~submitted:2 ~failed:0 ~rejected:0 ~mismatches:mism = 0.5
  && Oracle.error_ratio ~submitted:4 ~failed:1 ~rejected:0 ~mismatches:0 = 0.25

let run () =
  List.fold_left
    (fun ok (name, test) -> check name (test ()) && ok)
    true
    [
      "same seed gives the same request stream; rounds are balanced", stream_is_seeded;
      "same seed gives the same input tensors", inputs_are_seeded;
      "every pool input takes its anchor's gate path", pool_keeps_anchor_path;
      "percentile helper agrees with the nearest-rank definition", percentile_matches_definition;
      "metric names match [A-Za-z0-9_.-]+ and are unique", metric_names_valid;
      "error_ratio counts an injected mismatch", error_ratio_counts_mismatch;
    ]
