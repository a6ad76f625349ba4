(* Small numeric and reporting helpers shared by the benchmark and
   its self-tests. *)

(* Nearest-rank percentile ([p] in [0, 100]): the smallest sample with at
   least [p] percent of the samples at or below it. *)
let percentile p values =
  let n = Array.length values in
  if n = 0 then 0.0
  else begin
    let a = Array.copy values in
    Array.sort compare a;
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))
  end

let median values = percentile 50.0 values

let mean values =
  let n = Array.length values in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 values /. float_of_int n

(* Ratio that reads 0 instead of nan/inf when the base is empty. *)
let ratio a b = if b = 0.0 then 0.0 else a /. b

let valid_metric_name s =
  String.length s >= 1 && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

type metric = { name : string; unit_ : string; value : float }

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

(* The one-line result record: exactly [correct], [attempted], [failed]
   and [metrics]. *)
let result_json ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun { name; unit_; value } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number value) unit_)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)
