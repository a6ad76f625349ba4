(* The C tile kernels behind [Blocked.gemm] and the int8 GEMM, checked
   through both the dispatched target clone (whatever the CPU runs) and
   the portable build of the same source.

   Float: every element's [Int64.bits_of_float] must equal the naive
   reference [Linalg.naive_kernel] (DESIGN.md §14), over every {F32, F64}
   kind of A, B and C, ragged m/n (not multiples of the 4×16 micro-tile),
   k = 1, operands at non-zero offsets inside sentinel-filled buffers
   whose sentinels must survive, with and without an epilogue.

   Int8: exact agreement with [Reference.gemm_i8_acc] followed by
   [Reference.requantize] (or the reference dequantization), with random
   zero points, per-tensor and per-row epilogues, and the depth cap. *)

module RT = Sod2_runtime

let sentinel = -7.25

type float_kernel =
  ?par:Blocked.par -> ?tiles:Blocked.tiles -> ?epilogue:(int -> float -> float) ->
  ?ep_off:int -> m:int -> n:int -> k:int -> a:Tensor.fbuf -> ao:int ->
  b:Tensor.fbuf -> bo:int -> c:Tensor.fbuf -> co:int -> unit -> unit

let float_kernels : (string * float_kernel) list =
  [ "dispatched", Blocked.gemm; "portable", Blocked.For_testing.gemm_portable ]

let gen_kind st = if Random.State.bool st then Tensor.F32 else Tensor.F64

(* A buffer of [off + len + pad] sentinels with [len] random values at
   [off]; some cases use a coarse grid so products and sums tie. *)
let gen_window st dt len =
  let off = Random.State.int st 9 and pad = Random.State.int st 9 in
  let buf = Tensor.fbuf_create dt (off + len + pad) in
  Tensor.fbuf_fill buf 0 (off + len + pad) sentinel;
  let coarse = Random.State.int st 3 = 0 in
  for i = 0 to len - 1 do
    let v = Random.State.float st 4.0 -. 2.0 in
    Tensor.fbuf_set buf (off + i) (if coarse then Float.round (v *. 4.0) /. 4.0 else v)
  done;
  buf, off

let copy_buf b =
  let c = Tensor.fbuf_create (Tensor.fbuf_dtype b) (Tensor.fbuf_len b) in
  Tensor.fbuf_blit ~src:b ~soff:0 ~dst:c ~doff:0 ~len:(Tensor.fbuf_len b);
  c

let same_bits x y =
  Tensor.fbuf_len x = Tensor.fbuf_len y
  &&
  let ok = ref true in
  for i = 0 to Tensor.fbuf_len x - 1 do
    if Int64.bits_of_float (Tensor.fbuf_get x i) <> Int64.bits_of_float (Tensor.fbuf_get y i)
    then ok := false
  done;
  !ok

(* The expected C buffer: the naive kernel accumulates into an f64 copy
   of the C window (exact, so it holds the pre-store double value), then
   the epilogue (if any) runs on that value and the C-kind store rounds
   once. *)
let reference ?epilogue ~m ~n ~k ~a ~ao ~b ~bo ~c ~co () =
  let expect = copy_buf c in
  let acc = Tensor.fbuf_create Tensor.F64 (m * n) in
  for i = 0 to (m * n) - 1 do
    Tensor.fbuf_set acc i (Tensor.fbuf_get c (co + i))
  done;
  Linalg.naive_kernel ~m ~n ~k ~a ~ao ~b ~bo ~c:acc ~co:0;
  for i = 0 to (m * n) - 1 do
    let v = Tensor.fbuf_get acc i in
    Tensor.fbuf_set expect (co + i) (match epilogue with Some f -> f i v | None -> v)
  done;
  expect

let float_case (name, (gemm : float_kernel)) seed =
  let st = Random.State.make [| seed |] in
  let m = 1 + Random.State.int st 41 and n = 1 + Random.State.int st 70 in
  let k = if Random.State.int st 4 = 0 then 1 else 1 + Random.State.int st 40 in
  let a, ao = gen_window st (gen_kind st) (m * k) in
  let b, bo = gen_window st (gen_kind st) (k * n) in
  let c, co = gen_window st (gen_kind st) (m * n) in
  let epilogue =
    if Random.State.bool st then None
    else Some (fun ei v -> (v *. 0.5) -. float_of_int (ei mod 7))
  in
  let tiles =
    Blocked.tiles_of ~tile_m:(32 * (1 + Random.State.int st 2))
      ~tile_n:(16 * (1 + Random.State.int st 4)) ~tile_k:64 ~unroll:4
  in
  let expect = reference ?epilogue ~m ~n ~k ~a ~ao ~b ~bo ~c ~co () in
  gemm ~tiles ?epilogue ~ep_off:co ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ();
  if not (same_bits c expect) then
    QCheck2.Test.fail_reportf "%s: m=%d n=%d k=%d kinds A=%s B=%s C=%s epilogue=%b" name m n
      k
      (Tensor.dtype_name (Tensor.fbuf_dtype a))
      (Tensor.dtype_name (Tensor.fbuf_dtype b))
      (Tensor.dtype_name (Tensor.fbuf_dtype c))
      (epilogue <> None);
  for i = 0 to Tensor.fbuf_len c - 1 do
    if (i < co || i >= co + (m * n)) && Tensor.fbuf_get c i <> sentinel then
      QCheck2.Test.fail_reportf "%s: sentinel at %d overwritten" name i
  done;
  true

let prop_float kern =
  QCheck2.Test.make
    ~name:(Printf.sprintf "float tile == naive kernel, bit for bit (%s)" (fst kern))
    ~count:300 QCheck2.Gen.int (float_case kern)

(* 0 × Inf is NaN in every kernel — the naive one included, which once
   skipped zero terms of A — and Inf/NaN operands flow through the tile
   like any other value.  NaN payloads are not part of the contract, so
   NaNs compare as NaNs. *)
let test_non_finite () =
  let m = 5 and n = 19 and k = 6 in
  let mk dt len f =
    let b = Tensor.fbuf_create dt len in
    for i = 0 to len - 1 do
      Tensor.fbuf_set b i (f i)
    done;
    b
  in
  let special = [| 0.0; infinity; neg_infinity; nan; 1.5; -0.0 |] in
  List.iter
    (fun dt ->
      let a = mk dt (m * k) (fun i -> special.(i * 7 mod 6)) in
      let b = mk dt (k * n) (fun i -> special.(i * 5 mod 6)) in
      let run kernel =
        let c = Tensor.fbuf_create dt (m * n) in
        kernel c;
        c
      in
      let naive = run (fun c -> Linalg.naive_kernel ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0) in
      let zero_inf =
        let a = mk dt 1 (fun _ -> 0.0) and b = mk dt 1 (fun _ -> infinity) in
        run (fun c -> Linalg.naive_kernel ~m:1 ~n:1 ~k:1 ~a ~ao:0 ~b ~bo:0 ~c ~co:0)
      in
      Alcotest.(check bool)
        "naive: 0 * inf is nan" true
        (Float.is_nan (Tensor.fbuf_get zero_inf 0));
      List.iter
        (fun (name, (gemm : float_kernel)) ->
          let tile = run (fun c -> gemm ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0 ()) in
          for i = 0 to (m * n) - 1 do
            let x = Tensor.fbuf_get tile i and y = Tensor.fbuf_get naive i in
            let same = Int64.bits_of_float x = Int64.bits_of_float y in
            if not (same || (Float.is_nan x && Float.is_nan y)) then
              Alcotest.failf "%s %s element %d: tile %h vs naive %h" name
                (Tensor.dtype_name dt) i x y
          done)
        float_kernels)
    [ Tensor.F32; Tensor.F64 ]

(* ---- int8 ------------------------------------------------------------ *)

type i8_kernel =
  ?par:Blocked.par -> ?tiles:Blocked.tiles -> za:int -> zb:int ->
  epilogue:Blocked.i8_epilogue -> m:int -> n:int -> k:int -> a:Tensor.i8buf -> ao:int ->
  b:Tensor.i8buf -> bo:int -> c:Tensor.i8buf -> co:int -> unit -> unit

type i8_dequant_kernel =
  ?par:Blocked.par -> ?tiles:Blocked.tiles -> za:int -> zb:int ->
  epilogue:Blocked.i8_epilogue -> m:int -> n:int -> k:int -> a:Tensor.i8buf -> ao:int ->
  b:Tensor.i8buf -> bo:int -> c:Tensor.fbuf -> co:int -> unit -> unit

let i8_kernels : (string * i8_kernel * i8_dequant_kernel) list =
  [
    "dispatched", Blocked.gemm_i8, Blocked.gemm_i8_dequant;
    ( "portable",
      Blocked.For_testing.gemm_i8_portable,
      Blocked.For_testing.gemm_i8_dequant_portable );
  ]

let i8_sentinel = 99

(* An int8 operand of [len] values at a random offset inside a sentinel
   buffer, returned with its values for the reference. *)
let gen_i8 st ?(value = fun st -> Random.State.int st 256 - 128) len =
  let off = Random.State.int st 9 in
  let vals = Array.init len (fun _ -> value st) in
  let buf = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (off + len + 3) in
  Bigarray.Array1.fill buf i8_sentinel;
  Array.iteri (fun i v -> Bigarray.Array1.set buf (off + i) v) vals;
  buf, off, vals

let gen_requant ?multiplier st =
  let multiplier =
    match multiplier with Some x -> x | None -> Float.exp (Random.State.float st 9.0 -. 6.0)
  in
  Quant.requant_of_multiplier ~multiplier ~zp:(Random.State.int st 256 - 128)

(* One int8 case: requantizing into an int8 C and dequantizing into a
   float C, both against the reference accumulators. *)
let i8_case (name, (gemm_i8 : i8_kernel), (gemm_dq : i8_dequant_kernel)) ~m ~n ~k ?value
    ?multiplier st =
  let za = Random.State.int st 256 - 128 and zb = Random.State.int st 256 - 128 in
  let a, ao, av = gen_i8 st ?value (m * k) in
  let b, bo, bv = gen_i8 st ?value (k * n) in
  let accs =
    RT.Reference.gemm_i8_acc ~za ~zb ~m ~n ~k
      (Tensor.of_ints Tensor.I8 [ m; k ] av)
      (Tensor.of_ints Tensor.I8 [ k; n ] bv)
  in
  let per_row = Random.State.bool st in
  let rqs = Array.init (if per_row then m else 1) (fun _ -> gen_requant ?multiplier st) in
  let co = Random.State.int st 5 in
  let c = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (co + (m * n) + 2) in
  Bigarray.Array1.fill c i8_sentinel;
  let tiles =
    Blocked.tiles_of ~tile_m:(32 * (1 + Random.State.int st 2))
      ~tile_n:(4 * (1 + Random.State.int st 16)) ~tile_k:64 ~unroll:4
  in
  gemm_i8 ~tiles ~za ~zb ~epilogue:(Blocked.Requant rqs) ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ();
  for i = 0 to Bigarray.Array1.dim c - 1 do
    let got = Bigarray.Array1.get c i in
    if i < co || i >= co + (m * n) then begin
      if got <> i8_sentinel then
        QCheck2.Test.fail_reportf "%s: int8 sentinel %d overwritten" name i
    end
    else
      let e = i - co in
      let rq = rqs.(if per_row then e / n else 0) in
      let expect =
        RT.Reference.requantize ~qm:rq.Quant.qm ~shift:rq.Quant.shift ~zp:rq.Quant.zp accs.(e)
      in
      if got <> expect then
        QCheck2.Test.fail_reportf "%s: m=%d n=%d k=%d za=%d zb=%d element %d: %d vs %d" name m
          n k za zb e got expect
  done;
  let dt = gen_kind st in
  let scales =
    Array.init (if per_row then m else 1) (fun _ -> Random.State.float st 0.01 +. 1e-4)
  in
  let bias =
    if Random.State.bool st then None
    else Some (Array.map (fun _ -> Random.State.float st 2.0 -. 1.0) scales)
  in
  let cf = Tensor.fbuf_create dt (co + (m * n) + 2) in
  Tensor.fbuf_fill cf 0 (Tensor.fbuf_len cf) sentinel;
  gemm_dq ~tiles ~za ~zb ~epilogue:(Blocked.Dequant { scales; bias }) ~m ~n ~k ~a ~ao ~b ~bo
    ~c:cf ~co ();
  for e = 0 to (m * n) - 1 do
    let r = if per_row then e / n else 0 in
    let v = float_of_int accs.(e) *. scales.(r) in
    let v = match bias with Some bs -> v +. bs.(r) | None -> v in
    let expect = if dt = Tensor.F32 then Tensor.round_f32 v else v in
    let got = Tensor.fbuf_get cf (co + e) in
    if Int64.bits_of_float got <> Int64.bits_of_float expect then
      QCheck2.Test.fail_reportf "%s: dequant element %d: %h vs %h" name e got expect
  done;
  if Tensor.fbuf_get cf (co + (m * n)) <> sentinel then
    QCheck2.Test.fail_reportf "%s: float sentinel overwritten" name;
  true

let prop_i8 kern =
  let name, _, _ = kern in
  QCheck2.Test.make
    ~name:(Printf.sprintf "int8 tile == reference accumulators + requantize (%s)" name)
    ~count:150 QCheck2.Gen.int (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = 1 + Random.State.int st 40 and n = 1 + Random.State.int st 40 in
      let k = if Random.State.int st 4 = 0 then 1 else 1 + Random.State.int st 70 in
      i8_case kern ~m ~n ~k st)

(* At the depth cap the raw dot products reach ±2^30 and the corrected
   accumulators exceed int32: all-extreme operands, then random ones, then
   a multiplier whose left shift overflows the 63-bit [acc lsl shift] of
   the OCaml transcriptions (which the kernel reproduces). *)
let test_i8_max_depth () =
  List.iter
    (fun kern ->
      let st = Random.State.make [| 13 |] in
      ignore (i8_case kern ~m:3 ~n:5 ~k:Blocked.max_i8_depth ~value:(fun _ -> -128) st);
      ignore (i8_case kern ~m:2 ~n:3 ~k:Blocked.max_i8_depth st);
      ignore
        (i8_case kern ~m:3 ~n:2 ~k:Blocked.max_i8_depth ~value:(fun _ -> -128)
           ~multiplier:1e12 st))
    i8_kernels

let test_i8_depth_rejected () =
  let len = Blocked.max_i8_depth + 1 in
  let a = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout len in
  let c = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout 1 in
  let rq = Quant.requant_of_multiplier ~multiplier:0.01 ~zp:0 in
  match
    Blocked.gemm_i8 ~za:0 ~zb:0 ~epilogue:(Blocked.Requant [| rq |]) ~m:1 ~n:1
      ~k:(Blocked.max_i8_depth + 1) ~a ~ao:0 ~b:a ~bo:0 ~c ~co:0 ()
  with
  | () -> Alcotest.fail "depth beyond the cap accepted"
  | exception Invalid_argument _ -> ()

let test_isa_named () =
  Alcotest.(check bool) "known ISA name" true
    (List.mem (Blocked.isa ()) [ "x86-64-v4"; "x86-64-v3"; "portable" ])

let suite =
  List.map (fun k -> QCheck_alcotest.to_alcotest (prop_float k)) float_kernels
  @ List.map (fun k -> QCheck_alcotest.to_alcotest (prop_i8 k)) i8_kernels
  @ [
      Alcotest.test_case "Inf/NaN operands: naive and tile agree" `Quick test_non_finite;
      Alcotest.test_case "int8 at the depth cap" `Quick test_i8_max_depth;
      Alcotest.test_case "int8 beyond the depth cap rejected" `Quick test_i8_depth_rejected;
      Alcotest.test_case "isa names a build" `Quick test_isa_named;
    ]
