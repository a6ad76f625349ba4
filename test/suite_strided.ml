(* Bit-identity of the strided non-GEMM kernels against the index-arithmetic
   oracle ([Kernel_oracle]), through both the boxed [Kernels.run] and the
   destination-passing [Kernels.run_into], plus the structured errors those
   kernels raise on malformed operands.  Equality is exact: every element's
   [Int64.bits_of_float] must match. *)

module K = Sod2_runtime.Kernels

(* ---- generation (a property case is one seed) ----------------------- *)

let gen_dims st ~rank =
  List.init rank (fun _ ->
      if Random.State.int st 12 = 0 then 0 else 1 + Random.State.int st 4)

let gen_dtype st = if Random.State.bool st then Tensor.F32 else Tensor.F64

(* Values in [-2, 2); some cases on a coarse grid so extremes tie. *)
let gen_tensor st dt dims =
  let coarse = Random.State.int st 3 = 0 in
  let n = List.fold_left ( * ) 1 dims in
  Tensor.of_floats dt dims
    (Array.init n (fun _ ->
         let v = Random.State.float st 4.0 -. 2.0 in
         if coarse then Float.round (v *. 2.0) /. 2.0 else v))

let gen_axis st r = if Random.State.bool st then Random.State.int st r else Random.State.int st r - r

let gen_perm st r =
  let a = Array.init r Fun.id in
  for i = r - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Broadcast operand dims for [out]: some leading axes dropped, some axes
   held at size 1. *)
let gen_broadcast_operand st out =
  let drop = Random.State.int st (List.length out + 1) in
  List.filteri (fun i _ -> i >= drop) out
  |> List.map (fun d -> if Random.State.int st 3 = 0 then 1 else d)

(* ---- comparison ------------------------------------------------------ *)

let same_bits a b =
  Tensor.dims a = Tensor.dims b
  && Tensor.dtype a = Tensor.dtype b
  &&
  if Tensor.is_float_dtype (Tensor.dtype a) then
    Array.for_all2
      (fun u v -> Int64.bits_of_float u = Int64.bits_of_float v)
      (Tensor.data_f a) (Tensor.data_f b)
  else Tensor.data_i a = Tensor.data_i b

(* [t] copied into a larger buffer at a random offset, so kernels read
   through a non-zero [voff]. *)
let offset_view st t =
  let n = Tensor.numel t in
  let off = Random.State.int st 5 in
  let buf = Tensor.fbuf_create (Tensor.dtype t) (off + n + 3) in
  Tensor.fbuf_fill buf 0 (off + n + 3) 7.0;
  Tensor.fbuf_blit ~src:(Tensor.storage_f t) ~soff:0 ~dst:buf ~doff:off ~len:n;
  Tensor.sub_view ~buf ~off ~dims:(Tensor.dims t)

let sentinel = -12345.5

(* [run_into] at a random non-zero offset of a sentinel-filled buffer of
   the expected kind: the window must hold [expected]'s bits and every
   element outside it must be untouched. *)
let run_into_matches st op inputs expected =
  let n = Tensor.numel expected in
  let co = 1 + Random.State.int st 6 in
  let len = co + n + 1 + Random.State.int st 4 in
  let c = Tensor.fbuf_create (Tensor.dtype expected) len in
  Tensor.fbuf_fill c 0 len sentinel;
  match K.run_into op (List.map (offset_view st) inputs) ~c ~co ~cap:n with
  | None -> false
  | Some dims ->
    dims = Tensor.dims expected
    && same_bits (Tensor.copy_view (Tensor.sub_view ~buf:c ~off:co ~dims)) expected
    &&
    let untouched = ref true in
    for i = 0 to len - 1 do
      if (i < co || i >= co + n) && Tensor.fbuf_get c i <> sentinel then untouched := false
    done;
    !untouched

let run1 op inputs = List.hd (K.run op inputs)

(* One property per op family: [case st] returns (op, inputs, oracle
   result); the boxed kernel must match it, and so must [run_into] when
   [into] holds. *)
let bit_identity ~name ?(into = true) case =
  QCheck2.Test.make ~name ~count:300 ~print:string_of_int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let op, inputs, expected = case st in
      same_bits (run1 op inputs) expected
      && ((not into) || run_into_matches st op inputs expected))

let kinds =
  [
    Op.Rsum, Reduction.Sum;
    Op.Rmean, Reduction.Mean;
    Op.Rmax, Reduction.Max;
    Op.Rmin, Reduction.Min;
    Op.Rprod, Reduction.Prod;
    Op.Rl2, Reduction.L2;
  ]

let prop_reduce =
  bit_identity ~name:"reduce (multi-axis, keepdims) = oracle" (fun st ->
      let r = 1 + Random.State.int st 4 in
      let x = gen_tensor st (gen_dtype st) (gen_dims st ~rank:r) in
      let rkind, kind = List.nth kinds (Random.State.int st (List.length kinds)) in
      let axes =
        if Random.State.int st 5 = 0 then []
        else
          List.filter_map
            (fun a ->
              if Random.State.bool st then Some (if Random.State.bool st then a else a - r)
              else None)
            (List.init r Fun.id)
      in
      let keepdims = Random.State.bool st in
      ( Op.Reduce { rkind; axes; keepdims },
        [ x ],
        Kernel_oracle.reduce kind x ~axes ~keepdims ))

let prop_arg_extreme =
  bit_identity ~name:"argmax/argmin = oracle" ~into:false (fun st ->
      let r = 1 + Random.State.int st 4 in
      let x = gen_tensor st (gen_dtype st) (gen_dims st ~rank:r) in
      let axis = gen_axis st r and keepdims = Random.State.bool st in
      let is_max = Random.State.bool st in
      ( (if is_max then Op.ArgMax { axis; keepdims } else Op.ArgMin { axis; keepdims }),
        [ x ],
        Kernel_oracle.arg_extreme ~is_max x ~axis ~keepdims ))

let prop_softmax =
  bit_identity ~name:"softmax/log-softmax = oracle" (fun st ->
      let r = 1 + Random.State.int st 4 in
      let x = gen_tensor st (gen_dtype st) (gen_dims st ~rank:r) in
      let axis = gen_axis st r in
      if Random.State.bool st then Op.Softmax { axis }, [ x ], Kernel_oracle.softmax x ~axis
      else Op.LogSoftmax { axis }, [ x ], Kernel_oracle.log_softmax x ~axis)

let prop_layer_norm =
  bit_identity ~name:"layer norm (mixed kinds) = oracle" (fun st ->
      let r = 1 + Random.State.int st 4 in
      let dims = gen_dims st ~rank:r in
      let len = List.nth dims (r - 1) in
      let x = gen_tensor st (gen_dtype st) dims in
      let vec () =
        let lead = List.init (Random.State.int st r) (fun _ -> 1) in
        gen_tensor st (gen_dtype st) (lead @ [ len ])
      in
      let gamma = vec () and beta = vec () in
      let eps = if Random.State.bool st then 1e-5 else 1e-12 in
      ( Op.LayerNorm { eps },
        [ x; gamma; beta ],
        Kernel_oracle.layer_norm x ~gamma ~beta ~eps ))

let prop_transpose =
  bit_identity ~name:"transpose (float) = oracle" (fun st ->
      let r = 1 + Random.State.int st 4 in
      let x = gen_tensor st (gen_dtype st) (gen_dims st ~rank:r) in
      let perm = gen_perm st r in
      Op.Transpose perm, [ x ], Kernel_oracle.transpose x perm)

let prop_transpose_int =
  bit_identity ~name:"transpose (integer) = oracle" ~into:false (fun st ->
      let r = 1 + Random.State.int st 4 in
      let dims = gen_dims st ~rank:r in
      let n = List.fold_left ( * ) 1 dims in
      let x = Tensor.create_i dims (Array.init n (fun _ -> Random.State.int st 1000 - 500)) in
      let perm = gen_perm st r in
      Op.Transpose perm, [ x ], Kernel_oracle.transpose x perm)

let float_binaries = [ Op.Add; Op.Sub; Op.Mul; Op.Div; Op.Pow; Op.Max2 ]

let prop_broadcast_float =
  bit_identity ~name:"broadcast binary (float) = oracle" (fun st ->
      let out = gen_dims st ~rank:(1 + Random.State.int st 4) in
      let dt = gen_dtype st in
      let x = gen_tensor st dt (gen_broadcast_operand st out) in
      let y = gen_tensor st dt (gen_broadcast_operand st out) in
      let b = List.nth float_binaries (Random.State.int st (List.length float_binaries)) in
      Op.Binary b, [ x; y ], Kernel_oracle.map2 (Op_semantics.float_binary_fn b) x y)

let prop_broadcast_int =
  bit_identity ~name:"broadcast binary (integer) = oracle" ~into:false (fun st ->
      let out = gen_dims st ~rank:(1 + Random.State.int st 4) in
      let gen dims =
        let n = List.fold_left ( * ) 1 dims in
        Tensor.create_i dims (Array.init n (fun _ -> Random.State.int st 200 - 100))
      in
      let x = gen (gen_broadcast_operand st out) and y = gen (gen_broadcast_operand st out) in
      let b = List.nth [ Op.Add; Op.Sub; Op.Mul ] (Random.State.int st 3) in
      Op.Binary b, [ x; y ], Kernel_oracle.map2i (Op_semantics.int_binary_fn b) x y)

(* ---- structured errors ------------------------------------------------ *)

let expect_error name cls f =
  match f () with
  | _ -> Alcotest.failf "%s: no error raised" name
  | exception Sod2_error.Error e when e.Sod2_error.cls = cls -> ()
  | exception Sod2_error.Error e ->
    Alcotest.failf "%s: wrong class %s (%s)" name (Sod2_error.class_name e.Sod2_error.cls)
      e.Sod2_error.msg
  | exception ex -> Alcotest.failf "%s: stray exception %s" name (Printexc.to_string ex)

let x23 = Tensor.create_f [ 2; 3 ] [| 1.; 2.; 3.; 4.; 5.; 6. |]
let i23 = Tensor.create_i [ 2; 3 ] [| 1; 2; 3; 4; 5; 6 |]

let test_axis_out_of_range () =
  expect_error "softmax axis 2" Sod2_error.Shape_mismatch (fun () ->
      run1 (Op.Softmax { axis = 2 }) [ x23 ]);
  expect_error "log-softmax axis -3" Sod2_error.Shape_mismatch (fun () ->
      run1 (Op.LogSoftmax { axis = -3 }) [ x23 ]);
  expect_error "reduce axis 5" Sod2_error.Shape_mismatch (fun () ->
      run1 (Op.Reduce { rkind = Op.Rsum; axes = [ 0; 5 ]; keepdims = true }) [ x23 ]);
  expect_error "argmax axis -3" Sod2_error.Shape_mismatch (fun () ->
      run1 (Op.ArgMax { axis = -3; keepdims = false }) [ x23 ])

let test_transpose_non_permutation () =
  expect_error "perm with a repeat" Sod2_error.Shape_mismatch (fun () ->
      run1 (Op.Transpose [ 0; 0 ]) [ x23 ]);
  expect_error "perm of the wrong rank" Sod2_error.Shape_mismatch (fun () ->
      run1 (Op.Transpose [ 1; 0; 2 ]) [ x23 ])

let test_layer_norm_affine_length () =
  let g2 = Tensor.create_f [ 2 ] [| 1.; 1. |] and b3 = Tensor.create_f [ 3 ] [| 0.; 0.; 0. |] in
  expect_error "gamma of length 2 on last dim 3" Sod2_error.Shape_mismatch (fun () ->
      run1 (Op.LayerNorm { eps = 1e-5 }) [ x23; g2; b3 ]);
  expect_error "beta of length 2 on last dim 3" Sod2_error.Shape_mismatch (fun () ->
      run1 (Op.LayerNorm { eps = 1e-5 }) [ x23; b3; g2 ])

let test_integer_input () =
  expect_error "reduce on i64" Sod2_error.Unsupported (fun () ->
      run1 (Op.Reduce { rkind = Op.Rsum; axes = [ 1 ]; keepdims = false }) [ i23 ]);
  expect_error "argmax on i64" Sod2_error.Unsupported (fun () ->
      run1 (Op.ArgMax { axis = 1; keepdims = false }) [ i23 ]);
  expect_error "softmax on i64" Sod2_error.Unsupported (fun () ->
      run1 (Op.Softmax { axis = 1 }) [ i23 ])

(* A window that does not fit its buffer is refused before any store. *)
let test_run_into_window_checked () =
  let c = Tensor.fbuf_create Tensor.F32 8 in
  expect_error "destination past the end" Sod2_error.Plan_violation (fun () ->
      K.run_into (Op.Softmax { axis = 1 }) [ Tensor.view_f x23 ] ~c ~co:4 ~cap:6)

let suite =
  [
    Alcotest.test_case "errors: axis out of range" `Quick test_axis_out_of_range;
    Alcotest.test_case "errors: transpose non-permutation" `Quick
      test_transpose_non_permutation;
    Alcotest.test_case "errors: layer-norm gamma/beta length" `Quick
      test_layer_norm_affine_length;
    Alcotest.test_case "errors: integer input" `Quick test_integer_input;
    Alcotest.test_case "errors: run_into window checked" `Quick test_run_into_window_checked;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_reduce;
        prop_arg_extreme;
        prop_softmax;
        prop_layer_norm;
        prop_transpose;
        prop_transpose_int;
        prop_broadcast_float;
        prop_broadcast_int;
      ]
