(* The C kernels of gemm_stubs.c — the GEMM tiles, the implicit-im2col
   convolutions, the pools and the int8 tiles — checked through both the
   dispatched target clone (whatever the CPU runs) and the portable build
   of the same source.

   Float: every element's [Int64.bits_of_float] must equal the naive
   reference [Linalg.naive_kernel] (DESIGN.md §14), over every {F32, F64}
   kind of A, B and C, ragged m/n (not multiples of the 4×16 micro-tile),
   k = 0 and 1, operands at non-zero offsets inside sentinel-filled
   buffers whose sentinels must survive, with and without a typed
   epilogue program, whose result must equal the OCaml composition of
   the element functions it replaces (each step kind on its own, random
   programs, and grouped convolutions with per-channel programs).
   Convolutions must equal the explicit OCaml im2col over the naive GEMM
   ([Kernel_oracle.conv2d_im2col]) and pools the tap-by-tap oracle walk.

   Int8: exact agreement with [Reference.gemm_i8_acc] (and, for
   convolutions, [Reference.conv2d_i8_acc]) followed by
   [Reference.requantize] (or the reference dequantization), with random
   zero points, per-tensor and per-row epilogues, and the depth cap. *)

module RT = Sod2_runtime

let sentinel = -7.25

type float_kernel =
  ?par:Blocked.par -> ?tiles:Blocked.tiles -> ?epilogue:Blocked.f_epilogue ->
  ?ep_off:int -> m:int -> n:int -> k:int -> a:Tensor.fbuf -> ao:int ->
  b:Tensor.fbuf -> bo:int -> c:Tensor.fbuf -> co:int -> unit -> unit

let float_kernels : (string * float_kernel) list =
  [ "dispatched", Blocked.gemm; "portable", Blocked.For_testing.gemm_portable ]

type conv_kernel =
  ?par:Blocked.par -> ?tiles:Blocked.tiles -> ?epilogue:Blocked.f_epilogue -> ?ep_off:int ->
  stride:int * int -> pad:int * int * int * int -> dilation:int * int -> groups:int ->
  Tensor.view -> Tensor.view -> Tensor.view option -> c:Tensor.fbuf -> co:int -> int list

let conv_kernels : (string * conv_kernel) list =
  [
    "dispatched", Blocked.conv2d_im2col_into;
    "portable", Blocked.For_testing.conv2d_im2col_into_portable;
  ]

let gen_kind st = if Random.State.bool st then Tensor.F32 else Tensor.F64

(* A buffer of [off + len + pad] sentinels with [len] random values at
   [off]; some cases use a coarse grid so products and sums tie. *)
let gen_window ?(f32_values = false) st dt len =
  let off = Random.State.int st 9 and pad = Random.State.int st 9 in
  let buf = Tensor.fbuf_create dt (off + len + pad) in
  Tensor.fbuf_fill buf 0 (off + len + pad) sentinel;
  let coarse = Random.State.int st 3 = 0 in
  for i = 0 to len - 1 do
    let v = Random.State.float st 4.0 -. 2.0 in
    let v = if coarse then Float.round (v *. 4.0) /. 4.0 else v in
    Tensor.fbuf_set buf (off + i) (if f32_values then Tensor.round_f32 v else v)
  done;
  buf, off

let copy_buf b =
  let c = Tensor.fbuf_create (Tensor.fbuf_dtype b) (Tensor.fbuf_len b) in
  Tensor.fbuf_blit ~src:b ~soff:0 ~dst:c ~doff:0 ~len:(Tensor.fbuf_len b);
  c

(* Bit for bit, except that NaN payloads are not part of the contract. *)
let same_value x y =
  Int64.bits_of_float x = Int64.bits_of_float y || (Float.is_nan x && Float.is_nan y)

let same_bits x y =
  Tensor.fbuf_len x = Tensor.fbuf_len y
  &&
  let ok = ref true in
  for i = 0 to Tensor.fbuf_len x - 1 do
    if not (same_value (Tensor.fbuf_get x i) (Tensor.fbuf_get y i)) then ok := false
  done;
  !ok

(* ---- the typed epilogue against the OCaml element functions ---------- *)

(* What each step means, written with the functions the op-by-op kernels
   run. *)
let ocaml_unary : Blocked.f_unary -> float -> float = function
  | Blocked.Relu -> Op_semantics.unary_fn Op.Relu
  | Blocked.Leaky_relu a -> Op_semantics.unary_fn (Op.LeakyRelu a)
  | Blocked.Clip (lo, hi) -> fun v -> Float.min hi (Float.max lo v)
  | Blocked.Sigmoid -> Op_semantics.unary_fn Op.Sigmoid
  | Blocked.Tanh -> Op_semantics.unary_fn Op.Tanh
  | Blocked.Exp -> Op_semantics.unary_fn Op.Exp
  | Blocked.Log -> Op_semantics.unary_fn Op.Log
  | Blocked.Sqrt -> Op_semantics.unary_fn Op.Sqrt
  | Blocked.Neg -> Op_semantics.unary_fn Op.Neg
  | Blocked.Abs -> Op_semantics.unary_fn Op.Abs
  | Blocked.Erf -> Op_semantics.unary_fn Op.Erf
  | Blocked.Gelu -> Op_semantics.unary_fn Op.Gelu
  | Blocked.Hard_swish -> Op_semantics.unary_fn Op.HardSwish
  | Blocked.Softplus -> Op_semantics.unary_fn Op.Softplus
  | Blocked.Floor -> Op_semantics.unary_fn Op.Floor
  | Blocked.Ceil -> Op_semantics.unary_fn Op.Ceil
  | Blocked.Reciprocal -> Op_semantics.unary_fn Op.Reciprocal
  | Blocked.Softsign -> Op_semantics.unary_fn Op.Softsign
  | Blocked.Sign -> Op_semantics.unary_fn Op.Sign
  | Blocked.Not -> Op_semantics.unary_fn Op.Not

let ocaml_binop : Blocked.f_binop -> float -> float -> float = function
  | Blocked.Add -> Op_semantics.float_binary_fn Op.Add
  | Blocked.Sub -> Op_semantics.float_binary_fn Op.Sub
  | Blocked.Mul -> Op_semantics.float_binary_fn Op.Mul
  | Blocked.Div -> Op_semantics.float_binary_fn Op.Div
  | Blocked.Max2 -> Op_semantics.float_binary_fn Op.Max2
  | Blocked.Min2 -> Op_semantics.float_binary_fn Op.Min2

let ocaml_epilogue (steps : Blocked.f_epilogue) flat v =
  List.fold_left
    (fun v -> function
      | Blocked.Binary { op; x = { Blocked.obuf; ooff; odiv; olen }; chain_left } ->
        let o = Tensor.fbuf_get obuf (ooff + (flat / odiv mod olen)) in
        if chain_left then ocaml_binop op v o else ocaml_binop op o v
      | Blocked.Unary u -> ocaml_unary u v
      | Blocked.Round_f32 -> Tensor.round_f32 v)
    v steps

let all_unaries st =
  Blocked.
    [
      Relu; Leaky_relu (Random.State.float st 0.5); Clip (-0.5, 0.75); Sigmoid; Tanh; Exp;
      Log; Sqrt; Neg; Abs; Erf; Gelu; Hard_swish; Softplus; Floor; Ceil; Reciprocal;
      Softsign; Sign; Not;
    ]

let all_binops = Blocked.[ Add; Sub; Mul; Div; Max2; Min2 ]

(* A random program over an output of [total] elements in rows of [row]:
   operands are scalars, per-row (channel) vectors, last-axis vectors,
   same-shape tensors or arbitrary (div, len) pairs, each in a sentinel
   window of either kind. *)
let gen_epilogue st ~total ~row =
  let operand () =
    let odiv, olen =
      match Random.State.int st 5 with
      | 0 -> 1, 1
      | 1 -> row, max 1 (total / row)
      | 2 -> 1, row
      | 3 -> 1, total
      | _ -> 1 + Random.State.int st 7, 1 + Random.State.int st 9
    in
    let obuf, ooff = gen_window st (gen_kind st) olen in
    { Blocked.obuf; ooff; odiv; olen }
  in
  List.init (Random.State.int st 7) (fun _ ->
      match Random.State.int st 3 with
      | 0 ->
        Blocked.Binary
          {
            op = List.nth all_binops (Random.State.int st 6);
            x = operand ();
            chain_left = Random.State.bool st;
          }
      | 1 ->
        let us = all_unaries st in
        Blocked.Unary (List.nth us (Random.State.int st (List.length us)))
      | _ -> Blocked.Round_f32)

(* The expected C buffer: the naive kernel accumulates into an f64 copy
   of the C window (exact, so it holds the pre-store double value), then
   the OCaml epilogue runs on that value and the C-kind store rounds
   once. *)
let reference ~epilogue ~m ~n ~k ~a ~ao ~b ~bo ~c ~co () =
  let expect = copy_buf c in
  let acc = Tensor.fbuf_create Tensor.F64 (m * n) in
  for i = 0 to (m * n) - 1 do
    Tensor.fbuf_set acc i (Tensor.fbuf_get c (co + i))
  done;
  Linalg.naive_kernel ~m ~n ~k ~a ~ao ~b ~bo ~c:acc ~co:0;
  for i = 0 to (m * n) - 1 do
    Tensor.fbuf_set expect (co + i) (ocaml_epilogue epilogue i (Tensor.fbuf_get acc i))
  done;
  expect

let check_sentinels name c co len =
  for i = 0 to Tensor.fbuf_len c - 1 do
    if (i < co || i >= co + len) && Tensor.fbuf_get c i <> sentinel then
      QCheck2.Test.fail_reportf "%s: sentinel at %d overwritten" name i
  done

let float_case (name, (gemm : float_kernel)) seed =
  let st = Random.State.make [| seed |] in
  let m = 1 + Random.State.int st 41 and n = 1 + Random.State.int st 70 in
  let k =
    match Random.State.int st 8 with
    | 0 -> 0
    | 1 | 2 -> 1
    | _ -> 1 + Random.State.int st 40
  in
  let a, ao = gen_window st (gen_kind st) (m * k) in
  let b, bo = gen_window st (gen_kind st) (k * n) in
  let c, co = gen_window st (gen_kind st) (m * n) in
  let epilogue = if Random.State.bool st then [] else gen_epilogue st ~total:(m * n) ~row:n in
  let tiles =
    Blocked.tiles_of ~tile_m:(32 * (1 + Random.State.int st 2))
      ~tile_n:(16 * (1 + Random.State.int st 4)) ~tile_k:64 ~unroll:4
  in
  let expect = reference ~epilogue ~m ~n ~k ~a ~ao ~b ~bo ~c ~co () in
  gemm ~tiles ~epilogue ~ep_off:co ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ();
  if not (same_bits c expect) then
    QCheck2.Test.fail_reportf "%s: m=%d n=%d k=%d kinds A=%s B=%s C=%s steps=%d" name m n
      k
      (Tensor.dtype_name (Tensor.fbuf_dtype a))
      (Tensor.dtype_name (Tensor.fbuf_dtype b))
      (Tensor.dtype_name (Tensor.fbuf_dtype c))
      (List.length epilogue);
  check_sentinels name c co (m * n);
  true

let prop_float kern =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "float tile == naive kernel, bit for bit, typed epilogue == OCaml steps (%s)"
         (fst kern))
    ~count:300 QCheck2.Gen.int (float_case kern)

(* Every step kind on its own, over values that reach each branch (signed
   zeros, NaN, infinities, negatives for Log/Sqrt), in both kinds of C:
   the C step must give the OCaml function's bits. *)
let test_each_step () =
  let st = Random.State.make [| 11 |] in
  let specials = [| 0.0; -0.0; nan; infinity; neg_infinity; -1.5; 2.25; 1e-300; -3e7 |] in
  let m = 6 and n = 37 and k = 3 in
  let steps =
    List.map (fun u -> [ Blocked.Unary u ]) (all_unaries st)
    @ [ [ Blocked.Round_f32 ] ]
    @ List.concat_map
        (fun op ->
          List.map
            (fun chain_left ->
              let obuf = Tensor.fbuf_create Tensor.F64 n in
              for j = 0 to n - 1 do
                Tensor.fbuf_set obuf j
                  (if j < Array.length specials then specials.(j)
                   else Random.State.float st 4.0 -. 2.0)
              done;
              let x = { Blocked.obuf; ooff = 0; odiv = 1; olen = n } in
              [ Blocked.Binary { op; x; chain_left } ])
            [ true; false ])
        all_binops
  in
  List.iter
    (fun (kname, (gemm : float_kernel)) ->
      List.iter
        (fun cdt ->
          List.iter
            (fun epilogue ->
              (* A is a column of ones, B one row: the pre-store value of
                 C(i, j) is B(j) + C(i, j) exactly, so the specials reach
                 the epilogue. *)
              let a = Tensor.fbuf_create Tensor.F64 (m * k) in
              Tensor.fbuf_fill a 0 (m * k) 0.0;
              for i = 0 to m - 1 do
                Tensor.fbuf_set a (i * k) 1.0
              done;
              let b = Tensor.fbuf_create Tensor.F64 (k * n) in
              Tensor.fbuf_fill b 0 (k * n) 0.0;
              for j = 0 to n - 1 do
                Tensor.fbuf_set b j
                  (if j < Array.length specials then specials.(Array.length specials - 1 - j)
                   else Random.State.float st 6.0 -. 3.0)
              done;
              let c = Tensor.fbuf_create cdt (m * n) in
              Tensor.fbuf_fill c 0 (m * n) 0.0;
              let expect = reference ~epilogue ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0 () in
              gemm ~epilogue ~m ~n ~k ~a ~ao:0 ~b ~bo:0 ~c ~co:0 ();
              for i = 0 to (m * n) - 1 do
                let x = Tensor.fbuf_get c i and y = Tensor.fbuf_get expect i in
                if not (same_value x y) then
                  Alcotest.failf "%s C=%s %d-step program, element %d: tile %h vs OCaml %h"
                    kname (Tensor.dtype_name cdt) (List.length epilogue) i x y
              done)
            steps)
        [ Tensor.F32; Tensor.F64 ])
    float_kernels

(* Grouped im2col convolution with a per-channel program (the fused
   Conv+BatchNorm+Relu shape) at an output offset, against the naive
   convolution followed by the OCaml steps. *)
let conv_case (name, (conv : conv_kernel)) seed =
  let st = Random.State.make [| seed |] in
  let groups = 1 + Random.State.int st 3 in
  let cg = 1 + Random.State.int st 3 and mg = 1 + Random.State.int st 4 in
  let c_in = groups * cg and m = groups * mg in
  let h = 3 + Random.State.int st 9 and w = 3 + Random.State.int st 9 in
  let kh = 1 + Random.State.int st 3 and kw = 1 + Random.State.int st 3 in
  let stride = 1 + Random.State.int st 2, 1 + Random.State.int st 2 in
  let p () = Random.State.int st 2 in
  let pad = p (), p (), p (), p () in
  let view st dims =
    let buf, off = gen_window ~f32_values:true st (gen_kind st) (List.fold_left ( * ) 1 dims) in
    { Tensor.vbuf = buf; voff = off; vdims = dims }
  in
  let x = view st [ 1 + Random.State.int st 2; c_in; h; w ] in
  let wt = view st [ m; cg; kh; kw ] in
  let bias = if Random.State.bool st then Some (view st [ m ]) else None in
  let od =
    Linalg.conv2d_into ~stride ~pad ~groups x wt bias
      ~c:(Tensor.fbuf_create Tensor.F64 (1 lsl 16)) ~co:0
  in
  let total = List.fold_left ( * ) 1 od in
  let plane = List.nth od 2 * List.nth od 3 in
  let chan () =
    let obuf, ooff = gen_window st (gen_kind st) m in
    { Blocked.obuf; ooff; odiv = max 1 plane; olen = m }
  in
  let epilogue =
    Blocked.
      [
        Round_f32; Binary { op = Sub; x = chan (); chain_left = true }; Round_f32;
        Binary { op = Div; x = chan (); chain_left = true }; Round_f32;
        Binary { op = Mul; x = chan (); chain_left = true };
        Binary { op = Add; x = chan (); chain_left = true }; Unary Relu;
      ]
  in
  let c, co = gen_window st (gen_kind st) total in
  let pre = Tensor.fbuf_create Tensor.F64 total in
  ignore (Linalg.conv2d_into ~stride ~pad ~groups x wt bias ~c:pre ~co:0);
  let expect = copy_buf c in
  for i = 0 to total - 1 do
    Tensor.fbuf_set expect (co + i) (ocaml_epilogue epilogue i (Tensor.fbuf_get pre i))
  done;
  ignore (conv ~epilogue ~ep_off:co ~stride ~pad ~dilation:(1, 1) ~groups x wt bias ~c ~co);
  if not (same_bits c expect) then
    QCheck2.Test.fail_reportf "%s: conv groups=%d c=%d m=%d %dx%d k=%dx%d" name groups c_in m
      h w kh kw;
  check_sentinels name c co total;
  true

let prop_conv kern =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "grouped conv + per-channel program == naive + OCaml steps (%s)"
         (fst kern))
    ~count:60 QCheck2.Gen.int (conv_case kern)

(* The implicit-im2col tiles against the explicit im2col + naive GEMM
   oracle ([Kernel_oracle.conv2d_im2col]), bit for bit: random stride,
   dilation, asymmetric pads and groups, 1×1 kernels, windows wider than
   the padded input (an empty output, or Shape_mismatch where the extent
   would be negative), zero-size batch, channels and planes, every kind
   of input, weights, bias and output, operands at offsets inside
   sentinel buffers, random tile extents, with and without a typed
   program. *)
let conv_oracle_case (name, (conv : conv_kernel)) seed =
  let st = Random.State.make [| seed |] in
  let some_zero hi = if Random.State.int st 12 = 0 then 0 else 1 + Random.State.int st hi in
  let groups = 1 + Random.State.int st 3 in
  let cg = some_zero 3 and n = some_zero 2 in
  let mg = if Random.State.int st 8 = 0 then 30 + Random.State.int st 12 else some_zero 4 in
  let h = Random.State.int st 12 and w = Random.State.int st 12 in
  let kh, kw =
    if Random.State.int st 4 = 0 then 1, 1 else 1 + Random.State.int st 5, 1 + Random.State.int st 5
  in
  let stride = 1 + Random.State.int st 3, 1 + Random.State.int st 3 in
  let dil () = if Random.State.bool st then 1 else 1 + Random.State.int st 3 in
  let dilation = dil (), dil () in
  let p () = Random.State.int st 4 in
  let pad = p (), p (), p (), p () in
  let view dims =
    let buf, off = gen_window st (gen_kind st) (List.fold_left ( * ) 1 dims) in
    { Tensor.vbuf = buf; voff = off; vdims = dims }
  in
  let m = groups * mg in
  let x = view [ n; groups * cg; h; w ] and wt = view [ m; cg; kh; kw ] in
  let bias = if Random.State.bool st then Some (view [ m ]) else None in
  let tiles =
    Blocked.tiles_of ~tile_m:(32 * (1 + Random.State.int st 2))
      ~tile_n:(16 * (1 + Random.State.int st 4)) ~tile_k:64 ~unroll:4
  in
  let (sh, sw), (dh, dw), (pt, pl, pb, pr) = stride, dilation, pad in
  let oh = Kernel_oracle.out_dim (h + pt + pb - (((kh - 1) * dh) + 1)) sh in
  let ow = Kernel_oracle.out_dim (w + pl + pr - (((kw - 1) * dw) + 1)) sw in
  if oh < 0 || ow < 0 then begin
    let c = Tensor.fbuf_create Tensor.F64 1 in
    match conv ~tiles ~stride ~pad ~dilation ~groups x wt bias ~c ~co:0 with
    | _ -> QCheck2.Test.fail_reportf "%s: negative extent %dx%d accepted" name oh ow
    | exception Sod2_error.Error { Sod2_error.cls = Sod2_error.Shape_mismatch; _ } -> true
  end
  else begin
    let total = n * m * oh * ow in
    let epilogue =
      if total = 0 || Random.State.bool st then []
      else gen_epilogue st ~total ~row:(max 1 (oh * ow))
    in
    let c, co = gen_window st (gen_kind st) total in
    let expect = copy_buf c in
    let od =
      Kernel_oracle.conv2d_im2col ~epilogue:(ocaml_epilogue epilogue) ~stride ~pad ~dilation
        ~groups x wt bias ~c:expect ~co
    in
    let got = conv ~tiles ~epilogue ~ep_off:co ~stride ~pad ~dilation ~groups x wt bias ~c ~co in
    if got <> od || not (same_bits c expect) then
      QCheck2.Test.fail_reportf
        "%s: n=%d groups=%d cg=%d mg=%d %dx%d k=%dx%d s=%dx%d d=%dx%d pads=%d,%d,%d,%d kinds \
         x=%s w=%s c=%s steps=%d"
        name n groups cg mg h w kh kw sh sw dh dw pt pl pb pr
        (Tensor.dtype_name (Tensor.fbuf_dtype x.Tensor.vbuf))
        (Tensor.dtype_name (Tensor.fbuf_dtype wt.Tensor.vbuf))
        (Tensor.dtype_name (Tensor.fbuf_dtype c))
        (List.length epilogue);
    check_sentinels name c co total;
    true
  end

let prop_conv_oracle kern =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "implicit-im2col conv == OCaml im2col oracle, bit for bit (%s)"
         (fst kern))
    ~count:300 QCheck2.Gen.int (conv_oracle_case kern)

type pool_kernel =
  kind:[ `Max | `Avg ] -> kernel:int * int -> ?stride:int * int ->
  ?pad:int * int * int * int -> Tensor.view -> c:Tensor.fbuf -> co:int -> int list

let pool_kernels : (string * pool_kernel) list =
  [ "dispatched", Linalg.pool2d_into; "portable", Linalg.For_testing.pool2d_into_portable ]

(* The C pooling loop against the tap-by-tap oracle walk
   ([Kernel_oracle.pool2d_values]), bit for bit: NaN, ±Inf and signed
   zeros among the values, ties, pads up to the kernel (all-padding
   windows), zero-size planes, every kind of input and output, the input
   at an offset inside a sentinel buffer. *)
let pool_case (name, (pool : pool_kernel)) seed =
  let st = Random.State.make [| seed |] in
  let dims =
    Random.State.
      [ int st 3; 1 + int st 3; int st 8; int st 8 ]
  in
  let len = List.fold_left ( * ) 1 dims in
  let specials = [| nan; infinity; neg_infinity; 0.0; -0.0 |] in
  (* Coarse values tie; the others span 30 binades, so a sum taken in
     another order rounds differently. *)
  let coarse = Random.State.int st 4 = 0 in
  let values =
    Array.init len (fun _ ->
        if Random.State.int st 8 = 0 then specials.(Random.State.int st 5)
        else
          let v = Random.State.float st 4.0 -. 2.0 in
          if coarse then Float.round v else Float.ldexp v (Random.State.int st 30 - 15))
  in
  let xdt = gen_kind st in
  let x = Tensor.of_floats xdt dims values in
  let off = Random.State.int st 5 in
  let buf = Tensor.fbuf_create xdt (off + len + 3) in
  Tensor.fbuf_fill buf 0 (off + len + 3) sentinel;
  Tensor.fbuf_blit ~src:(Tensor.storage_f x) ~soff:0 ~dst:buf ~doff:off ~len;
  let vx = { Tensor.vbuf = buf; voff = off; vdims = dims } in
  let kernel = 1 + Random.State.int st 4, 1 + Random.State.int st 4 in
  let stride = 1 + Random.State.int st 3, 1 + Random.State.int st 3 in
  let pad =
    let p k = Random.State.int st (k + 1) in
    p (fst kernel), p (snd kernel), p (fst kernel), p (snd kernel)
  in
  let kind = if Random.State.bool st then `Max else `Avg in
  let kh, kw = kernel and (sh, sw), (pt, pl, pb, pr) = stride, pad in
  let h = List.nth dims 2 and w = List.nth dims 3 in
  let oh = Kernel_oracle.out_dim (h + pt + pb - kh) sh in
  let ow = Kernel_oracle.out_dim (w + pl + pr - kw) sw in
  if oh < 0 || ow < 0 then begin
    match pool ~kind ~kernel ~stride ~pad vx ~c:(Tensor.fbuf_create xdt 1) ~co:0 with
    | _ -> QCheck2.Test.fail_reportf "%s: negative extent accepted" name
    | exception Sod2_error.Error { Sod2_error.cls = Sod2_error.Shape_mismatch; _ } -> true
  end
  else begin
    let od, expect = Kernel_oracle.pool2d_values ~kind ~kernel ~stride ~pad x in
    let total = Array.length expect in
    let c, co = gen_window st (gen_kind st) total in
    let got = pool ~kind ~kernel ~stride ~pad vx ~c ~co in
    if got <> od then QCheck2.Test.fail_reportf "%s: dims differ" name;
    Array.iteri
      (fun i v ->
        let v = if Tensor.fbuf_dtype c = Tensor.F32 then Tensor.round_f32 v else v in
        if not (same_value (Tensor.fbuf_get c (co + i)) v) then
          QCheck2.Test.fail_reportf
            "%s: %s dims=%s k=%dx%d s=%dx%d pads=%d,%d,%d,%d element %d: %h vs %h" name
            (match kind with `Max -> "max" | `Avg -> "avg")
            (String.concat "x" (List.map string_of_int dims))
            kh kw sh sw pt pl pb pr i (Tensor.fbuf_get c (co + i)) v)
      expect;
    check_sentinels name c co total;
    true
  end

let prop_pool kern =
  QCheck2.Test.make
    ~name:(Printf.sprintf "C pool == oracle walk, NaN/Inf/padding, bit for bit (%s)" (fst kern))
    ~count:300 QCheck2.Gen.int (pool_case kern)

(* Operand windows are vetted before the C loop reads them unchecked. *)
let test_epilogue_rejects () =
  let a = Tensor.fbuf_create Tensor.F64 4 and c = Tensor.fbuf_create Tensor.F64 4 in
  let bad x = [ Blocked.Binary { op = Blocked.Add; x; chain_left = true } ] in
  let obuf = Tensor.fbuf_create Tensor.F64 3 in
  List.iter
    (fun (what, x) ->
      match
        Blocked.gemm ~epilogue:(bad x) ~m:2 ~n:2 ~k:1 ~a ~ao:0 ~b:a ~bo:0 ~c ~co:0 ()
      with
      | () -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [
      "window past the end", { Blocked.obuf; ooff = 1; odiv = 1; olen = 3 };
      "zero divisor", { Blocked.obuf; ooff = 0; odiv = 0; olen = 3 };
      "empty operand", { Blocked.obuf; ooff = 0; odiv = 1; olen = 0 };
    ]

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

type i8_conv_kernel =
  ?par:Blocked.par -> ?tiles:Blocked.tiles -> zx:int -> zw:int ->
  epilogue:Blocked.i8_epilogue -> stride:int * int -> pad:int * int * int * int ->
  dilation:int * int -> groups:int -> x:Tensor.i8buf -> xoff:int -> xdims:int array ->
  w:Tensor.i8buf -> woff:int -> wdims:int array -> c:Tensor.i8buf -> co:int -> unit ->
  int list

let i8_conv_kernels : (string * i8_conv_kernel) list =
  [ "dispatched", Blocked.conv2d_i8_into; "portable", Blocked.For_testing.conv2d_i8_into_portable ]

(* The int8 convolution gathers its panels with the float one's gather
   (padding taps hold the input zero point): exact agreement with the
   direct reference accumulators, then the requantization, over random
   geometry, zero points and per-channel epilogues. *)
let i8_conv_case (name, (conv : i8_conv_kernel)) seed =
  let st = Random.State.make [| seed |] in
  let groups = 1 + Random.State.int st 3 in
  let cg = 1 + Random.State.int st 3 and mg = 1 + Random.State.int st 5 in
  let h = 1 + Random.State.int st 10 and w = 1 + Random.State.int st 10 in
  let kh = 1 + Random.State.int st (min 3 h) and kw = 1 + Random.State.int st (min 3 w) in
  let stride = 1 + Random.State.int st 3, 1 + Random.State.int st 3 in
  let dilation = 1 + Random.State.int st 2, 1 + Random.State.int st 2 in
  let p () = Random.State.int st 3 in
  let pad = p (), p (), p (), p () in
  let (dh, dw), (pt, pl, pb, pr) = dilation, pad in
  let kh = if ((kh - 1) * dh) + 1 > h + pt + pb then 1 else kh in
  let kw = if ((kw - 1) * dw) + 1 > w + pl + pr then 1 else kw in
  let zx = Random.State.int st 256 - 128 and zw = Random.State.int st 256 - 128 in
  let xdims = [| 1 + Random.State.int st 2; groups * cg; h; w |] in
  let wdims = [| groups * mg; cg; kh; kw |] in
  let x, xoff, xv = gen_i8 st (Array.fold_left ( * ) 1 xdims) in
  let wt, woff, wv = gen_i8 st (Array.fold_left ( * ) 1 wdims) in
  let accs, od =
    RT.Reference.conv2d_i8_acc ~zx ~zw ~stride ~pad ~dilation ~groups
      (Tensor.of_ints Tensor.I8 (Array.to_list xdims) xv)
      (Tensor.of_ints Tensor.I8 (Array.to_list wdims) wv)
  in
  let m = wdims.(0) in
  let per_channel = Random.State.bool st in
  let rqs = Array.init (if per_channel then m else 1) (fun _ -> gen_requant st) in
  let total = Array.length accs in
  let plane = total / max 1 (xdims.(0) * m) in
  let co = Random.State.int st 5 in
  let c = Bigarray.Array1.create Bigarray.int8_signed Bigarray.c_layout (co + total + 2) in
  Bigarray.Array1.fill c i8_sentinel;
  let tiles =
    Blocked.tiles_of ~tile_m:32 ~tile_n:(4 * (1 + Random.State.int st 16)) ~tile_k:64 ~unroll:4
  in
  let got =
    conv ~tiles ~zx ~zw ~epilogue:(Blocked.Requant rqs) ~stride ~pad ~dilation ~groups ~x ~xoff
      ~xdims ~w:wt ~woff ~wdims ~c ~co ()
  in
  if got <> od then QCheck2.Test.fail_reportf "%s: dims differ" name;
  for i = 0 to Bigarray.Array1.dim c - 1 do
    let v = Bigarray.Array1.get c i in
    if i < co || i >= co + total then begin
      if v <> i8_sentinel then QCheck2.Test.fail_reportf "%s: sentinel %d overwritten" name i
    end
    else
      let e = i - co in
      let rq = rqs.(if per_channel then e / max 1 plane mod m else 0) in
      let expect =
        RT.Reference.requantize ~qm:rq.Quant.qm ~shift:rq.Quant.shift ~zp:rq.Quant.zp accs.(e)
      in
      if v <> expect then
        QCheck2.Test.fail_reportf "%s: element %d: %d vs %d (zx=%d zw=%d)" name e v expect zx zw
  done;
  true

let prop_i8_conv kern =
  QCheck2.Test.make
    ~name:(Printf.sprintf "int8 conv == reference accumulators + requantize (%s)" (fst kern))
    ~count:150 QCheck2.Gen.int (i8_conv_case kern)

let test_isa_named () =
  Alcotest.(check bool) "known ISA name" true
    (List.mem (Blocked.isa ()) [ "x86-64-v4"; "x86-64-v3"; "portable" ])

let suite =
  List.map (fun k -> QCheck_alcotest.to_alcotest (prop_float k)) float_kernels
  @ List.map (fun k -> QCheck_alcotest.to_alcotest (prop_conv k)) conv_kernels
  @ List.map (fun k -> QCheck_alcotest.to_alcotest (prop_conv_oracle k)) conv_kernels
  @ List.map (fun k -> QCheck_alcotest.to_alcotest (prop_pool k)) pool_kernels
  @ List.map (fun k -> QCheck_alcotest.to_alcotest (prop_i8 k)) i8_kernels
  @ List.map (fun k -> QCheck_alcotest.to_alcotest (prop_i8_conv k)) i8_conv_kernels
  @ [
      Alcotest.test_case "each epilogue step == its OCaml function, both clones" `Quick
        test_each_step;
      Alcotest.test_case "epilogue operand windows vetted" `Quick test_epilogue_rejects;
      Alcotest.test_case "Inf/NaN operands: naive and tile agree" `Quick test_non_finite;
      Alcotest.test_case "int8 at the depth cap" `Quick test_i8_max_depth;
      Alcotest.test_case "int8 beyond the depth cap rejected" `Quick test_i8_depth_rejected;
      Alcotest.test_case "isa names a build" `Quick test_isa_named;
    ]
