module BA1 = Bigarray.Array1

type par = { run : int -> (int -> unit) -> unit }

let sequential =
  {
    run =
      (fun n f ->
        for i = 0 to n - 1 do
          f i
        done);
  }

type tiles = {
  tm : int;
  tn : int;
  tk : int;  (* kept for the autotuner's config space and Tune_cache lines *)
  kunroll : int;  (* likewise: the C tile selects no kernel by it *)
}

let default_tiles = { tm = 64; tn = 32; tk = 128; kunroll = 4 }

(* Floors that keep the tile loops out of their edge cases: a macro tile
   of at least 32 rows and a column block of at least two 16-wide
   micro-tiles.  The autotuner steers above these floors. *)
let tiles_of ~tile_m ~tile_n ~tile_k ~unroll =
  { tm = max 32 tile_m; tn = max 32 tile_n; tk = max 64 tile_k; kunroll = max 4 unroll }

let ceil_div x y = (x + y - 1) / y

(* ---------------------------------------------------------------- *)
(* Typed float epilogue                                              *)

type f_operand = { obuf : Tensor.fbuf; ooff : int; odiv : int; olen : int }
type f_binop = Add | Sub | Mul | Div | Max2 | Min2

type f_unary =
  | Relu
  | Leaky_relu of float
  | Clip of float * float
  | Sigmoid
  | Tanh
  | Exp
  | Log
  | Sqrt
  | Neg
  | Abs
  | Erf
  | Gelu
  | Hard_swish
  | Softplus
  | Floor
  | Ceil
  | Reciprocal
  | Softsign
  | Sign
  | Not

type f_step =
  | Binary of { op : f_binop; x : f_operand; chain_left : bool }
  | Unary of f_unary
  | Round_f32

type f_epilogue = f_step list

(* The program as the C tile reads it: 7 ints and 2 floats per step, the
   operand buffers by index (layout shared with [decode_epilogue] in
   gemm_stubs.c). *)
type packed_ep = { codes : int array; params : float array; bufs : Tensor.fbuf array }

let max_steps = 64

let binop_code = function Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Max2 -> 4 | Min2 -> 5

let unary_code = function
  | Relu -> 0, 0.0, 0.0
  | Leaky_relu a -> 1, a, 0.0
  | Clip (lo, hi) -> 2, lo, hi
  | Sigmoid -> 3, 0.0, 0.0
  | Tanh -> 4, 0.0, 0.0
  | Exp -> 5, 0.0, 0.0
  | Log -> 6, 0.0, 0.0
  | Sqrt -> 7, 0.0, 0.0
  | Neg -> 8, 0.0, 0.0
  | Abs -> 9, 0.0, 0.0
  | Erf -> 10, 0.0, 0.0
  | Gelu -> 11, 0.0, 0.0
  | Hard_swish -> 12, 0.0, 0.0
  | Softplus -> 13, 0.0, 0.0
  | Floor -> 14, 0.0, 0.0
  | Ceil -> 15, 0.0, 0.0
  | Reciprocal -> 16, 0.0, 0.0
  | Softsign -> 17, 0.0, 0.0
  | Sign -> 18, 0.0, 0.0
  | Not -> 19, 0.0, 0.0

let no_epilogue = { codes = [||]; params = [||]; bufs = [||] }

(* Operand windows are vetted here, once per call: the C loop reads
   [ooff + ((flat / odiv) mod olen)] unchecked, for flat >= 0. *)
let pack_epilogue (steps : f_epilogue) =
  if steps = [] then no_epilogue
  else begin
    if List.length steps > max_steps then
      invalid_arg (Printf.sprintf "Blocked: epilogue longer than %d steps" max_steps);
    let bufs = ref [] and nb = ref 0 in
    let enc = function
      | Binary { op; x = { obuf; ooff; odiv; olen }; chain_left } ->
        if odiv < 1 || olen < 1 || ooff < 0 || ooff + olen > Tensor.fbuf_len obuf then
          invalid_arg "Blocked: epilogue operand window outside its buffer";
        bufs := obuf :: !bufs;
        incr nb;
        [| 0; binop_code op; (if chain_left then 0 else 1); !nb - 1; ooff; odiv; olen |],
        [| 0.0; 0.0 |]
      | Unary u ->
        let code, p0, p1 = unary_code u in
        [| 1; code; 0; 0; 0; 1; 1 |], [| p0; p1 |]
      | Round_f32 -> [| 2; 0; 0; 0; 0; 1; 1 |], [| 0.0; 0.0 |]
    in
    let enc = List.map enc steps in
    {
      codes = Array.concat (List.map fst enc);
      params = Array.concat (List.map snd enc);
      bufs = Array.of_list (List.rev !bufs);
    }
  end

(* ---------------------------------------------------------------- *)
(* C tile kernels (gemm_stubs.c)                                     *)

type bytes_scratch = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) BA1.t

(* [gemm_f a b c ep params] runs one float row tile: rows [i0, i0+rows)
   of [c += a·b], params = [| ao; bo; co; n; k; i0; rows; tn; ep_off |].
   With a non-empty [ep] each element's pre-store double value [c + Σ a·b]
   goes through the program (flat index = C index − ep_off) before the
   store.  With a convolution geometry appended to the params
   ([conv_shape]), [b] is the NCHW input and B its implicit im2col
   matrix. *)
external gemm_f_tile :
  Tensor.fbuf -> Tensor.fbuf -> Tensor.fbuf -> packed_ep -> int array -> unit
  = "sod2_gemm_f"

external gemm_f_tile_portable :
  Tensor.fbuf -> Tensor.fbuf -> Tensor.fbuf -> packed_ep -> int array -> unit
  = "sod2_gemm_f_portable"

(* [i8_pack_b b bo n k dst] widens and transposes B (k×n at [bo]) into
   [dst], followed by its n column sums; shared by every row tile. *)
external i8_pack_b : Tensor.i8buf -> int -> int -> int -> bytes_scratch -> unit
  = "sod2_i8_pack_b"

(* [i8_tile a packed c rq scales bias params]: rows [i0, i0+rows) of the
   int8 GEMM, params = [| ao; co; n; k; i0; rows; za; zb; tn; row0 |]. *)
external i8_tile :
  Tensor.i8buf -> bytes_scratch -> ('a, 'b, Bigarray.c_layout) BA1.t -> int array ->
  float array -> float array -> int array -> unit = "sod2_i8_tile_byte" "sod2_i8_tile"

external i8_tile_portable :
  Tensor.i8buf -> bytes_scratch -> ('a, 'b, Bigarray.c_layout) BA1.t -> int array ->
  float array -> float array -> int array -> unit
  = "sod2_i8_tile_portable_byte" "sod2_i8_tile_portable"

(* The same entry with the int8 input in place of the packed B and the
   params followed by [bo] and a convolution geometry: B is the implicit
   im2col matrix of the input at [bo]. *)
external i8_conv_tile :
  Tensor.i8buf -> Tensor.i8buf -> ('a, 'b, Bigarray.c_layout) BA1.t -> int array ->
  float array -> float array -> int array -> unit = "sod2_i8_tile_byte" "sod2_i8_tile"

external i8_conv_tile_portable :
  Tensor.i8buf -> Tensor.i8buf -> ('a, 'b, Bigarray.c_layout) BA1.t -> int array ->
  float array -> float array -> int array -> unit
  = "sod2_i8_tile_portable_byte" "sod2_i8_tile_portable"

external isa : unit -> string = "sod2_gemm_isa"

(* The C entry points a call runs: the dispatched clones, or (tests only,
   through {!For_testing}) the portable bodies of the same source. *)
type kernels = {
  ftile : Tensor.fbuf -> Tensor.fbuf -> Tensor.fbuf -> packed_ep -> int array -> unit;
  itile :
    'a 'b. Tensor.i8buf -> bytes_scratch -> ('a, 'b, Bigarray.c_layout) BA1.t ->
    int array -> float array -> float array -> int array -> unit;
  iconv :
    'a 'b. Tensor.i8buf -> Tensor.i8buf -> ('a, 'b, Bigarray.c_layout) BA1.t ->
    int array -> float array -> float array -> int array -> unit;
}

let dispatched = { ftile = gemm_f_tile; itile = i8_tile; iconv = i8_conv_tile }

let portable =
  { ftile = gemm_f_tile_portable; itile = i8_tile_portable; iconv = i8_conv_tile_portable }

(* Per-domain buffers that only grow: a steady stream of calls allocates
   nothing.  A domain runs one GEMM at a time, so one buffer per domain
   is never shared. *)
let grow_key create =
  Domain.DLS.new_key (fun () -> ref (create 0))

let grown key create len =
  let r = Domain.DLS.get key in
  if BA1.dim !r < len then r := create len;
  !r

(* ---------------------------------------------------------------- *)
(* Float GEMM                                                        *)

let check_window what buf off len =
  if off < 0 || len < 0 || off + len > Tensor.fbuf_len buf then
    invalid_arg (Printf.sprintf "Blocked.gemm: %s window outside its buffer" what)

let gemm_packed kern ~par ~tiles ~(ep : packed_ep) ~ep_off ~m ~n ~k ~(a : Tensor.fbuf) ~ao
    ~(b : Tensor.fbuf) ~bo ~(c : Tensor.fbuf) ~co =
  if m > 0 && n > 0 then begin
    check_window "A" a ao (m * k);
    check_window "B" b bo (k * n);
    check_window "C" c co (m * n);
    if ep != no_epilogue && co < ep_off then
      invalid_arg "Blocked.gemm: C window starts before the epilogue base";
    let { tm; tn; tk = _; kunroll = _ } = tiles in
    par.run (ceil_div m tm) (fun it ->
        let i0 = it * tm in
        kern.ftile a b c ep [| ao; bo; co; n; k; i0; min tm (m - i0); tn; ep_off |])
  end

let gemm_with kern ?(par = sequential) ?(tiles = default_tiles) ?(epilogue = [])
    ?(ep_off = 0) ~m ~n ~k ~a ~ao ~b ~bo ~c ~co () =
  gemm_packed kern ~par ~tiles ~ep:(pack_epilogue epilogue) ~ep_off ~m ~n ~k ~a ~ao ~b ~bo
    ~c ~co

let gemm ?par = gemm_with dispatched ?par

(* One convolution's extents.  Callers check the input, weight and
   destination windows these span once: the C tiles read them unchecked. *)
type conv_shape = {
  n : int;
  m : int;
  mg : int;  (* output channels per group *)
  oh : int;
  ow : int;
  kdim : int;  (* cg·kh·kw, the GEMM depth *)
  ndim : int;  (* oh·ow, the GEMM width *)
  plane_in : int;  (* cg·h·w, the input elements of one (image, group) *)
  geom : int array;  (* [| h; w; cg; kh; kw; sh; sw; pt; pl; dh; dw; ow |] *)
}

let conv_shape ~stride ~pad ~dilation ~groups ~xdims ~wdims =
  let n = xdims.(0) and c = xdims.(1) and h = xdims.(2) and wd = xdims.(3) in
  let m = wdims.(0) and cg = wdims.(1) and kh = wdims.(2) and kw = wdims.(3) in
  let sh, sw = stride and dh, dw = dilation in
  let pt, pl, pb, pr = pad in
  Linalg.check_conv_groups ~c ~groups ~cg;
  let oh =
    Linalg.conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb ~dilation:dh
  in
  let ow =
    Linalg.conv2d_out_dim ~in_:wd ~kernel:kw ~stride:sw ~pad_begin:pl ~pad_end:pr
      ~dilation:dw
  in
  {
    n; m; mg = m / groups; oh; ow; kdim = cg * kh * kw; ndim = oh * ow;
    plane_in = cg * h * wd;
    geom = [| h; wd; cg; kh; kw; sh; sw; pt; pl; dh; dw; ow |];
  }

(* Every (image, group) of a convolution as one GEMM over the implicit
   im2col matrix, in row tiles: [tile ~ni ~g ~i0 ~rows] runs one. *)
let conv_tiles ~par ~tiles ~groups s tile =
  if s.ndim > 0 && s.mg > 0 then
    for ni = 0 to s.n - 1 do
      for g = 0 to groups - 1 do
        par.run (ceil_div s.mg tiles.tm) (fun it ->
            let i0 = it * tiles.tm in
            tile ~ni ~g ~i0 ~rows:(min tiles.tm (s.mg - i0)))
      done
    done

let conv2d_im2col_with kern ?(par = sequential) ?(tiles = default_tiles) ?(epilogue = [])
    ?(ep_off = 0) ~stride ~pad ~dilation ~groups (vx : Tensor.view)
    (vw : Tensor.view) (vbias : Tensor.view option) ~c:dst ~co =
  let s =
    conv_shape ~stride ~pad ~dilation ~groups ~xdims:(Array.of_list vx.Tensor.vdims)
      ~wdims:(Array.of_list vw.Tensor.vdims)
  in
  let { n; m; mg; oh; ow; kdim; ndim; plane_in; geom } = s in
  check_window "input" vx.Tensor.vbuf vx.Tensor.voff (n * groups * plane_in);
  check_window "weights" vw.Tensor.vbuf vw.Tensor.voff (m * kdim);
  check_window "C" dst co (n * m * ndim);
  let ep = pack_epilogue epilogue in
  if ep != no_epilogue && co < ep_off then
    invalid_arg "Blocked.conv2d: C window starts before the epilogue base";
  (* The tiles accumulate into their destination window, so it must
     start from the bias value (or zero) regardless of what it held. *)
  (match vbias with
  | Some bt ->
    for ni = 0 to n - 1 do
      for mi = 0 to m - 1 do
        Tensor.fbuf_fill dst
          (co + (((ni * m) + mi) * ndim))
          ndim
          (Tensor.fbuf_get bt.Tensor.vbuf (bt.Tensor.voff + mi))
      done
    done
  | None -> Tensor.fbuf_fill dst co (n * m * ndim) 0.0);
  (* [co] makes the tile's write indices global flat offsets into the
     destination buffer; [ep_off] carries the caller's epilogue base
     through unchanged so epilogue indices stay relative to it. *)
  conv_tiles ~par ~tiles ~groups s (fun ~ni ~g ~i0 ~rows ->
      kern.ftile vw.Tensor.vbuf vx.Tensor.vbuf dst ep
        (Array.append
           [|
             vw.Tensor.voff + (g * mg * kdim);
             vx.Tensor.voff + (((ni * groups) + g) * plane_in);
             co + (((ni * m) + (g * mg)) * ndim);
             ndim; kdim; i0; rows; tiles.tn; ep_off;
           |]
           geom));
  [ n; m; oh; ow ]

let conv2d_im2col_into ?par = conv2d_im2col_with dispatched ?par

(* ---------------------------------------------------------------- *)
(* Int8 path: C tile kernels with a typed epilogue                    *)

(* The C kernel widens both operands to int16 and transposes B once per
   call, so every output is an exact int32 dot product (|Σab| ≤ k·2^14 ≤
   2^30 at the depth cap).  Zero points never enter the dot: write-back
   applies the algebraic correction
     Σ(a-za)(b-zb) = Σab − zb·Σa − za·Σb + k·za·zb
   from row/column sums collected while packing, then the epilogue. *)

let max_i8_depth = 1 lsl 16

type i8_epilogue =
  | Requant of Quant.requant array
  | Dequant of { scales : float array; bias : float array option }

let pack_key = grow_key (BA1.create Bigarray.char Bigarray.c_layout)

let check_i8 what (buf : Tensor.i8buf) off len =
  if off < 0 || len < 0 || off + len > BA1.dim buf then
    invalid_arg (Printf.sprintf "Blocked.gemm_i8: %s window outside its buffer" what)

(* The epilogue as the C kernel reads it: flattened (qm, shift, zp)
   triples, or scales and bias.  One entry serves every row; otherwise
   there is one per epilogue row (for a convolution, per output channel). *)
let epilogue_tables ~rows = function
  | Requant rqs ->
    let len = Array.length rqs in
    if len <> 1 && len < rows then invalid_arg "Blocked.gemm_i8: too few requant entries";
    Array.iter
      (fun { Quant.qm; shift; zp = _ } ->
        if qm < 0 || qm > 0x7FFFFFFF || shift < -62 || shift > 62 then
          invalid_arg "Blocked.gemm_i8: requant multiplier outside the int32 fixed point")
      rqs;
    let triples = Array.map (fun { Quant.qm; shift; zp } -> [| qm; shift; zp |]) rqs in
    Array.concat (Array.to_list triples), [||], [||]
  | Dequant { scales; bias } ->
    let len = Array.length scales in
    if len <> 1 && len < rows then invalid_arg "Blocked.gemm_i8: too few dequant scales";
    let bias = Option.value bias ~default:[||] in
    if bias <> [||] && Array.length bias <> len then
      invalid_arg "Blocked.gemm_i8: bias and scales differ in length";
    [||], scales, bias

(* Shared int8 GEMM skeleton.  C is OVERWRITTEN, not accumulated into:
   every element's complete accumulator exists exactly once, at
   write-back, where the epilogue consumes it. *)
let gemm_i8_gen kern ?(par = sequential) ?(tiles = default_tiles) ~za ~zb
    ~epilogue ~m ~n ~k ~(a : Tensor.i8buf) ~ao ~(b : Tensor.i8buf) ~bo
    ~(c : ('a, 'b, Bigarray.c_layout) BA1.t) ~co () =
  if k > max_i8_depth then
    invalid_arg "Blocked.gemm_i8: depth exceeds 65536 (int32 accumulator range)";
  if m > 0 && n > 0 then begin
    check_i8 "A" a ao (m * k);
    check_i8 "B" b bo (k * n);
    if co < 0 || co + (m * n) > BA1.dim c then
      invalid_arg "Blocked.gemm_i8: C window outside its buffer";
    let rq, scales, bias = epilogue_tables ~rows:m epilogue in
    let packed =
      grown pack_key (BA1.create Bigarray.char Bigarray.c_layout) ((n * k * 2) + (n * 4))
    in
    i8_pack_b b bo n k packed;
    let { tm; tn; tk = _; kunroll = _ } = tiles in
    par.run (ceil_div m tm) (fun it ->
        let i0 = it * tm in
        let rows = min tm (m - i0) in
        kern.itile a packed c rq scales bias [| ao; co; n; k; i0; rows; za; zb; tn; 0 |])
  end

let gemm_i8_with kern ?par ?tiles ~za ~zb ~epilogue ~m ~n ~k ~a ~ao ~b ~bo
    ~(c : Tensor.i8buf) ~co () =
  (match epilogue with
  | Requant _ -> ()
  | Dequant _ -> invalid_arg "Blocked.gemm_i8: an int8 destination needs a Requant epilogue");
  gemm_i8_gen kern ?par ?tiles ~za ~zb ~epilogue ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ()

let gemm_i8_dequant_with kern ?par ?tiles ~za ~zb ~epilogue ~m ~n ~k ~a ~ao ~b ~bo
    ~(c : Tensor.fbuf) ~co () =
  (match epilogue with
  | Dequant _ -> ()
  | Requant _ -> invalid_arg "Blocked.gemm_i8_dequant: a float destination needs Dequant");
  let run c = gemm_i8_gen kern ?par ?tiles ~za ~zb ~epilogue ~m ~n ~k ~a ~ao ~b ~bo ~c ~co () in
  match c with Tensor.FB32 c -> run c | Tensor.FB64 c -> run c

(* Quantized convolution over the same implicit im2col as the float one:
   padding taps hold the INPUT ZERO POINT, not 0 — they must dequantize to
   0.0, and the zero-point correction then cancels them exactly.  Epilogue
   rows are output channels. *)
let conv2d_i8_gen kern ?(par = sequential) ?(tiles = default_tiles) ~zx ~zw ~epilogue ~stride
    ~pad ~dilation ~groups ~(x : Tensor.i8buf) ~xoff ~xdims ~(w : Tensor.i8buf) ~woff ~wdims
    ~(c : ('a, 'b, Bigarray.c_layout) BA1.t) ~co () =
  let s = conv_shape ~stride ~pad ~dilation ~groups ~xdims ~wdims in
  let { n; m; mg; oh; ow; kdim; ndim; plane_in; geom } = s in
  if kdim > max_i8_depth then
    invalid_arg "Blocked.gemm_i8: depth exceeds 65536 (int32 accumulator range)";
  check_i8 "input" x xoff (n * groups * plane_in);
  check_i8 "weights" w woff (m * kdim);
  if co < 0 || co + (n * m * ndim) > BA1.dim c then
    invalid_arg "Blocked.gemm_i8: C window outside its buffer";
  let rq, scales, bias = epilogue_tables ~rows:m epilogue in
  conv_tiles ~par ~tiles ~groups s (fun ~ni ~g ~i0 ~rows ->
      kern.iconv w x c rq scales bias
        (Array.append
           [|
             woff + (g * mg * kdim);
             co + (((ni * m) + (g * mg)) * ndim);
             ndim; kdim; i0; rows; zw; zx; tiles.tn; g * mg;
             xoff + (((ni * groups) + g) * plane_in);
           |]
           geom));
  [ n; m; oh; ow ]

let conv2d_i8_with kern ?par ?tiles ~zx ~zw ~epilogue ~stride ~pad ~dilation ~groups ~x
    ~xoff ~xdims ~w ~woff ~wdims ~(c : Tensor.i8buf) ~co () =
  (match epilogue with
  | Requant _ -> ()
  | Dequant _ -> invalid_arg "Blocked.conv2d_i8: an int8 destination needs a Requant epilogue");
  conv2d_i8_gen kern ?par ?tiles ~zx ~zw ~epilogue ~stride ~pad ~dilation ~groups ~x ~xoff
    ~xdims ~w ~woff ~wdims ~c ~co ()

let conv2d_i8_into ?par = conv2d_i8_with dispatched ?par

let conv2d_i8_dequant_into ?par ?tiles ~zx ~zw ~epilogue ~stride ~pad ~dilation ~groups
    ~x ~xoff ~xdims ~w ~woff ~wdims ~(c : Tensor.fbuf) ~co () =
  (match epilogue with
  | Dequant _ -> ()
  | Requant _ -> invalid_arg "Blocked.conv2d_i8_dequant: a float destination needs Dequant");
  let run c =
    conv2d_i8_gen dispatched ?par ?tiles ~zx ~zw ~epilogue ~stride ~pad ~dilation ~groups ~x
      ~xoff ~xdims ~w ~woff ~wdims ~c ~co ()
  in
  match c with Tensor.FB32 c -> run c | Tensor.FB64 c -> run c

let gemm_i8 ?par ?tiles = gemm_i8_with dispatched ?par ?tiles
let gemm_i8_dequant ?par ?tiles = gemm_i8_dequant_with dispatched ?par ?tiles

module For_testing = struct
  let gemm_portable ?par = gemm_with portable ?par
  let conv2d_im2col_into_portable ?par = conv2d_im2col_with portable ?par
  let gemm_i8_portable ?par ?tiles = gemm_i8_with portable ?par ?tiles
  let gemm_i8_dequant_portable ?par ?tiles = gemm_i8_dequant_with portable ?par ?tiles
  let conv2d_i8_into_portable ?par = conv2d_i8_with portable ?par
end

let conv2d_im2col ?par ?tiles ?epilogue ~stride ~pad ~dilation ~groups x w bias =
  let { n; m; oh; ow; _ } =
    conv_shape ~stride ~pad ~dilation ~groups ~xdims:(Tensor.dims_arr x)
      ~wdims:(Tensor.dims_arr w)
  in
  let odt =
    if Tensor.dtype x = Tensor.F64 || Tensor.dtype w = Tensor.F64 then Tensor.F64
    else Tensor.F32
  in
  let out = Tensor.zeros odt [ n; m; oh; ow ] in
  ignore
    (conv2d_im2col_into ?par ?tiles ?epilogue ~stride ~pad ~dilation ~groups
       (Tensor.view_f x) (Tensor.view_f w)
       (Option.map Tensor.view_f bias)
       ~c:(Tensor.storage_f out) ~co:0);
  out
