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
   store. *)
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

external isa : unit -> string = "sod2_gemm_isa"

(* The C entry points a call runs: the dispatched clones, or (tests only,
   through {!For_testing}) the portable bodies of the same source. *)
type kernels = {
  ftile : Tensor.fbuf -> Tensor.fbuf -> Tensor.fbuf -> packed_ep -> int array -> unit;
  itile :
    'a 'b. Tensor.i8buf -> bytes_scratch -> ('a, 'b, Bigarray.c_layout) BA1.t ->
    int array -> float array -> float array -> int array -> unit;
}

let dispatched = { ftile = gemm_f_tile; itile = i8_tile }
let portable = { ftile = gemm_f_tile_portable; itile = i8_tile_portable }

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
  if m > 0 && n > 0 && k > 0 then begin
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

let conv2d_im2col_with kern ?(par = sequential) ?(tiles = default_tiles) ?(epilogue = [])
    ?(ep_off = 0) ~stride ~pad ~dilation ~groups (vx : Tensor.view)
    (vw : Tensor.view) (vbias : Tensor.view option) ~c:dst ~co =
  let dx = Array.of_list vx.Tensor.vdims and dw = Array.of_list vw.Tensor.vdims in
  let n = dx.(0) and c = dx.(1) and h = dx.(2) and wd = dx.(3) in
  let m = dw.(0) and cg = dw.(1) and kh = dw.(2) and kw = dw.(3) in
  let sh, sw = stride in
  let pt, pl, pb, pr = pad in
  let dh, dw_ = dilation in
  Linalg.check_conv_groups ~c ~groups ~cg;
  let oh =
    Linalg.conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb
      ~dilation:dh
  in
  let ow =
    Linalg.conv2d_out_dim ~in_:wd ~kernel:kw ~stride:sw ~pad_begin:pl ~pad_end:pr
      ~dilation:dw_
  in
  let mg = m / groups in
  let kdim = cg * kh * kw in
  let ndim = oh * ow in
  (* The gemm accumulates into its destination window, so it must start
     from the bias value (or zero) regardless of what the buffer held. *)
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
  if ndim > 0 && kdim > 0 then begin
    let ep = pack_epilogue epilogue in
    (* One column buffer in the input's precision (the copy is lossless),
       rebuilt per (image, group); gemm completes before the next rebuild,
       so reuse is safe even under the parallel runner. *)
    let col = Tensor.fbuf_create (Tensor.view_dtype vx) (kdim * ndim) in
    let fill_col =
      match vx.Tensor.vbuf, col with
      | Tensor.FB32 src, Tensor.FB32 colb ->
        fun ni g ->
          BA1.fill colb 0.0;
          for ci = 0 to cg - 1 do
            let cin = (g * cg) + ci in
            let src_base = vx.Tensor.voff + (((ni * c) + cin) * h * wd) in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let rbase = ((((ci * kh) + ky) * kw) + kx) * ndim in
                for oy = 0 to oh - 1 do
                  let iy = (oy * sh) - pt + (ky * dh) in
                  if iy >= 0 && iy < h then begin
                    let sbase = src_base + (iy * wd) in
                    let obase = rbase + (oy * ow) in
                    for ox = 0 to ow - 1 do
                      let ix = (ox * sw) - pl + (kx * dw_) in
                      if ix >= 0 && ix < wd then
                        BA1.unsafe_set colb (obase + ox) (BA1.unsafe_get src (sbase + ix))
                    done
                  end
                done
              done
            done
          done
      | Tensor.FB64 src, Tensor.FB64 colb ->
        fun ni g ->
          BA1.fill colb 0.0;
          for ci = 0 to cg - 1 do
            let cin = (g * cg) + ci in
            let src_base = vx.Tensor.voff + (((ni * c) + cin) * h * wd) in
            for ky = 0 to kh - 1 do
              for kx = 0 to kw - 1 do
                let rbase = ((((ci * kh) + ky) * kw) + kx) * ndim in
                for oy = 0 to oh - 1 do
                  let iy = (oy * sh) - pt + (ky * dh) in
                  if iy >= 0 && iy < h then begin
                    let sbase = src_base + (iy * wd) in
                    let obase = rbase + (oy * ow) in
                    for ox = 0 to ow - 1 do
                      let ix = (ox * sw) - pl + (kx * dw_) in
                      if ix >= 0 && ix < wd then
                        BA1.unsafe_set colb (obase + ox) (BA1.unsafe_get src (sbase + ix))
                    done
                  end
                done
              done
            done
          done
      | _ -> assert false (* [col]'s kind mirrors the input's *)
    in
    for ni = 0 to n - 1 do
      for g = 0 to groups - 1 do
        fill_col ni g;
        (* [co] makes the gemm's write indices global flat offsets into the
           destination buffer; [ep_off] carries the caller's epilogue base
           through unchanged so epilogue indices stay relative to it. *)
        gemm_packed kern ~par ~tiles ~ep ~ep_off ~m:mg ~n:ndim ~k:kdim
          ~a:vw.Tensor.vbuf
          ~ao:(vw.Tensor.voff + (g * mg * kdim))
          ~b:col ~bo:0 ~c:dst
          ~co:(co + (((ni * m) + (g * mg)) * ndim))
      done
    done
  end;
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
   there is one per epilogue row (row [row0 + i] for output row [i]). *)
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
   write-back, where the epilogue consumes it.  [row0] is the epilogue
   row of output row 0 (conv groups pass their first channel). *)
let gemm_i8_gen kern ?(par = sequential) ?(tiles = default_tiles) ~za ~zb
    ~epilogue ?(row0 = 0) ~m ~n ~k ~(a : Tensor.i8buf) ~ao ~(b : Tensor.i8buf) ~bo
    ~(c : ('a, 'b, Bigarray.c_layout) BA1.t) ~co () =
  if k > max_i8_depth then
    invalid_arg "Blocked.gemm_i8: depth exceeds 65536 (int32 accumulator range)";
  if m > 0 && n > 0 then begin
    check_i8 "A" a ao (m * k);
    check_i8 "B" b bo (k * n);
    if co < 0 || co + (m * n) > BA1.dim c then
      invalid_arg "Blocked.gemm_i8: C window outside its buffer";
    let rq, scales, bias = epilogue_tables ~rows:(row0 + m) epilogue in
    let packed =
      grown pack_key (BA1.create Bigarray.char Bigarray.c_layout) ((n * k * 2) + (n * 4))
    in
    i8_pack_b b bo n k packed;
    let { tm; tn; tk = _; kunroll = _ } = tiles in
    par.run (ceil_div m tm) (fun it ->
        let i0 = it * tm in
        let rows = min tm (m - i0) in
        kern.itile a packed c rq scales bias [| ao; co; n; k; i0; rows; za; zb; tn; row0 |])
  end

let gemm_i8_with kern ?par ?tiles ~za ~zb ~epilogue ?row0 ~m ~n ~k ~a ~ao ~b ~bo
    ~(c : Tensor.i8buf) ~co () =
  (match epilogue with
  | Requant _ -> ()
  | Dequant _ -> invalid_arg "Blocked.gemm_i8: an int8 destination needs a Requant epilogue");
  gemm_i8_gen kern ?par ?tiles ~za ~zb ~epilogue ?row0 ~m ~n ~k ~a ~ao ~b ~bo ~c ~co ()

let gemm_i8_dequant_with kern ?par ?tiles ~za ~zb ~epilogue ?row0 ~m ~n ~k ~a ~ao ~b ~bo
    ~(c : Tensor.fbuf) ~co () =
  (match epilogue with
  | Dequant _ -> ()
  | Requant _ -> invalid_arg "Blocked.gemm_i8_dequant: a float destination needs Dequant");
  let run c = gemm_i8_gen kern ?par ?tiles ~za ~zb ~epilogue ?row0 ~m ~n ~k ~a ~ao ~b ~bo ~c ~co () in
  match c with Tensor.FB32 c -> run c | Tensor.FB64 c -> run c

(* Quantized im2col: the column matrix is int8 (the 4× footprint shrink
   is exactly where the conv path was bandwidth-bound) and padding taps
   hold the INPUT ZERO POINT, not 0 — they must dequantize to 0.0, and
   the zero-point correction then cancels them exactly. *)
let conv2d_i8_gen ~zx ~stride ~pad ~dilation ~groups ~(x : Tensor.i8buf) ~xoff
    ~xdims ~wdims ~run_gemm =
  let n = xdims.(0) and c = xdims.(1) and h = xdims.(2) and wd = xdims.(3) in
  let m = wdims.(0) and cg = wdims.(1) and kh = wdims.(2) and kw = wdims.(3) in
  let sh, sw = stride in
  let pt, pl, pb, pr = pad in
  let dh, dw_ = dilation in
  Linalg.check_conv_groups ~c ~groups ~cg;
  let oh =
    Linalg.conv2d_out_dim ~in_:h ~kernel:kh ~stride:sh ~pad_begin:pt ~pad_end:pb
      ~dilation:dh
  in
  let ow =
    Linalg.conv2d_out_dim ~in_:wd ~kernel:kw ~stride:sw ~pad_begin:pl ~pad_end:pr
      ~dilation:dw_
  in
  let mg = m / groups in
  let kdim = cg * kh * kw in
  let ndim = oh * ow in
  if ndim > 0 && kdim > 0 then begin
    let col = BA1.create Bigarray.int8_signed Bigarray.c_layout (kdim * ndim) in
    let fill_col ni g =
      BA1.fill col zx;
      for ci = 0 to cg - 1 do
        let cin = (g * cg) + ci in
        let src_base = xoff + (((ni * c) + cin) * h * wd) in
        for ky = 0 to kh - 1 do
          for kx = 0 to kw - 1 do
            let rbase = ((((ci * kh) + ky) * kw) + kx) * ndim in
            for oy = 0 to oh - 1 do
              let iy = (oy * sh) - pt + (ky * dh) in
              if iy >= 0 && iy < h then begin
                let sbase = src_base + (iy * wd) in
                let obase = rbase + (oy * ow) in
                for ox = 0 to ow - 1 do
                  let ix = (ox * sw) - pl + (kx * dw_) in
                  if ix >= 0 && ix < wd then
                    BA1.unsafe_set col (obase + ox) (BA1.unsafe_get x (sbase + ix))
                done
              end
            done
          done
        done
      done
    in
    for ni = 0 to n - 1 do
      for g = 0 to groups - 1 do
        fill_col ni g;
        run_gemm ~ni ~g ~m ~mg ~ndim ~kdim ~col
      done
    done
  end;
  [ n; m; oh; ow ]

let conv2d_i8_into ?par ?tiles ~zx ~zw ~epilogue ~stride ~pad ~dilation ~groups ~x ~xoff
    ~xdims ~(w : Tensor.i8buf) ~woff ~wdims ~(c : Tensor.i8buf) ~co () =
  conv2d_i8_gen ~zx ~stride ~pad ~dilation ~groups ~x ~xoff ~xdims ~wdims
    ~run_gemm:(fun ~ni ~g ~m ~mg ~ndim ~kdim ~col ->
      gemm_i8_with dispatched ?par ?tiles ~za:zw ~zb:zx ~epilogue ~row0:(g * mg) ~m:mg ~n:ndim
        ~k:kdim ~a:w
        ~ao:(woff + (g * mg * kdim))
        ~b:col ~bo:0 ~c
        ~co:(co + (((ni * m) + (g * mg)) * ndim))
        ())

let conv2d_i8_dequant_into ?par ?tiles ~zx ~zw ~epilogue ~stride ~pad ~dilation ~groups
    ~x ~xoff ~xdims ~(w : Tensor.i8buf) ~woff ~wdims ~(c : Tensor.fbuf) ~co () =
  conv2d_i8_gen ~zx ~stride ~pad ~dilation ~groups ~x ~xoff ~xdims ~wdims
    ~run_gemm:(fun ~ni ~g ~m ~mg ~ndim ~kdim ~col ->
      gemm_i8_dequant_with dispatched ?par ?tiles ~za:zw ~zb:zx ~epilogue ~row0:(g * mg)
        ~m:mg ~n:ndim ~k:kdim ~a:w
        ~ao:(woff + (g * mg * kdim))
        ~b:col ~bo:0 ~c
        ~co:(co + (((ni * m) + (g * mg)) * ndim))
        ())

let gemm_i8 ?par ?tiles = gemm_i8_with dispatched ?par ?tiles ?row0:None
let gemm_i8_dequant ?par ?tiles = gemm_i8_dequant_with dispatched ?par ?tiles ?row0:None

module For_testing = struct
  let gemm_portable ?par = gemm_with portable ?par
  let conv2d_im2col_into_portable ?par = conv2d_im2col_with portable ?par
  let gemm_i8_portable ?par ?tiles = gemm_i8_with portable ?par ?tiles ?row0:None
  let gemm_i8_dequant_portable ?par ?tiles =
    gemm_i8_dequant_with portable ?par ?tiles ?row0:None
end

let conv2d_im2col ?par ?tiles ?epilogue ~stride ~pad ~dilation ~groups x w bias =
  let dx = Tensor.dims_arr x and dw = Tensor.dims_arr w in
  let sh, sw = stride in
  let pt, pl, pb, pr = pad in
  let dh, dw_ = dilation in
  let oh =
    Linalg.conv2d_out_dim ~in_:dx.(2) ~kernel:dw.(2) ~stride:sh ~pad_begin:pt
      ~pad_end:pb ~dilation:dh
  in
  let ow =
    Linalg.conv2d_out_dim ~in_:dx.(3) ~kernel:dw.(3) ~stride:sw ~pad_begin:pl
      ~pad_end:pr ~dilation:dw_
  in
  let odt =
    if Tensor.dtype x = Tensor.F64 || Tensor.dtype w = Tensor.F64 then Tensor.F64
    else Tensor.F32
  in
  let out = Tensor.zeros odt [ dx.(0); dw.(0); oh; ow ] in
  ignore
    (conv2d_im2col_into ?par ?tiles ?epilogue ~stride ~pad ~dilation ~groups
       (Tensor.view_f x) (Tensor.view_f w)
       (Option.map Tensor.view_f bias)
       ~c:(Tensor.storage_f out) ~co:0);
  out
