(* Index-arithmetic reference versions of the strided kernels: a per-element
   unravel/ravel walk that stores (and under f32 rounds) one tensor per step
   of each composite op.  This is how the library computed these ops before
   its strided loops, kept here so the bit-identity suite compares the
   library with code it does not share — [Reference.run] calls the very
   kernels under test.  Only shape helpers ([broadcast_dims], [unravel],
   [ravel]) and element access come from [Tensor]. *)

let product = Array.fold_left ( * ) 1
let promote a b = if a = Tensor.F64 || b = Tensor.F64 then Tensor.F64 else Tensor.F32

(* Flat offset of [ix] (an index into the broadcast shape [out]) within a
   tensor of shape [src], with stride 0 on size-1 axes. *)
let broadcast_offset src out ix =
  let rs = Array.length src and ro = Array.length out in
  let off = ref 0 in
  let stride = ref 1 in
  for i = rs - 1 downto 0 do
    let oi = i + (ro - rs) in
    let v = if src.(i) = 1 then 0 else ix.(oi) in
    off := !off + (v * !stride);
    stride := !stride * src.(i)
  done;
  !off

let map_f f t = Tensor.of_floats (Tensor.dtype t) (Tensor.dims t) (Array.map f (Tensor.data_f t))

let map2 f a b =
  let da = Tensor.dims_arr a and db = Tensor.dims_arr b in
  let out = Tensor.broadcast_dims da db in
  let xa = Tensor.data_f a and xb = Tensor.data_f b in
  Tensor.of_floats
    (promote (Tensor.dtype a) (Tensor.dtype b))
    (Array.to_list out)
    (Array.init (product out) (fun flat ->
         let ix = Tensor.unravel out flat in
         f xa.(broadcast_offset da out ix) xb.(broadcast_offset db out ix)))

let map2i f a b =
  let da = Tensor.dims_arr a and db = Tensor.dims_arr b in
  let out = Tensor.broadcast_dims da db in
  let xa = Tensor.data_i a and xb = Tensor.data_i b in
  let dt =
    if Tensor.dtype a = Tensor.I64 || Tensor.dtype b = Tensor.I64 then Tensor.I64
    else Tensor.I8
  in
  Tensor.of_ints dt (Array.to_list out)
    (Array.init (product out) (fun flat ->
         let ix = Tensor.unravel out flat in
         f xa.(broadcast_offset da out ix) xb.(broadcast_offset db out ix)))

let normalize_axes r axes =
  let axes = if axes = [] then List.init r Fun.id else axes in
  List.sort_uniq compare (List.map (fun a -> if a < 0 then a + r else a) axes)

let reduce (kind : Reduction.kind) t ~axes ~keepdims =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axes = normalize_axes r axes in
  let reduced = Array.make r false in
  List.iter (fun a -> reduced.(a) <- true) axes;
  let out_full = Array.mapi (fun i v -> if reduced.(i) then 1 else v) d in
  let count = List.fold_left (fun acc a -> acc * d.(a)) 1 axes in
  let init =
    match kind with
    | Reduction.Sum | Reduction.Mean | Reduction.L2 -> 0.0
    | Reduction.Max -> neg_infinity
    | Reduction.Min -> infinity
    | Reduction.Prod -> 1.0
  in
  let out_n = product out_full in
  let dst = Array.make (max 1 out_n) init in
  let src = Tensor.data_f t in
  for flat = 0 to Tensor.numel t - 1 do
    let ix = Tensor.unravel d flat in
    let o = Tensor.ravel out_full (Array.mapi (fun i v -> if reduced.(i) then 0 else v) ix) in
    let v = src.(flat) in
    dst.(o) <-
      (match kind with
      | Reduction.Sum | Reduction.Mean -> dst.(o) +. v
      | Reduction.L2 -> dst.(o) +. (v *. v)
      | Reduction.Max -> Float.max dst.(o) v
      | Reduction.Min -> Float.min dst.(o) v
      | Reduction.Prod -> dst.(o) *. v)
  done;
  (match kind with
  | Reduction.Mean ->
    let c = float_of_int (max 1 count) in
    Array.iteri (fun i v -> dst.(i) <- v /. c) dst
  | Reduction.L2 -> Array.iteri (fun i v -> dst.(i) <- sqrt v) dst
  | Reduction.Sum | Reduction.Max | Reduction.Min | Reduction.Prod -> ());
  let acc_t =
    Tensor.of_floats (Tensor.dtype t) (Array.to_list out_full) (Array.sub dst 0 out_n)
  in
  if keepdims then acc_t
  else
    Tensor.reshape acc_t
      (List.filteri (fun i _ -> not reduced.(i)) (Array.to_list out_full))

let arg_extreme ~is_max t ~axis ~keepdims =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  let out_full = Array.mapi (fun i v -> if i = axis then 1 else v) d in
  let out_n = product out_full in
  let bv = Array.make (max 1 out_n) (if is_max then neg_infinity else infinity) in
  let bi = Array.make (max 1 out_n) 0 in
  let src = Tensor.data_f t in
  for flat = 0 to Tensor.numel t - 1 do
    let ix = Tensor.unravel d flat in
    let o = Tensor.ravel out_full (Array.mapi (fun i v -> if i = axis then 0 else v) ix) in
    let v = src.(flat) in
    if (if is_max then v > bv.(o) else v < bv.(o)) then begin
      bv.(o) <- v;
      bi.(o) <- ix.(axis)
    end
  done;
  let idx = Tensor.create_i (Array.to_list out_full) (Array.sub bi 0 out_n) in
  if keepdims then idx
  else Tensor.reshape idx (List.filteri (fun i _ -> i <> axis) (Array.to_list out_full))

let softmax t ~axis =
  let m = reduce Reduction.Max t ~axes:[ axis ] ~keepdims:true in
  let e = map2 (fun x mx -> exp (x -. mx)) t m in
  let s = reduce Reduction.Sum e ~axes:[ axis ] ~keepdims:true in
  map2 ( /. ) e s

let log_softmax t ~axis =
  let m = reduce Reduction.Max t ~axes:[ axis ] ~keepdims:true in
  let shifted = map2 ( -. ) t m in
  let s = reduce Reduction.Sum (map_f exp shifted) ~axes:[ axis ] ~keepdims:true in
  map2 (fun x lse -> x -. log lse) shifted s

let layer_norm t ~gamma ~beta ~eps =
  let r = Tensor.rank t in
  let mean = reduce Reduction.Mean t ~axes:[ r - 1 ] ~keepdims:true in
  let centered = map2 ( -. ) t mean in
  let var = reduce Reduction.Mean (map_f (fun v -> v *. v) centered) ~axes:[ r - 1 ] ~keepdims:true in
  let normed = map2 (fun c v -> c /. sqrt (v +. eps)) centered var in
  map2 ( +. ) (map2 ( *. ) normed gamma) beta

let transpose t perm =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let perm = Array.of_list perm in
  let od = Array.map (fun p -> d.(p)) perm in
  let remap ix =
    let src_ix = Array.make r 0 in
    Array.iteri (fun i p -> src_ix.(p) <- ix.(i)) perm;
    src_ix
  in
  let n = product od in
  if Tensor.is_float_dtype (Tensor.dtype t) then
    Tensor.of_floats (Tensor.dtype t) (Array.to_list od)
      (Array.init n (fun flat -> Tensor.get_f t (remap (Tensor.unravel od flat))))
  else
    Tensor.of_ints (Tensor.dtype t) (Array.to_list od)
      (Array.init n (fun flat -> Tensor.get_i t (remap (Tensor.unravel od flat))))

(* BatchNorm as the four broadcasting steps it was computed by, each
   storing (and under f32 rounding) its intermediate. *)
let batch_norm t ~scale ~bias ~mean ~var ~eps =
  let r = Tensor.rank t in
  let channel v = Tensor.reshape v (1 :: Tensor.numel v :: List.init (r - 2) (fun _ -> 1)) in
  let normed = map2 (fun x m -> x -. m) t (channel mean) in
  let normed = map2 (fun x v -> x /. sqrt (v +. eps)) normed (channel var) in
  map2 ( +. ) (map2 ( *. ) normed (channel scale)) (channel bias)

(* The extent of a window sweep: floor (span / stride) + 1, where span is
   the padded input minus the dilated window. *)
let out_dim span stride =
  (if span >= 0 then span / stride else -((stride - 1 - span) / stride)) + 1

(* 2-d pooling as a bounds-checked walk over every window tap, in double:
   the output dims and values, unrounded. *)
let pool2d_values ~kind ~kernel ~stride ~pad x =
  let dx = Tensor.dims_arr x in
  let n = dx.(0) and c = dx.(1) and h = dx.(2) and w = dx.(3) in
  let kh, kw = kernel and sh, sw = stride in
  let pt, pl, pb, pr = pad in
  let oh = out_dim (h + pt + pb - kh) sh and ow = out_dim (w + pl + pr - kw) sw in
  let src = Tensor.data_f x in
  let dst = Array.make (n * c * oh * ow) 0.0 in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      for oy = 0 to oh - 1 do
        for ox = 0 to ow - 1 do
          let acc = ref (if kind = `Max then neg_infinity else 0.0) in
          let count = ref 0 in
          for ky = 0 to kh - 1 do
            let iy = (oy * sh) - pt + ky in
            if iy >= 0 && iy < h then
              for kx = 0 to kw - 1 do
                let ix = (ox * sw) - pl + kx in
                if ix >= 0 && ix < w then begin
                  let v = src.((((((ni * c) + ci) * h) + iy) * w) + ix) in
                  (match kind with
                  | `Max -> if v > !acc then acc := v
                  | `Avg -> acc := !acc +. v);
                  incr count
                end
              done
          done;
          dst.((((((ni * c) + ci) * oh) + oy) * ow) + ox) <-
            (if !count = 0 then 0.0
             else match kind with `Max -> !acc | `Avg -> !acc /. float_of_int !count)
        done
      done
    done
  done;
  [ n; c; oh; ow ], dst

let pool2d ~kind ~kernel ~stride ~pad x =
  let dims, values = pool2d_values ~kind ~kernel ~stride ~pad x in
  Tensor.of_floats (Tensor.dtype x) dims values

let global_avg_pool x =
  let d = Tensor.dims_arr x in
  let n = d.(0) and c = d.(1) in
  let spatial = product (Array.sub d 2 (Array.length d - 2)) in
  let src = Tensor.data_f x in
  let dst =
    Array.init (n * c) (fun p ->
        let acc = ref 0.0 in
        for s = 0 to spatial - 1 do
          acc := !acc +. src.((p * spatial) + s)
        done;
        !acc /. float_of_int spatial)
  in
  Tensor.of_floats (Tensor.dtype x) (n :: c :: List.init (Array.length d - 2) (fun _ -> 1)) dst

(* Convolution as an explicit im2col column matrix times the naive GEMM,
   as [Blocked] computed it before its C tiles gathered the matrix
   themselves.  Per (image, group) the column matrix (depth (ci, ky, kx),
   column (oy, ox), padding taps 0, in the input's kind) is filled tap by
   tap; the output starts at the bias (or 0) as [c]'s kind holds it,
   [Linalg.naive_kernel] accumulates into a double copy of it, and
   [epilogue] (flat index, value) runs before the one store into [c] at
   [co].  Returns the output dims. *)
let conv2d_im2col ?(epilogue = fun _ v -> v) ~stride ~pad ~dilation ~groups (vx : Tensor.view)
    (vw : Tensor.view) (vbias : Tensor.view option) ~c ~co =
  let dx = Array.of_list vx.Tensor.vdims and dw = Array.of_list vw.Tensor.vdims in
  let n = dx.(0) and ch = dx.(1) and h = dx.(2) and wd = dx.(3) in
  let m = dw.(0) and cg = dw.(1) and kh = dw.(2) and kw = dw.(3) in
  let sh, sw = stride and dh, dw_ = dilation in
  let pt, pl, pb, pr = pad in
  let oh = out_dim (h + pt + pb - (((kh - 1) * dh) + 1)) sh in
  let ow = out_dim (wd + pl + pr - (((kw - 1) * dw_) + 1)) sw in
  let mg = m / groups and kdim = cg * kh * kw and ndim = oh * ow in
  let total = n * m * ndim in
  let pre = Tensor.fbuf_create Tensor.F64 (max 1 total) in
  let as_stored v = if Tensor.fbuf_dtype c = Tensor.F32 then Tensor.round_f32 v else v in
  for ni = 0 to n - 1 do
    for mi = 0 to m - 1 do
      let b =
        match vbias with
        | Some vb -> Tensor.fbuf_get vb.Tensor.vbuf (vb.Tensor.voff + mi)
        | None -> 0.0
      in
      Tensor.fbuf_fill pre (((ni * m) + mi) * ndim) ndim (as_stored b)
    done
  done;
  let col = Tensor.fbuf_create (Tensor.view_dtype vx) (max 1 (kdim * ndim)) in
  for ni = 0 to n - 1 do
    for g = 0 to groups - 1 do
      Tensor.fbuf_fill col 0 (kdim * ndim) 0.0;
      for ci = 0 to cg - 1 do
        for ky = 0 to kh - 1 do
          for kx = 0 to kw - 1 do
            let p = (((ci * kh) + ky) * kw) + kx in
            for oy = 0 to oh - 1 do
              for ox = 0 to ow - 1 do
                let iy = (oy * sh) - pt + (ky * dh) and ix = (ox * sw) - pl + (kx * dw_) in
                if iy >= 0 && iy < h && ix >= 0 && ix < wd then
                  Tensor.fbuf_set col
                    ((p * ndim) + (oy * ow) + ox)
                    (Tensor.fbuf_get vx.Tensor.vbuf
                       (vx.Tensor.voff + (((((ni * ch) + (g * cg) + ci) * h) + iy) * wd) + ix))
              done
            done
          done
        done
      done;
      Linalg.naive_kernel ~m:mg ~n:ndim ~k:kdim ~a:vw.Tensor.vbuf
        ~ao:(vw.Tensor.voff + (g * mg * kdim))
        ~b:col ~bo:0 ~c:pre
        ~co:(((ni * m) + (g * mg)) * ndim)
    done
  done;
  for i = 0 to total - 1 do
    Tensor.fbuf_set c (co + i) (epilogue i (Tensor.fbuf_get pre i))
  done;
  [ n; m; oh; ow ]
