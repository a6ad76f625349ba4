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

(* 2-d pooling as a bounds-checked walk over every window tap. *)
let pool2d ~kind ~kernel ~stride ~pad x =
  let dx = Tensor.dims_arr x in
  let n = dx.(0) and c = dx.(1) and h = dx.(2) and w = dx.(3) in
  let kh, kw = kernel and sh, sw = stride in
  let pt, pl, pb, pr = pad in
  let oh = ((h + pt + pb - kh) / sh) + 1 and ow = ((w + pl + pr - kw) / sw) + 1 in
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
  Tensor.of_floats (Tensor.dtype x) [ n; c; oh; ow ] dst

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
