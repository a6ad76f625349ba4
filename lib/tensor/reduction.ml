type kind =
  | Sum
  | Mean
  | Max
  | Min
  | Prod
  | L2

module BA1 = Bigarray.Array1

let shape_err op fmt = Sod2_error.failf ~op Sod2_error.Shape_mismatch fmt

let check_axis op r a =
  let a' = if a < 0 then a + r else a in
  if a' < 0 || a' >= r then shape_err op "%s: axis %d out of range for rank %d" op a r;
  a'

let normalize_axes r axes =
  let axes = if axes = [] then List.init r Fun.id else axes in
  List.sort_uniq compare (List.map (check_axis "Reduce" r) axes)

let float_view op t =
  if Tensor.is_float_dtype (Tensor.dtype t) then Tensor.view_f t
  else
    Sod2_error.failf ~op Sod2_error.Unsupported "%s: %s input; float tensors only" op
      (Tensor.dtype_name (Tensor.dtype t))

(* The kernels below index with unchecked loads and stores, so every
   window is vetted once up front. *)
let check_src op (v : Tensor.view) =
  let n = Tensor.view_numel v in
  if v.Tensor.voff < 0 || v.Tensor.voff + n > Tensor.fbuf_len v.Tensor.vbuf then
    Sod2_error.failf ~op Sod2_error.Plan_violation
      "%s: source window [%d, %d) outside buffer of %d" op v.Tensor.voff
      (v.Tensor.voff + n) (Tensor.fbuf_len v.Tensor.vbuf)

let check_dst op c co n =
  if co < 0 || co + n > Tensor.fbuf_len c then
    Sod2_error.failf ~op Sod2_error.Plan_violation
      "%s: destination window [%d, %d) outside buffer of %d" op co (co + n)
      (Tensor.fbuf_len c)

(* Lane I/O: gather [n] elements at stride [stride] into a double-precision
   scratch (exact for either kind) and scatter them back.  The kind match
   runs once per lane, so the element loops are monomorphic loads and
   stores; an f32 store is the rounding point, as everywhere else. *)
let load_lane buf off stride n (lane : float array) =
  match buf with
  | Tensor.FB32 b ->
    for k = 0 to n - 1 do
      Array.unsafe_set lane k (BA1.unsafe_get b (off + (k * stride)))
    done
  | Tensor.FB64 b ->
    for k = 0 to n - 1 do
      Array.unsafe_set lane k (BA1.unsafe_get b (off + (k * stride)))
    done

let store_lane (lane : float array) buf off stride n =
  match buf with
  | Tensor.FB32 b ->
    for k = 0 to n - 1 do
      BA1.unsafe_set b (off + (k * stride)) (Array.unsafe_get lane k)
    done
  | Tensor.FB64 b ->
    for k = 0 to n - 1 do
      BA1.unsafe_set b (off + (k * stride)) (Array.unsafe_get lane k)
    done

(* The reference composition of these ops stored, and under f32 rounded,
   every intermediate tensor.  The strided kernels keep those rounding
   points explicitly, so their bits match that composition exactly. *)
let[@inline] rnd r32 v = if r32 then Tensor.round_f32 v else v

(* [axis] splits [d] into [outer] lanes-blocks of [len] elements spaced
   [inner] apart. *)
let lane_geometry d axis =
  let prod lo hi =
    let p = ref 1 in
    for i = lo to hi - 1 do
      p := !p * d.(i)
    done;
    !p
  in
  prod 0 axis, d.(axis), prod (axis + 1) (Array.length d)

(* Allocate a boxed result and run a destination kernel into it. *)
let boxed dtype dims into =
  let c = Tensor.fbuf_create dtype (List.fold_left ( * ) 1 dims) in
  into c;
  Tensor.of_fbuf dims c

let reduce_init = function
  | Sum | Mean | L2 -> 0.0
  | Max -> neg_infinity
  | Min -> infinity
  | Prod -> 1.0

(* Sorted reduced axes, the keepdims-shaped output and the output dims. *)
let reduce_geometry d axes ~keepdims =
  let axes = normalize_axes (Array.length d) axes in
  let out_full = Array.mapi (fun i v -> if List.mem i axes then 1 else v) d in
  let out_dims =
    if keepdims then Array.to_list out_full
    else List.filteri (fun i _ -> not (List.mem i axes)) (Array.to_list out_full)
  in
  axes, out_full, out_dims

(* Each output cell accumulates in a double-precision scratch in ascending
   flat order of the source and is stored once — the store is the only
   rounding point for f32 tensors, the same contract the GEMM kernels
   follow.  The walk is rows of the innermost axis in ascending order; an
   odometer over the outer axes tracks the output cell (stride 0 on
   reduced axes). *)
let reduce_into kind (x : Tensor.view) ~axes ~keepdims ~c ~co =
  let d = Array.of_list x.Tensor.vdims in
  let axes, out_full, out_dims = reduce_geometry d axes ~keepdims in
  let out_n = Array.fold_left ( * ) 1 out_full in
  check_src "Reduce" x;
  check_dst "Reduce" c co out_n;
  let count = List.fold_left (fun acc a -> acc * d.(a)) 1 axes in
  (* A rank-0 input is one row of one element with nothing reduced. *)
  let d, out_full = if d = [||] then [| 1 |], [| 1 |] else d, out_full in
  let last = Array.length d - 1 in
  let len = d.(last) in
  (* Within a row, a reduced innermost axis folds into one cell (step 0);
     a kept one has output stride 1. *)
  let step = if List.mem last axes then 0 else 1 in
  let so = Tensor.broadcast_strides out_full out_full in
  let outer = Array.sub d 0 last and so_outer = Array.sub so 0 last in
  let acc = Array.make out_n (reduce_init kind) in
  let row = Array.make len 0.0 in
  Tensor.iter_strided outer so_outer so_outer (fun ri o _ ->
      load_lane x.Tensor.vbuf (x.Tensor.voff + (ri * len)) 1 len row;
      match kind with
      | Sum | Mean ->
        for k = 0 to len - 1 do
          let j = o + (k * step) in
          acc.(j) <- acc.(j) +. Array.unsafe_get row k
        done
      | L2 ->
        for k = 0 to len - 1 do
          let j = o + (k * step) and v = Array.unsafe_get row k in
          acc.(j) <- acc.(j) +. (v *. v)
        done
      | Max ->
        for k = 0 to len - 1 do
          let j = o + (k * step) in
          acc.(j) <- Float.max acc.(j) (Array.unsafe_get row k)
        done
      | Min ->
        for k = 0 to len - 1 do
          let j = o + (k * step) in
          acc.(j) <- Float.min acc.(j) (Array.unsafe_get row k)
        done
      | Prod ->
        for k = 0 to len - 1 do
          let j = o + (k * step) in
          acc.(j) <- acc.(j) *. Array.unsafe_get row k
        done);
  (match kind with
  | Mean ->
    let cf = float_of_int (max 1 count) in
    Array.iteri (fun i v -> acc.(i) <- v /. cf) acc
  | L2 -> Array.iteri (fun i v -> acc.(i) <- sqrt v) acc
  | Sum | Max | Min | Prod -> ());
  store_lane acc c co 1 out_n;
  out_dims

let reduce_out_dims d ~axes ~keepdims =
  let _, _, out_dims = reduce_geometry d axes ~keepdims in
  out_dims

let reduce kind t ~axes ~keepdims =
  let x = float_view "Reduce" t in
  let out_dims = reduce_out_dims (Tensor.dims_arr t) ~axes ~keepdims in
  boxed (Tensor.dtype t) out_dims (fun c ->
      ignore (reduce_into kind x ~axes ~keepdims ~c ~co:0))

let arg_extreme ~is_max t ~axis ~keepdims =
  let op = if is_max then "ArgMax" else "ArgMin" in
  let x = float_view op t in
  let d = Tensor.dims_arr t in
  let axis = check_axis op (Array.length d) axis in
  let outer, len, inner = lane_geometry d axis in
  (* Comparisons run on the stored (already-rounded) values, so the chosen
     index is the same one a fully single-precision pipeline would pick;
     the strict comparison keeps the first extreme. *)
  let bi = Array.make (outer * inner) 0 in
  let lane = Array.make len 0.0 in
  for o = 0 to outer - 1 do
    for i = 0 to inner - 1 do
      load_lane x.Tensor.vbuf (x.Tensor.voff + (o * len * inner) + i) inner len lane;
      let best = ref (if is_max then neg_infinity else infinity) and bk = ref 0 in
      for k = 0 to len - 1 do
        let v = Array.unsafe_get lane k in
        if (if is_max then v > !best else v < !best) then begin
          best := v;
          bk := k
        end
      done;
      bi.((o * inner) + i) <- !bk
    done
  done;
  let out_full = Array.to_list (Array.mapi (fun i v -> if i = axis then 1 else v) d) in
  let idx = Tensor.create_i out_full bi in
  if keepdims then idx
  else Tensor.reshape idx (List.filteri (fun i _ -> i <> axis) out_full)

let argmax t ~axis ~keepdims = arg_extreme ~is_max:true t ~axis ~keepdims
let argmin t ~axis ~keepdims = arg_extreme ~is_max:false t ~axis ~keepdims

(* Per lane: a max pass, an exp(+sum) pass and a divide (or log-subtract)
   pass.  The rounding points are the reference composition's stores:
   Softmax rounds exp(x - max), the sum, and the quotient; LogSoftmax
   rounds x - max, each exp, the sum, and the result.  (Online softmax
   would fuse the first two passes but change the bits.) *)
let softmax_into ~log_space (x : Tensor.view) ~axis ~c ~co =
  let op = if log_space then "LogSoftmax" else "Softmax" in
  let d = Array.of_list x.Tensor.vdims in
  let axis = check_axis op (Array.length d) axis in
  let outer, len, inner = lane_geometry d axis in
  check_src op x;
  check_dst op c co (outer * len * inner);
  let r32 = Tensor.view_dtype x = Tensor.F32 in
  let lane = Array.make len 0.0 in
  for o = 0 to outer - 1 do
    for i = 0 to inner - 1 do
      let base = (o * len * inner) + i in
      load_lane x.Tensor.vbuf (x.Tensor.voff + base) inner len lane;
      let m = ref neg_infinity in
      for k = 0 to len - 1 do
        m := Float.max !m (Array.unsafe_get lane k)
      done;
      let m = !m in
      let s = ref 0.0 in
      if log_space then begin
        for k = 0 to len - 1 do
          let sh = rnd r32 (Array.unsafe_get lane k -. m) in
          Array.unsafe_set lane k sh;
          s := !s +. rnd r32 (exp sh)
        done;
        let lse = log (rnd r32 !s) in
        for k = 0 to len - 1 do
          Array.unsafe_set lane k (rnd r32 (Array.unsafe_get lane k -. lse))
        done
      end
      else begin
        for k = 0 to len - 1 do
          let e = rnd r32 (exp (Array.unsafe_get lane k -. m)) in
          Array.unsafe_set lane k e;
          s := !s +. e
        done;
        let s = rnd r32 !s in
        for k = 0 to len - 1 do
          Array.unsafe_set lane k (rnd r32 (Array.unsafe_get lane k /. s))
        done
      end;
      store_lane lane c (co + base) inner len
    done
  done

let softmax t ~axis =
  let x = float_view "Softmax" t in
  boxed (Tensor.dtype t) (Tensor.dims t) (fun c -> softmax_into ~log_space:false x ~axis ~c ~co:0)

let log_softmax t ~axis =
  let x = float_view "LogSoftmax" t in
  boxed (Tensor.dtype t) (Tensor.dims t) (fun c -> softmax_into ~log_space:true x ~axis ~c ~co:0)

(* [gamma]/[beta] broadcast along the last axis: all-1 dims but a trailing
   [len], of rank at most the input's. *)
let check_affine_vectors ~rank ~len (gamma : Tensor.view) (beta : Tensor.view) =
  let ok (v : Tensor.view) =
    List.length v.Tensor.vdims <= rank
    &&
    match List.rev v.Tensor.vdims with
    | [] -> len = 1
    | l :: rest -> l = len && List.for_all (fun e -> e = 1) rest
  in
  let show v = String.concat "x" (List.map string_of_int v.Tensor.vdims) in
  if not (ok gamma && ok beta) then
    shape_err "LayerNorm" "LayerNorm: gamma [%s] and beta [%s] must be vectors of the last-axis length %d"
      (show gamma) (show beta) len

let layer_norm_dtype x ~gamma ~beta =
  if x = Tensor.F32 && gamma = Tensor.F32 && beta = Tensor.F32 then Tensor.F32 else Tensor.F64

(* One pass per row over the last axis, keeping the reference's rounding
   points: mean, centered, squared, var, normed under the input's kind;
   [*. gamma] under the promotion of input and gamma; [+. beta] under the
   output's.  Means accumulate in double precision in ascending order
   (no Welford — it would change the bits). *)
let layer_norm_into (x : Tensor.view) ~(gamma : Tensor.view) ~(beta : Tensor.view) ~eps ~c
    ~co =
  let d = Array.of_list x.Tensor.vdims in
  let r = Array.length d in
  if r = 0 then shape_err "LayerNorm" "LayerNorm: rank-0 input";
  let len = d.(r - 1) in
  check_affine_vectors ~rank:r ~len gamma beta;
  let n = Array.fold_left ( * ) 1 d in
  List.iter (check_src "LayerNorm") [ x; gamma; beta ];
  check_dst "LayerNorm" c co n;
  let rx = Tensor.view_dtype x = Tensor.F32 in
  let rg = rx && Tensor.view_dtype gamma = Tensor.F32 in
  let ro = rg && Tensor.view_dtype beta = Tensor.F32 in
  let g = Array.make len 0.0 and b = Array.make len 0.0 in
  load_lane gamma.Tensor.vbuf gamma.Tensor.voff 1 len g;
  load_lane beta.Tensor.vbuf beta.Tensor.voff 1 len b;
  let row = Array.make len 0.0 in
  let cnt = float_of_int (max 1 len) in
  let rows = if len = 0 then 0 else n / len in
  for ri = 0 to rows - 1 do
    let off = ri * len in
    load_lane x.Tensor.vbuf (x.Tensor.voff + off) 1 len row;
    let s = ref 0.0 in
    for k = 0 to len - 1 do
      s := !s +. Array.unsafe_get row k
    done;
    let mean = rnd rx (!s /. cnt) in
    let q = ref 0.0 in
    for k = 0 to len - 1 do
      let ck = rnd rx (Array.unsafe_get row k -. mean) in
      Array.unsafe_set row k ck;
      q := !q +. rnd rx (ck *. ck)
    done;
    let var = rnd rx (!q /. cnt) in
    let den = sqrt (var +. eps) in
    for k = 0 to len - 1 do
      let normed = rnd rx (Array.unsafe_get row k /. den) in
      Array.unsafe_set row k
        (rnd ro (rnd rg (normed *. Array.unsafe_get g k) +. Array.unsafe_get b k))
    done;
    store_lane row c (co + off) 1 len
  done

let layer_norm t ~gamma ~beta ~eps =
  let x = float_view "LayerNorm" t in
  let gv = float_view "LayerNorm" gamma and bv = float_view "LayerNorm" beta in
  let dt =
    layer_norm_dtype (Tensor.dtype t) ~gamma:(Tensor.dtype gamma) ~beta:(Tensor.dtype beta)
  in
  boxed dt (Tensor.dims t) (fun c -> layer_norm_into x ~gamma:gv ~beta:bv ~eps ~c ~co:0)

let channel_shape t v =
  (* Reshape a per-channel vector to broadcast over axis 1 of [t]. *)
  let r = Tensor.rank t in
  let c = Tensor.numel v in
  Tensor.reshape v (1 :: c :: List.init (r - 2) (fun _ -> 1))

let batch_norm t ~scale ~bias ~mean ~var ~eps =
  let scale = channel_shape t scale and bias = channel_shape t bias in
  let mean = channel_shape t mean and var = channel_shape t var in
  let normed = Tensor.map2 (fun x m -> x -. m) t mean in
  let normed = Tensor.map2 (fun x v -> x /. sqrt (v +. eps)) normed var in
  Tensor.map2 ( +. ) (Tensor.map2 ( *. ) normed scale) bias

let group_norm t ~groups ~gamma ~beta ~eps =
  let d = Tensor.dims_arr t in
  let n = d.(0) and c = d.(1) in
  let spatial = Array.to_list (Array.sub d 2 (Array.length d - 2)) in
  let sp = List.fold_left ( * ) 1 spatial in
  let grouped = Tensor.reshape t [ n; groups; c / groups * sp ] in
  let mean = reduce Mean grouped ~axes:[ 2 ] ~keepdims:true in
  let centered = Tensor.map2 ( -. ) grouped mean in
  let var = reduce Mean (Tensor.map_f (fun v -> v *. v) centered) ~axes:[ 2 ] ~keepdims:true in
  let normed = Tensor.map2 (fun x v -> x /. sqrt (v +. eps)) centered var in
  let normed = Tensor.reshape normed (n :: c :: spatial) in
  let gamma = channel_shape t gamma and beta = channel_shape t beta in
  Tensor.map2 ( +. ) (Tensor.map2 ( *. ) normed gamma) beta

let top_k t ~k ~axis ~largest =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  let len = d.(axis) in
  let k = min k len in
  let out_dims = Array.to_list (Array.mapi (fun i v -> if i = axis then k else v) d) in
  let values = Tensor.zeros (Tensor.dtype t) out_dims in
  let indices = Tensor.zeros Tensor.I64 out_dims in
  (* Iterate over all positions with axis fixed to 0, sort each lane. *)
  let outer = Tensor.numel t / len in
  let lane_dims = Array.mapi (fun i v -> if i = axis then 1 else v) d in
  for o = 0 to outer - 1 do
    let base_ix = Tensor.unravel lane_dims o in
    let lane = Array.init len (fun j ->
        let ix = Array.copy base_ix in
        ix.(axis) <- j;
        Tensor.get_f t ix, j)
    in
    Array.sort
      (fun (a, ia) (b, ib) ->
        let c = compare b a in
        let c = if largest then c else -c in
        if c <> 0 then c else compare ia ib)
      lane;
    for j = 0 to k - 1 do
      let v, i = lane.(j) in
      let ix = Array.copy base_ix in
      ix.(axis) <- j;
      Tensor.set_f values ix v;
      Tensor.set_i indices ix i
    done
  done;
  values, indices

let nonzero t =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let hits = ref [] in
  let count = ref 0 in
  let is_nz =
    if Tensor.is_float_dtype (Tensor.dtype t) then begin
      let src = Tensor.data_f t in
      fun flat -> src.(flat) <> 0.0
    end
    else begin
      let src = Tensor.data_i t in
      fun flat -> src.(flat) <> 0
    end
  in
  for flat = 0 to Tensor.numel t - 1 do
    if is_nz flat then begin
      hits := Tensor.unravel d flat :: !hits;
      incr count
    end
  done;
  let hits = Array.of_list (List.rev !hits) in
  let out = Tensor.zeros Tensor.I64 [ max r 1; !count ] in
  Array.iteri
    (fun j ix -> Array.iteri (fun i v -> Tensor.set_i out [| i; j |] v) ix)
    hits;
  out

let cumsum t ~axis =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  let dst = Tensor.data_f t in
  let n = Tensor.numel t in
  for flat = 0 to n - 1 do
    let ix = Tensor.unravel d flat in
    if ix.(axis) > 0 then begin
      let prev = Array.copy ix in
      prev.(axis) <- ix.(axis) - 1;
      dst.(flat) <- dst.(flat) +. dst.(Tensor.ravel d prev)
    end
  done;
  Tensor.of_floats (Tensor.dtype t) (Tensor.dims t) dst
