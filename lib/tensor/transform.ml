(* Shape/movement ops for the reference path.  Element access goes through
   the generic getters — these ops are O(n) shuffles, not hot kernels;
   Transpose, which attention runs per layer, is the exception, a strided
   destination kernel — but outputs preserve the input's dtype: a float
   input of either precision maps to the same precision, integers stay
   integers. *)

(* [init_fd dt dims f] is [Tensor.init_f] with an explicit float dtype. *)
let init_fd dt dims f =
  let od = Array.of_list dims in
  let n = List.fold_left ( * ) 1 dims in
  Tensor.of_floats dt dims (Array.init n (fun flat -> f (Tensor.unravel od flat)))

let init_like t dims f = init_fd (Tensor.dtype t) dims f

(* Output dims of [perm] applied to [d], and the source stride of each
   output axis. *)
let transpose_plan d perm =
  let r = Array.length d in
  if List.length perm <> r || List.sort compare perm <> List.init r Fun.id then
    Sod2_error.failf ~op:"Transpose" Sod2_error.Shape_mismatch
      "Transpose: perm [%s] is not a permutation of the %d axes of a rank-%d input"
      (String.concat "; " (List.map string_of_int perm)) r r;
  let perm = Array.of_list perm in
  let src_strides = Tensor.broadcast_strides d d in
  Array.map (fun p -> d.(p)) perm, Array.map (fun p -> src_strides.(p)) perm

(* A stride-table odometer copy: the destination is walked contiguously,
   the source through the permuted strides. *)
let transpose_into (x : Tensor.view) perm ~c ~co =
  let od, sp = transpose_plan (Array.of_list x.Tensor.vdims) perm in
  let n = Array.fold_left ( * ) 1 od in
  let xo = x.Tensor.voff in
  if xo < 0 || xo + n > Tensor.fbuf_len x.Tensor.vbuf || co < 0 || co + n > Tensor.fbuf_len c
  then
    Sod2_error.failf ~op:"Transpose" Sod2_error.Plan_violation
      "Transpose: window of %d elements outside its buffer" n;
  (match x.Tensor.vbuf, c with
  | Tensor.FB32 s, Tensor.FB32 t ->
    Tensor.iter_strided od sp sp (fun flat so _ ->
        Bigarray.Array1.unsafe_set t (co + flat) (Bigarray.Array1.unsafe_get s (xo + so)))
  | Tensor.FB64 s, Tensor.FB64 t ->
    Tensor.iter_strided od sp sp (fun flat so _ ->
        Bigarray.Array1.unsafe_set t (co + flat) (Bigarray.Array1.unsafe_get s (xo + so)))
  | s, t ->
    Tensor.iter_strided od sp sp (fun flat so _ ->
        Tensor.fbuf_set t (co + flat) (Tensor.fbuf_get s (xo + so))));
  Array.to_list od

let transpose t perm =
  if Tensor.is_float_dtype (Tensor.dtype t) then begin
    let od, _ = transpose_plan (Tensor.dims_arr t) perm in
    let c = Tensor.fbuf_create (Tensor.dtype t) (Array.fold_left ( * ) 1 od) in
    Tensor.of_fbuf (transpose_into (Tensor.view_f t) perm ~c ~co:0) c
  end
  else begin
    let od, sp = transpose_plan (Tensor.dims_arr t) perm in
    let src = Tensor.data_i t in
    let dst = Array.make (Array.fold_left ( * ) 1 od) 0 in
    Tensor.iter_strided od sp sp (fun flat so _ -> dst.(flat) <- src.(so));
    Tensor.of_ints (Tensor.dtype t) (Array.to_list od) dst
  end

let normalize_slice_bound dim v ~is_end ~step =
  let v = if v < 0 then v + dim else v in
  if step > 0 then max 0 (min v dim)
  else if is_end then max (-1) (min v (dim - 1))
  else max 0 (min v (dim - 1))

let slice t ~starts ~ends ~axes ?steps () =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let steps = match steps with Some s -> s | None -> List.map (fun _ -> 1) axes in
  let start_arr = Array.make r 0 in
  let step_arr = Array.make r 1 in
  let len_arr = Array.copy d in
  List.iteri
    (fun i axis ->
      let axis = if axis < 0 then axis + r else axis in
      let step = List.nth steps i in
      if step = 0 then invalid_arg "Transform.slice: step 0";
      let s = normalize_slice_bound d.(axis) (List.nth starts i) ~is_end:false ~step in
      let e = normalize_slice_bound d.(axis) (List.nth ends i) ~is_end:true ~step in
      let count =
        if step > 0 then (e - s + step - 1) / step else (s - e + (-step) - 1) / -step
      in
      start_arr.(axis) <- s;
      step_arr.(axis) <- step;
      len_arr.(axis) <- max 0 count)
    axes;
  let out_dims = Array.to_list len_arr in
  let src_ix ix = Array.mapi (fun i v -> start_arr.(i) + (v * step_arr.(i))) ix in
  if Tensor.is_float_dtype (Tensor.dtype t) then
    init_like t out_dims (fun ix -> Tensor.get_f t (src_ix ix))
  else begin
    let out = Tensor.zeros (Tensor.dtype t) out_dims in
    for flat = 0 to Tensor.numel out - 1 do
      let ix = Tensor.unravel len_arr flat in
      Tensor.set_i out ix (Tensor.get_i t (src_ix ix))
    done;
    out
  end

let concat ts ~axis =
  match ts with
  | [] -> invalid_arg "Transform.concat: empty list"
  | first :: _ ->
    let r = Tensor.rank first in
    let axis = if axis < 0 then axis + r else axis in
    let out_axis = List.fold_left (fun acc t -> acc + (Tensor.dims_arr t).(axis)) 0 ts in
    let out_dims =
      List.mapi (fun i v -> if i = axis then out_axis else v) (Tensor.dims first)
    in
    let out = Tensor.zeros (Tensor.dtype first) out_dims in
    let as_float = Tensor.is_float_dtype (Tensor.dtype first) in
    let offset = ref 0 in
    List.iter
      (fun t ->
        let d = Tensor.dims_arr t in
        let n = Tensor.numel t in
        for flat = 0 to n - 1 do
          let ix = Tensor.unravel d flat in
          let out_ix = Array.copy ix in
          out_ix.(axis) <- ix.(axis) + !offset;
          if as_float then Tensor.set_f out out_ix (Tensor.get_f t ix)
          else Tensor.set_i out out_ix (Tensor.get_i t ix)
        done;
        offset := !offset + d.(axis))
      ts;
    out

let split t ~axis ~sizes =
  let r = Tensor.rank t in
  let axis = if axis < 0 then axis + r else axis in
  let starts = ref 0 in
  List.map
    (fun size ->
      let s = !starts in
      starts := s + size;
      slice t ~starts:[ s ] ~ends:[ s + size ] ~axes:[ axis ] ())
    sizes

let gather t ~indices ~axis =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let axis = if axis < 0 then axis + r else axis in
  let idx_dims = Tensor.dims indices in
  let out_dims =
    List.concat
      [ List.filteri (fun i _ -> i < axis) (Tensor.dims t);
        idx_dims;
        List.filteri (fun i _ -> i > axis) (Tensor.dims t)
      ]
  in
  let ir = List.length idx_dims in
  let src_ix out_ix =
    let idx_ix = Array.sub out_ix axis ir in
    let pos = Tensor.get_i indices idx_ix in
    let pos = if pos < 0 then pos + d.(axis) else pos in
    Array.init r (fun i ->
        if i < axis then out_ix.(i)
        else if i = axis then pos
        else out_ix.(i + ir - 1))
  in
  if Tensor.is_float_dtype (Tensor.dtype t) then
    init_like t out_dims (fun ix -> Tensor.get_f t (src_ix ix))
  else begin
    let out = Tensor.zeros (Tensor.dtype t) out_dims in
    let od = Array.of_list out_dims in
    for flat = 0 to Tensor.numel out - 1 do
      let ix = Tensor.unravel od flat in
      Tensor.set_i out ix (Tensor.get_i t (src_ix ix))
    done;
    out
  end

let pad t ~before ~after ~value =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  if List.length before <> r || List.length after <> r then
    invalid_arg "Transform.pad: pads must match rank";
  let bef = Array.of_list before in
  let out_dims = List.mapi (fun i v -> v + List.nth before i + List.nth after i) (Tensor.dims t) in
  init_like t out_dims (fun ix ->
      let src = Array.mapi (fun i v -> v - bef.(i)) ix in
      let inside = ref true in
      Array.iteri (fun i v -> if v < 0 || v >= d.(i) then inside := false) src;
      if !inside then Tensor.get_f t src else value)

let tile t ~repeats =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  if List.length repeats <> r then invalid_arg "Transform.tile: repeats must match rank";
  let out_dims = List.mapi (fun i v -> v * List.nth repeats i) (Tensor.dims t) in
  init_like t out_dims (fun ix ->
      Tensor.get_f t (Array.mapi (fun i v -> v mod d.(i)) ix))

let resize_nearest t ~out_spatial =
  let d = Tensor.dims_arr t in
  let r = Array.length d in
  let spatial_rank = List.length out_spatial in
  if spatial_rank <> r - 2 then
    invalid_arg "Transform.resize_nearest: spatial rank mismatch";
  let out_dims = d.(0) :: d.(1) :: out_spatial in
  let out_sp = Array.of_list out_spatial in
  init_like t out_dims (fun ix ->
      let src =
        Array.mapi
          (fun i v ->
            if i < 2 then v
            else
              let in_sz = d.(i) and out_sz = out_sp.(i - 2) in
              min (in_sz - 1) (v * in_sz / out_sz))
          ix
      in
      Tensor.get_f t src)

let where cond a b =
  let dims = Tensor.broadcast_dims (Tensor.dims_arr cond)
      (Tensor.broadcast_dims (Tensor.dims_arr a) (Tensor.dims_arr b))
  in
  let dl = Array.to_list dims in
  let odt =
    if Tensor.dtype a = Tensor.F64 || Tensor.dtype b = Tensor.F64 then Tensor.F64
    else Tensor.F32
  in
  let cond = Tensor.broadcast_to cond dl in
  let a = Tensor.broadcast_to a dl in
  let b = Tensor.broadcast_to b dl in
  let mask = Tensor.data_i cond in
  let da = Tensor.data_f a and db = Tensor.data_f b in
  Tensor.of_floats odt dl
    (Array.init (Array.length da) (fun i -> if mask.(i) <> 0 then da.(i) else db.(i)))

let one_hot t ~depth =
  let out_dims = Tensor.dims t @ [ depth ] in
  let src = Tensor.data_i t in
  let sd = Tensor.dims_arr t in
  Tensor.init_f out_dims (fun ix ->
      let r = Array.length ix in
      let base = Array.sub ix 0 (r - 1) in
      let v = src.(if Array.length sd = 0 then 0 else Tensor.ravel sd base) in
      if v = ix.(r - 1) then 1.0 else 0.0)

let range ~start ~limit ~delta =
  if delta = 0 then invalid_arg "Transform.range: delta 0";
  let count = max 0 ((limit - start + delta + (if delta > 0 then -1 else 1)) / delta) in
  Tensor.create_i [ count ] (Array.init count (fun i -> start + (i * delta)))

let depth_to_space t ~block =
  let d = Tensor.dims_arr t in
  let c' = d.(1) / (block * block) in
  let out_dims = [ d.(0); c'; d.(2) * block; d.(3) * block ] in
  init_like t out_dims (fun ix ->
      let oy = ix.(2) and ox = ix.(3) in
      let by = oy mod block and bx = ox mod block in
      let src_c = (((by * block) + bx) * c') + ix.(1) in
      Tensor.get_f t [| ix.(0); src_c; oy / block; ox / block |])

let space_to_depth t ~block =
  let d = Tensor.dims_arr t in
  let c = d.(1) in
  let out_dims = [ d.(0); c * block * block; d.(2) / block; d.(3) / block ] in
  init_like t out_dims (fun ix ->
      let oc = ix.(1) in
      let src_c = oc mod c in
      let rem = oc / c in
      let by = rem / block and bx = rem mod block in
      Tensor.get_f t [| ix.(0); src_c; (ix.(2) * block) + by; (ix.(3) * block) + bx |])
