(** Layout- and index-transforming kernels: transpose, slice, concat, split,
    gather, pad, tile, resize, one-hot, range, where.  Semantics follow the
    ONNX operator specifications. *)

val transpose : Tensor.t -> int list -> Tensor.t
(** [transpose t perm] permutes axes; [perm] must be a permutation of
    [0 .. rank-1], else a [Shape_mismatch] {!Sod2_error.Error}.  Any
    dtype. *)

val transpose_into :
  Tensor.view -> int list -> c:Tensor.fbuf -> co:int -> int list
(** Destination-passing {!transpose}: writes the permuted window into [c]
    from element [co] and returns the output dims.  Same errors as
    {!transpose}, plus [Plan_violation] when a window falls outside its
    buffer. *)

val slice :
  Tensor.t -> starts:int list -> ends:int list -> axes:int list ->
  ?steps:int list -> unit -> Tensor.t
(** ONNX [Slice] with clamping of out-of-range bounds and negative
    indices. *)

val concat : Tensor.t list -> axis:int -> Tensor.t

val split : Tensor.t -> axis:int -> sizes:int list -> Tensor.t list

val gather : Tensor.t -> indices:Tensor.t -> axis:int -> Tensor.t
(** ONNX [Gather]: output rank = rank(data) - 1 + rank(indices); negative
    indices count from the end of the gathered axis. *)

val pad : Tensor.t -> before:int list -> after:int list -> value:float -> Tensor.t

val tile : Tensor.t -> repeats:int list -> Tensor.t

val resize_nearest : Tensor.t -> out_spatial:int list -> Tensor.t
(** Nearest-neighbour resize of the trailing spatial axes of an NCHW (or
    NCW) tensor. *)

val where : Tensor.t -> Tensor.t -> Tensor.t -> Tensor.t
(** [where cond a b]: elementwise select with broadcasting; [cond] is an
    integer mask. *)

val one_hot : Tensor.t -> depth:int -> Tensor.t
(** Indices → one-hot float tensor with a trailing [depth] axis. *)

val range : start:int -> limit:int -> delta:int -> Tensor.t
(** 1-d integer tensor [start, start+delta, …) strictly before [limit]. *)

val depth_to_space : Tensor.t -> block:int -> Tensor.t
(** ONNX [DepthToSpace] (DCR mode) on NCHW. *)

val space_to_depth : Tensor.t -> block:int -> Tensor.t
