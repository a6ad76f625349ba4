(** Reduction and search kernels: axis reductions, argmax/argmin, softmax,
    normalizations, top-k, non-zero and cumulative sum.  Semantics follow
    the ONNX operator specifications. *)

type kind =
  | Sum
  | Mean
  | Max
  | Min
  | Prod
  | L2

(** {1 Strided destination-passing kernels}

    Each kernel is one loop over {!Tensor.view} windows; the boxed entry
    points below allocate the output and run the same loop.  Every output
    cell accumulates in double precision in ascending source order, and the
    composite ops (softmax, layer norm) round at the same points as their
    reference composition of stored tensors, so results are bit-identical
    to it in either float kind.  Errors are structured
    {!Sod2_error.Error}s: [Shape_mismatch] for an out-of-range axis or a
    malformed gamma/beta, [Unsupported] for an integer input,
    [Plan_violation] for a window outside its buffer. *)

val reduce_into :
  kind -> Tensor.view -> axes:int list -> keepdims:bool -> c:Tensor.fbuf -> co:int ->
  int list
(** Writes the reduction into [c] from element [co]; returns the output
    dims. *)

val reduce_out_dims : int array -> axes:int list -> keepdims:bool -> int list
(** Output dims of reducing [axes] of the given input dims (same axis
    checks as {!reduce_into}). *)

val softmax_into :
  log_space:bool -> Tensor.view -> axis:int -> c:Tensor.fbuf -> co:int -> unit
(** Softmax ([log_space = false]) or LogSoftmax along [axis]; the output has
    the input's dims.  Rounding points under f32: Softmax rounds
    [exp (x - max)], the lane sum and the quotient; LogSoftmax rounds
    [x - max], each [exp], the sum and [shifted - log sum]. *)

val layer_norm_into :
  Tensor.view -> gamma:Tensor.view -> beta:Tensor.view -> eps:float -> c:Tensor.fbuf ->
  co:int -> unit
(** Normalization over the last axis; [gamma]/[beta] are vectors of the
    last-axis length (leading size-1 axes allowed).  Rounding points: mean,
    centered, squared, var and normed in the input's kind; [*. gamma] in
    the promotion of input and gamma; [+. beta] in {!layer_norm_dtype}. *)

val layer_norm_dtype : Tensor.dtype -> gamma:Tensor.dtype -> beta:Tensor.dtype -> Tensor.dtype
(** Output kind of a layer norm: {!Tensor.F32} when all three operands are
    F32, else {!Tensor.F64}. *)

(** {1 Boxed kernels} *)

val reduce : kind -> Tensor.t -> axes:int list -> keepdims:bool -> Tensor.t
(** Reduce the given axes; [axes = []] reduces all axes. *)

val argmax : Tensor.t -> axis:int -> keepdims:bool -> Tensor.t
(** Integer tensor of indices of the (first) maximum along [axis]. *)

val argmin : Tensor.t -> axis:int -> keepdims:bool -> Tensor.t

val softmax : Tensor.t -> axis:int -> Tensor.t
(** Numerically-stable softmax along [axis]. *)

val log_softmax : Tensor.t -> axis:int -> Tensor.t

val layer_norm : Tensor.t -> gamma:Tensor.t -> beta:Tensor.t -> eps:float -> Tensor.t
(** Normalization over the last axis. *)

val batch_norm :
  Tensor.t -> scale:Tensor.t -> bias:Tensor.t -> mean:Tensor.t -> var:Tensor.t ->
  eps:float -> Tensor.t
(** Inference-mode batch normalization over the channel axis (axis 1). *)

val group_norm : Tensor.t -> groups:int -> gamma:Tensor.t -> beta:Tensor.t ->
  eps:float -> Tensor.t

val top_k : Tensor.t -> k:int -> axis:int -> largest:bool -> Tensor.t * Tensor.t
(** [(values, indices)] of the [k] largest (or smallest) elements along
    [axis], sorted. *)

val nonzero : Tensor.t -> Tensor.t
(** ONNX [NonZero]: integer tensor of shape [rank × count] holding the
    multi-indices of non-zero elements in row-major order. *)

val cumsum : Tensor.t -> axis:int -> Tensor.t
