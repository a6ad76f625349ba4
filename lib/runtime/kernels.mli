(** Reference kernels: execute one operator node on concrete tensors.

    This is the interpreter the [Real] execution mode uses; every operator
    of the IR has a kernel here with ONNX semantics, built on the
    {!Sod2_tensor} primitives.  Control-flow operators ([Switch],
    [Combine]) are {e not} handled here — the executor routes them. *)

val run :
  ?backend:Backend.t -> ?cls:Multi_version.shape_class -> Op.t -> Tensor.t list ->
  Tensor.t list
(** [run op inputs] executes the operator.  Raises [Sod2_error.Error]:
    class [Arity_mismatch] on arity violations, class [Unsupported] for the
    two operators that cannot be interpreted without sub-graph support
    ([If], [Loop]) and for control flow, which the executor routes.  The
    strided kernels (Softmax, LogSoftmax, LayerNorm, Reduce, ArgMax/ArgMin,
    Transpose) raise [Shape_mismatch] on an out-of-range axis, a
    non-permutation or a gamma/beta of the wrong length, and
    [Unsupported] on an integer input where they need floats; a few other
    tensor primitives may still raise [Invalid_argument] on shape
    violations inside an operator.

    Without [backend] every operator runs the naive reference kernel
    (bit-exact, the fallback/golden path).  With one, the heavy operators
    (MatMul, Gemm, Conv, Conv1d) and large elementwise maps dispatch to
    the blocked/parallel variants; [cls] pins the GEMM shape class when
    the caller resolved it at compile time. *)

val run_into :
  ?backend:Backend.t -> ?cls:Multi_version.shape_class -> Op.t ->
  Tensor.view list -> c:Tensor.fbuf -> co:int -> cap:int -> int list option
(** Destination-passing execution for the arena runtime: evaluate [op]
    over view inputs, writing the single output into [c] at element offset
    [co], and return its dims — but only when the operator has a
    destination-passing kernel {e and} the result occupies exactly [cap]
    elements (the planned slot's capacity).  [None] means nothing was
    written and the caller must run the boxed {!run} path instead.

    Covered operators: Unary, Binary (broadcasting), Clip, BatchNorm,
    MatMul, Conv, Softmax, LogSoftmax, LayerNorm, Transpose and Reduce —
    the ops that dominate steady-state inference traffic.  The strided
    kernels (the last five) run the very loops {!run} runs, so both entries
    give the same bits; they take the destination only when it has the
    kind the boxed result would have.  Everything else (views, Gemm's
    transpose scratch, ArgMax's I64 result, I64 semantics) stays on the
    boxed path by design. *)
