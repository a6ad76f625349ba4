(** Fused-group kernel compilation (§4.2 fused code generation).

    Lowers fusion groups into single executable kernels.  The vocabulary:
    an optional heavy anchor first (MatMul/Gemm/Conv/Conv1d), then a
    One-to-One chain of pointwise and view ops (Unary, Binary, Clip,
    BatchNorm, Cast, Where, Transpose, Reshape/Flatten/Squeeze/Unsqueeze),
    then optionally one pooling op (MaxPool, AveragePool,
    GlobalAveragePool).

    - Without an anchor, the chain becomes one closure-compiled loop over
      the output's flat index space (no intermediate tensors; broadcasts
      become precomputed index maps).
    - With an anchor, the chain is lowered to a typed write-back program
      ({!Blocked.f_epilogue}) that the C tile applies before its single
      store.  A chain that does not lower runs {e two-phase}: the anchor
      into a scratch of the kind op-by-op execution stores it in, then
      the closure loop over it.
    - A pooling tail pools the chain's result, written first into a
      per-domain scratch of the destination's kind, into the destination.

    Compile time produces {!template}s (one per eligible group); the first
    execution under concrete dims {!specialize}s a template into a
    {!kernel} — the runtime side of bounded multi-version code generation,
    where each still-ambiguous broadcast collapses to one concrete variant.
    Kernels are cached by the backend per (group × shape); this module is
    purely functional.

    Scalar element semantics come from {!Op_semantics}, the same closures
    the reference kernels use, and the typed steps reproduce them in C with
    the same rounding points, so fused groups are bit-for-bit equal to
    op-by-op execution (DESIGN.md §14). *)

type template = {
  t_gid : int;
  t_members : Graph.node list;  (** in topological order *)
  t_anchor : Graph.node option;  (** heavy first member, when present *)
  t_pool : Graph.node option;  (** pooling last member, when present *)
  t_out : Graph.tensor_id;  (** the terminal (only materialized) output *)
  t_slots : Graph.tensor_id array;  (** external element inputs, slot order *)
  t_versions : int;  (** broadcast versions bounded at fusion time *)
}

type kernel = {
  k_out : Graph.tensor_id;
  k_dims : (Graph.tensor_id * int list) list;
      (** concrete output dims of every member, terminal included *)
  k_run : par:Blocked.par -> Tensor.t array -> Tensor.t;
      (** args in slot order; returns the terminal tensor *)
  k_run_into :
    par:Blocked.par -> Tensor.view array -> c:Tensor.fbuf -> co:int -> unit;
      (** destination-passing variant: args arrive as offset-carrying views
          (slot order) and the terminal result is written into [c] at
          element offset [co] — no output allocation.  [k_run] is a wrapper
          that allocates a fresh tensor and calls this at offset 0. *)
  k_dtype : Tensor.dtype;
      (** the terminal's kind as op-by-op execution stores it (a final
          [Cast] sets it, otherwise kinds promote from the slots) — what
          [k_run] allocates; a destination of another kind moves the
          rounding point *)
  k_two_phase : bool;
      (** an anchored kernel whose chain did not lower to a write-back
          program, so the anchor result is computed first and the chain
          runs as a second pass over it *)
}

val plan :
  ?quantized:(Graph.node -> bool) -> Graph.t -> Fusion.plan ->
  template option array
(** Per-group templates, indexed by group id.  [None] for singleton groups
    and groups containing an operator outside the vocabulary above
    (reductions other than a pooling tail; data-dependent reshapes;
    I64-producing casts; …) — those keep op-by-op execution.  [quantized] (default: nothing) marks nodes the runtime
    will dispatch to int8 weight-quantized kernels; their groups get no
    template, since the fused float kernel would silently bypass
    quantization. *)

val restrict :
  template option array -> live:(int -> bool) -> template option array
(** A per-outcome variant's view of the template array: groups the variant
    prunes map to [None].  Live groups keep the {e same} template values as
    the base array, so backend kernel caches keyed by template identity are
    shared across variants — specialization cost is paid once per (group ×
    shape), not per outcome vector. *)

val specialize :
  Graph.t -> template ->
  tiles:(Multi_version.shape_class -> Blocked.tiles) ->
  args:(int list * Tensor.dtype) array ->
  (kernel, string) result
(** Compile the template against concrete slot dims/dtypes (slot order).
    [tiles] resolves the anchor's shape class to blocked tile extents
    (normally the autotuner table's choice).  [Error] means this shape
    cannot be fused soundly (I64 element inputs, non-concrete member
    shapes, …) and the caller should fall back to op-by-op execution. *)
