(** Cache-blocked, register-tiled GEMM and implicit-im2col convolution —
    the "real" multi-version kernel backend (§4.4.2).

    The naive loop nests in {!Linalg} remain the bit-exact reference; this
    module provides the optimized variants the autotuner's tile/thread
    choices actually steer:

    - {!gemm} splits the M dimension into macro row-tiles that a parallel
      runner can execute concurrently; each tile runs a C kernel
      ([gemm_stubs.c]) that packs the tile's rows of A into double-precision
      row quads and keeps a 4×16 register micro-tile of double chains over
      the full depth, reading B straight from its row-major storage, and
      applies an optional typed write-back program ({!f_epilogue});
    - {!conv2d_im2col} runs convolution (grouped, strided, dilated,
      padded) as that GEMM per (image, group) over the im2col matrix of
      the input without ever storing it: for each column block the tile
      gathers the block's panel straight from the NCHW input, and every
      row quad reuses it.  The int8 convolution shares the gather.

    The C kernels are built once per instruction set (x86-64-v4, x86-64-v3
    and baseline) from one source; the loader picks the widest one the CPU
    runs, and {!isa} names it.  No option, variable or setting chooses.

    The module is deliberately runtime-agnostic: parallelism arrives
    through the {!par} record so the tensor library does not depend on the
    runtime's domain pool. *)

type par = { run : int -> (int -> unit) -> unit }
(** [run n f] evaluates [f 0 .. f (n-1)], possibly concurrently.  Tasks
    must be independent.  {!sequential} is the inline default. *)

val sequential : par

type tiles = {
  tm : int;  (** macro row-tile height (parallel work unit) *)
  tn : int;  (** column-block width (rounded up to whole micro-tiles) *)
  tk : int;
  kunroll : int;
      (** [tk] and [kunroll] are kept so autotuner configurations and
          [Tune_cache] lines keep their format; they no longer select a
          kernel or a panel depth. *)
}

val default_tiles : tiles

val isa : unit -> string
(** The instruction-set build of the C tile kernels this process runs:
    ["x86-64-v4"] (AVX-512), ["x86-64-v3"] (AVX2+FMA) or ["portable"]. *)

val tiles_of : tile_m:int -> tile_n:int -> tile_k:int -> unroll:int -> tiles
(** Sanitize an autotuner configuration into usable tile extents (clamped
    to sane minima so degenerate configs cannot starve the kernel). *)

(** {1 Typed float epilogue}

    The write-back program of an anchored fused group (bias, BatchNorm,
    activation, residual): a list of steps applied, by the C tile, to each
    output element's pre-store double value [c + Σ a·b] before the single
    store.  The steps reproduce the {!Op_semantics}-style OCaml element
    functions bit for bit: same operations, same order, no contraction of
    a multiply into an add. *)

type f_operand = {
  obuf : Tensor.fbuf;
  ooff : int;  (** element offset of the operand's first value *)
  odiv : int;
  olen : int;
}
(** A binary step's second operand.  Output element [flat] reads
    [obuf.(ooff + ((flat / odiv) mod olen))], where [flat] is the
    element's index relative to the epilogue base ([ep_off]).  A scalar is
    [olen = 1]; a per-channel vector of an NCHW output is [odiv = H·W],
    [olen = C]; a last-axis bias is [odiv = 1], [olen = N]; a same-shape
    residual is [odiv = 1], [olen = numel]. *)

type f_binop = Add | Sub | Mul | Div | Max2 | Min2
(** [( +. )], [( -. )], [( *. )], [( /. )], [Float.max], [Float.min]. *)

(** The OCaml element functions these reproduce: [Relu] is
    [Float.max 0.0 v]; [Leaky_relu a] is [if v >= 0.0 then v else a *. v];
    [Clip (lo, hi)] is [Float.min hi (Float.max lo v)]; the others are
    [Op_semantics.unary_fn] of the same name (libm [exp], [log], [tanh];
    [Erf] and [Gelu] use the same Abramowitz–Stegun polynomial). *)
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
      (** [chain op x] when [chain_left], else [x op chain] *)
  | Unary of f_unary
  | Round_f32  (** round to the nearest f32, as an f32 tensor store would *)

type f_epilogue = f_step list
(** At most {!max_steps} steps; [[]] is the plain store. *)

val max_steps : int
(** The longest write-back program the tile accepts (64); a longer one is
    rejected with [Invalid_argument] at the call. *)

val gemm :
  ?par:par -> ?tiles:tiles -> ?epilogue:f_epilogue ->
  ?ep_off:int -> m:int -> n:int ->
  k:int -> a:Tensor.fbuf -> ao:int -> b:Tensor.fbuf -> bo:int ->
  c:Tensor.fbuf -> co:int -> unit -> unit
(** [gemm ~m ~n ~k ~a ~ao ~b ~bo ~c ~co] accumulates the row-major product
    [A(m×k) · B(k×n)] into [C(m×n)]: [c += a·b], reading each operand at
    its flat offset.  [C] is {e accumulated into}, not overwritten, so
    callers zero- or bias-initialize it.

    [epilogue] (default [[]]) runs on every finished pre-store value,
    exactly once per element, after the full depth [k] has been
    accumulated; the store after it is the single rounding point of an
    f32 [C].  Its operand index is the element's flat index into [c] minus
    [ep_off] (default [0]), which must not be negative: destination-passing
    callers whose output lives at a nonzero base pass [~ep_off:base].
    Operand windows outside their buffers raise [Invalid_argument]. *)

val conv2d_im2col :
  ?par:par -> ?tiles:tiles -> ?epilogue:f_epilogue ->
  stride:int * int -> pad:int * int * int * int -> dilation:int * int ->
  groups:int -> Tensor.t -> Tensor.t -> Tensor.t option -> Tensor.t
(** Drop-in replacement for {!Linalg.conv2d}: same NCHW/OIHW layouts, same
    validation, same output; internally each (image, group) pair is a
    [mg × (oh·ow) × (cg·kh·kw)] GEMM over the implicit im2col matrix, with
    the bits of the explicit im2col GEMM.  [epilogue] runs at the tile's
    write-back with flat indices into the NCHW output (it never runs if
    the output is empty). *)

(** {1 Int8 path}

    Quantized GEMM/conv with the requantization (or dequantization)
    epilogue applied by the C kernel at write-back.  Unlike the float
    {!gemm}, the destination is {e overwritten}: every element's complete
    accumulator exists exactly once, at write-back, where the epilogue
    consumes it.  No int32 intermediate is ever materialized.

    Both operands are widened to int16 (B transposed once per call, or
    one column block at a time for a convolution) and
    every output is an exact int32 dot product; zero points are handled
    by the row/column-sum correction [Σ(a-za)(b-zb) = Σab − zb·Σa − za·Σb
    + k·za·zb], so the epilogue always sees the exact zero-point-corrected
    accumulator.  The depth is capped at {!max_i8_depth} so the int32 sums
    cannot overflow ([Invalid_argument] beyond). *)

val max_i8_depth : int

(** The write-back applied to each corrected accumulator [acc] of output
    row [i].  An array of length 1 serves every row; otherwise entry [i]
    serves row [i] (for convolutions, output channel [i]). *)
type i8_epilogue =
  | Requant of Quant.requant array
      (** {!Quant.requantize_one}: gemmlowp fixed-point scale, output
          zero point, clamp to [[-128, 127]].  Multipliers must lie in
          the int32 fixed-point range ([qm] in [[0, 2^31)], [|shift| ≤ 62]). *)
  | Dequant of { scales : float array; bias : float array option }
      (** [float acc *. scales.(i)], then [+. bias.(i)] when present, in
          double, rounded once by the float store. *)

val gemm_i8 :
  ?par:par -> ?tiles:tiles -> za:int -> zb:int -> epilogue:i8_epilogue ->
  m:int -> n:int -> k:int -> a:Tensor.i8buf -> ao:int -> b:Tensor.i8buf -> bo:int ->
  c:Tensor.i8buf -> co:int -> unit -> unit
(** Row-major [C(m×n) := epilogue (Σ (a-za)(b-zb))] over int8 operands.
    The epilogue must be [Requant]. *)

val gemm_i8_dequant :
  ?par:par -> ?tiles:tiles -> za:int -> zb:int -> epilogue:i8_epilogue ->
  m:int -> n:int -> k:int -> a:Tensor.i8buf -> ao:int -> b:Tensor.i8buf -> bo:int ->
  c:Tensor.fbuf -> co:int -> unit -> unit
(** Same kernel, float write-back with a [Dequant] epilogue — the
    dynamic-quantization form the executor uses so quantized nodes
    compose with the float arena machinery. *)

val conv2d_i8_into :
  ?par:par -> ?tiles:tiles -> zx:int -> zw:int -> epilogue:i8_epilogue ->
  stride:int * int -> pad:int * int * int * int -> dilation:int * int ->
  groups:int -> x:Tensor.i8buf -> xoff:int -> xdims:int array ->
  w:Tensor.i8buf -> woff:int -> wdims:int array ->
  c:Tensor.i8buf -> co:int -> unit -> int list
(** Quantized implicit-im2col convolution (NCHW/OIHW, grouped/strided/
    dilated/padded like {!conv2d_im2col_into}), int8 destination.  [zx]/[zw] are
    the input/weight zero points; padding taps hold [zx] so they
    dequantize to zero.  Epilogue rows are output channels.  Returns the
    output dims [N;M;Oh;Ow]. *)

val conv2d_i8_dequant_into :
  ?par:par -> ?tiles:tiles -> zx:int -> zw:int -> epilogue:i8_epilogue ->
  stride:int * int -> pad:int * int * int * int -> dilation:int * int ->
  groups:int -> x:Tensor.i8buf -> xoff:int -> xdims:int array ->
  w:Tensor.i8buf -> woff:int -> wdims:int array ->
  c:Tensor.fbuf -> co:int -> unit -> int list
(** Float write-back variant of {!conv2d_i8_into}: a [Dequant] epilogue
    folds the per-channel scale and the (float) bias into the store. *)

val conv2d_im2col_into :
  ?par:par -> ?tiles:tiles -> ?epilogue:f_epilogue ->
  ?ep_off:int -> stride:int * int -> pad:int * int * int * int ->
  dilation:int * int -> groups:int -> Tensor.view -> Tensor.view ->
  Tensor.view option -> c:Tensor.fbuf -> co:int -> int list
(** Destination-passing {!conv2d_im2col}: operands arrive as
    offset-carrying views, the [N×M×Oh×Ow] result is written into [c] at
    element offset [co] (bias- or zero-initialized first) and its dims are
    returned.  [epilogue] indices are flat offsets into [c] minus [ep_off]
    (see {!gemm}) — pass [~ep_off:co] for output-relative coordinates. *)

(** The same drivers over the portable (baseline instruction set) build
    of the C kernels, compiled from the same source as the dispatched
    clones.  For tests that hold the two bit-identical; nothing else
    should call these. *)
module For_testing : sig
  val gemm_portable :
    ?par:par -> ?tiles:tiles -> ?epilogue:f_epilogue ->
    ?ep_off:int -> m:int -> n:int ->
    k:int -> a:Tensor.fbuf -> ao:int -> b:Tensor.fbuf -> bo:int ->
    c:Tensor.fbuf -> co:int -> unit -> unit

  val conv2d_im2col_into_portable :
    ?par:par -> ?tiles:tiles -> ?epilogue:f_epilogue ->
    ?ep_off:int -> stride:int * int -> pad:int * int * int * int ->
    dilation:int * int -> groups:int -> Tensor.view -> Tensor.view ->
    Tensor.view option -> c:Tensor.fbuf -> co:int -> int list

  val gemm_i8_portable :
    ?par:par -> ?tiles:tiles -> za:int -> zb:int -> epilogue:i8_epilogue ->
    m:int -> n:int -> k:int -> a:Tensor.i8buf -> ao:int -> b:Tensor.i8buf -> bo:int ->
    c:Tensor.i8buf -> co:int -> unit -> unit

  val gemm_i8_dequant_portable :
    ?par:par -> ?tiles:tiles -> za:int -> zb:int -> epilogue:i8_epilogue ->
    m:int -> n:int -> k:int -> a:Tensor.i8buf -> ao:int -> b:Tensor.i8buf -> bo:int ->
    c:Tensor.fbuf -> co:int -> unit -> unit

  val conv2d_i8_into_portable :
    ?par:par -> ?tiles:tiles -> zx:int -> zw:int -> epilogue:i8_epilogue ->
    stride:int * int -> pad:int * int * int * int -> dilation:int * int ->
    groups:int -> x:Tensor.i8buf -> xoff:int -> xdims:int array ->
    w:Tensor.i8buf -> woff:int -> wdims:int array ->
    c:Tensor.i8buf -> co:int -> unit -> int list
end
