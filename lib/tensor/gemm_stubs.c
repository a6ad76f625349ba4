/* SIMD tile kernels behind Blocked.gemm, the convolutions, the int8 GEMM
   and the pools.

   One source, several instruction sets: the hot drivers are written once
   with GCC generic vector types and compiled as target clones
   (x86-64-v4 = AVX-512, x86-64-v3 = AVX2+FMA, and the baseline
   "default"), so the dynamic loader picks the widest body the CPU runs.
   The same bodies are also compiled once more without a target, as the
   "portable" entry points the tests drive directly; nothing at run time
   chooses between the two.

   Float tile (numerics contract, DESIGN.md §14).  Every output element is
   one double-precision chain: start at 0.0, add a[i,p]*b[p,j] in
   ascending p, add the chain to C, round once at the store.  The file is
   built with -ffp-contract=off, so the compiler may not fuse a multiply
   into an add.  The one exception is the body used when A and B are both
   f32: the product of two f32 values has at most 48 significant bits, so
   it is exact in double, and fma(a, b, acc) rounds exactly like
   acc + a*b.  That body is compiled with fp-contract=fast.

   Float epilogue.  A fused group's One-to-One chain (bias, BatchNorm,
   activation, residual) arrives as a typed program (Blocked.f_epilogue)
   that runs over each element's pre-store double value before the single
   store.  The tile leaves those values in a per-thread buffer, one column
   chunk at a time, and the program runs over it row by row.  It is
   compiled without contraction, and every step is written in the
   evaluation order of the OCaml element functions it replaces
   (Op_semantics), so the stored bits are the op-by-op bits.

   Implicit im2col.  A convolution of one (image, group) is the GEMM of
   its weights with the im2col matrix of its input.  That matrix is never
   stored: for each column block a tile gathers the block's panel (depth
   x block) straight from the NCHW input, and every row quad of the tile
   reuses it.  The panel holds exactly the values the column matrix held,
   in the same depth order, so the result is the im2col GEMM's, bit for
   bit.  The float and int8 tiles share one gather.

   Int8 tile.  Operands are widened to int16 and B is transposed (once per
   call, or per column block for a convolution), so the depth loop is a
   plain dot product that the vectorizer turns into pmaddwd; sums are
   exact in int32 for depths up to 65536.  The zero-point correction and
   the requantize / dequantize epilogue run at write-back in int64 /
   double.

   Pools.  MaxPool and AveragePool are one loop each over the NCHW input,
   in double, rounded once at the store. */

#define CAML_NAME_SPACE
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <math.h>
#include <pthread.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Clones need GCC 12 or later (ISA-level names in target_clones and
   __builtin_cpu_supports); any other compiler builds the portable body
   alone. */
#if defined(__x86_64__) && !defined(__clang__) && defined(__GNUC__) && __GNUC__ >= 12
#define SOD2_CLONES \
  __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#define SOD2_HAVE_CLONES 1
#else
#define SOD2_CLONES
#define SOD2_HAVE_CLONES 0
#endif

#define INLINE static inline __attribute__((always_inline))

static long lmin(long a, long b) { return a < b ? a : b; }

/* ------------------------------------------------------------------ */
/* Per-thread scratch                                                  */

/* Packed operand panels live in per-thread buffers that only grow, so a
   steady stream of GEMMs allocates nothing.  Every OCaml domain is a
   system thread; the buffers are freed when it exits. */
struct scratch {
  void *p;
  size_t cap;
};
enum { SCR_A, SCR_TAIL, SCR_EP, SCR_X, SCR_PANEL, SCR_COUNT };

static pthread_key_t scratch_key;
static pthread_once_t scratch_once = PTHREAD_ONCE_INIT;

static void scratch_free(void *v)
{
  struct scratch *s = v;
  for (int i = 0; i < SCR_COUNT; i++) free(s[i].p);
  free(s);
}

static void scratch_make_key(void) { pthread_key_create(&scratch_key, scratch_free); }

/* A 64-byte-aligned buffer of at least [bytes]; raises Out_of_memory, so
   call it before releasing the runtime lock. */
static void *scratch(int slot, size_t bytes)
{
  pthread_once(&scratch_once, scratch_make_key);
  struct scratch *s = pthread_getspecific(scratch_key);
  if (s == NULL) {
    s = calloc(SCR_COUNT, sizeof *s);
    if (s == NULL || pthread_setspecific(scratch_key, s) != 0) caml_raise_out_of_memory();
  }
  struct scratch *e = &s[slot];
  if (bytes == 0) bytes = 64; /* a valid pointer even for empty operands */
  if (bytes > e->cap) {
    size_t cap = (bytes + 4095) & ~(size_t)4095;
    free(e->p);
    e->p = aligned_alloc(64, cap);
    e->cap = e->p ? cap : 0;
    if (e->p == NULL) caml_raise_out_of_memory();
  }
  return e->p;
}

/* ------------------------------------------------------------------ */
/* Implicit im2col                                                     */

/* One (image, group) convolution as a GEMM.  Its B operand is the im2col
   matrix of the group's input planes [x] (cg planes of h x w): depth
   p = (ci*kh + ky)*kw + kx, column j = oy*ow + ox, and
     B[p, j] = x[ci][oy*sh - pt + ky*dh][ox*sw - pl + kx*dw]
   where that tap lies inside the plane, the padding value elsewhere. */
struct conv_geom {
  const void *x;
  long h, w, cg, kh, kw, sh, sw, pt, pl, dh, dw, ow;
};

/* Read the geometry [| h; w; cg; kh; kw; sh; sw; pt; pl; dh; dw; ow |] at
   [vp.(at)]. */
static void decode_geom(value vp, long at, struct conv_geom *G)
{
#define GEOM(i) Long_val(Field(vp, at + (i)))
  G->h = GEOM(0); G->w = GEOM(1); G->cg = GEOM(2); G->kh = GEOM(3); G->kw = GEOM(4);
  G->sh = GEOM(5); G->sw = GEOM(6); G->pt = GEOM(7); G->pl = GEOM(8);
  G->dh = GEOM(9); G->dw = GEOM(10); G->ow = GEOM(11);
#undef GEOM
}

/* [IM2COL(NAME, ST, DT)] gathers columns [j0, j1) of B, read as ST and
   stored as DT, into [dst]: element (p, j) at dst[p*ldp + (j - j0)*ldj].
   The float tiles take row-major panels (ldj = 1), the int8 tile
   transposed ones (ldp = 1).  Each depth row is walked one output row at
   a time: the taps inside the plane form one strided run, the rest hold
   [padv]. */
#define IM2COL(NAME, ST, DT)                                                   \
  INLINE void NAME(const struct conv_geom *G, long j0, long j1, DT *dst,       \
                   long ldp, long ldj, DT padv)                                \
  {                                                                            \
    const ST *x = G->x;                                                        \
    long h = G->h, w = G->w, sw = G->sw, p = 0;                                \
    for (long ci = 0; ci < G->cg; ci++)                                        \
      for (long ky = 0; ky < G->kh; ky++)                                      \
        for (long kx = 0; kx < G->kw; kx++, p++) {                             \
          long oy = j0 / G->ow, ox = j0 % G->ow;                               \
          for (long j = j0, run; j < j1; j += run, oy++, ox = 0) {             \
            run = lmin(G->ow - ox, j1 - j);                                    \
            DT *o = dst + p * ldp + (j - j0) * ldj;                            \
            long iy = oy * G->sh - G->pt + ky * G->dh;                         \
            long lo = run, hi = run;                                           \
            if (iy >= 0 && iy < h) {                                           \
              long ix0 = ox * sw - G->pl + kx * G->dw;                         \
              lo = lmin(run, ix0 >= 0 ? 0 : (sw - 1 - ix0) / sw);              \
              hi = lmin(run, ix0 >= w ? 0 : (w - ix0 + sw - 1) / sw);          \
              if (hi < lo) hi = lo;                                            \
              const ST *s = x + (ci * h + iy) * w;                             \
              if (ldj == 1 && sw == 1)                                         \
                for (long t = lo; t < hi; t++) o[t] = (DT)s[ix0 + t];          \
              else                                                             \
                for (long t = lo; t < hi; t++) o[t * ldj] = (DT)s[ix0 + t * sw]; \
            }                                                                  \
            for (long t = 0; t < lo; t++) o[t * ldj] = padv;                   \
            for (long t = hi; t < run; t++) o[t * ldj] = padv;                 \
          }                                                                    \
        }                                                                      \
  }

IM2COL(im2col_f32, float, float)
IM2COL(im2col_f64, double, double)
IM2COL(im2col_i8, int8_t, int16_t)

/* ------------------------------------------------------------------ */
/* Float tile                                                          */

typedef double v8d __attribute__((vector_size(64)));
typedef float v8f __attribute__((vector_size(32)));

struct fjob {
  const double *ap;   /* A quads: element (q, p, r) at [(q*k + p)*4 + r] */
  const void *b;      /* B at its first element, row stride n */
  const struct conv_geom *conv; /* non-NULL: B is that implicit im2col matrix */
  void *panel;        /* and this is its k x tn panel of the current block */
  const void *btail;  /* last partial column strip of B, k x 16, or NULL */
  long jtail;         /* first column of that strip */
  void *c;            /* C at element 0 */
  int c_f32;
  double *ep;         /* non-NULL: write c + acc here instead of C */
  long ep_ld;         /* row stride of [ep] */
  long co, n, k, i0, rows, j0, j1, tn;
};

/* One f32 or f64 store of [c + acc] (or the double into the epilogue
   buffer); [ci] is C's flat index. */
INLINE void fstore(const struct fjob *J, long ci, long ei, double acc)
{
  if (J->ep) {
    double cv = J->c_f32 ? (double)((const float *)J->c)[ci] : ((const double *)J->c)[ci];
    J->ep[ei] = cv + acc;
  } else if (J->c_f32) {
    float *c = J->c;
    c[ci] = (float)((double)c[ci] + acc);
  } else {
    double *c = J->c;
    c[ci] = c[ci] + acc;
  }
}

/* [FTILE(NAME, BT, VB, GATHER)] defines the tile driver for B elements of
   type BT (VB = 8 of them).  The 4x16 micro-tile keeps its 64 chains in
   eight 8-lane double vectors for the whole depth; only the write-back
   touches C.  Column blocks of width tn keep a B strip cache-resident
   while every row quad of the tile passes over it; for a convolution
   that strip is the panel GATHER builds, zero-padded to whole
   micro-tiles. */
#define FTILE(NAME, BT, VB, GATHER)                                              \
  INLINE void NAME##_micro(const double *ap, const BT *bp, long ldb, long k,     \
                           v8d acc[8])                                           \
  {                                                                              \
    v8d c0 = {0}, c1 = {0}, c2 = {0}, c3 = {0};                                  \
    v8d c4 = {0}, c5 = {0}, c6 = {0}, c7 = {0};                                  \
    for (long p = 0; p < k; p++) {                                               \
      VB l, h;                                                                   \
      memcpy(&l, bp + p * ldb, sizeof l);                                        \
      memcpy(&h, bp + p * ldb + 8, sizeof h);                                    \
      v8d bl = __builtin_convertvector(l, v8d);                                  \
      v8d bh = __builtin_convertvector(h, v8d);                                  \
      const double *a = ap + p * 4;                                              \
      c0 += a[0] * bl;                                                           \
      c1 += a[0] * bh;                                                           \
      c2 += a[1] * bl;                                                           \
      c3 += a[1] * bh;                                                           \
      c4 += a[2] * bl;                                                           \
      c5 += a[2] * bh;                                                           \
      c6 += a[3] * bl;                                                           \
      c7 += a[3] * bh;                                                           \
    }                                                                            \
    acc[0] = c0; acc[1] = c1; acc[2] = c2; acc[3] = c3;                          \
    acc[4] = c4; acc[5] = c5; acc[6] = c6; acc[7] = c7;                          \
  }                                                                              \
  INLINE void NAME##_body(const struct fjob *J)                                  \
  {                                                                              \
    long nq = (J->rows + 3) / 4;                                                 \
    for (long jb = J->j0; jb < J->j1; jb += J->tn) {                             \
      long je = lmin(jb + J->tn, J->j1);                                         \
      const BT *b; /* column jb of B, row stride ldb */                          \
      long ldb;                                                                  \
      if (!J->conv) {                                                            \
        b = (const BT *)J->b + jb;                                               \
        ldb = J->n;                                                              \
      } else {                                                                   \
        BT *pn = J->panel;                                                       \
        long wp = (je - jb + 15) / 16 * 16;                                      \
        GATHER(J->conv, jb, je, pn, J->tn, 1, (BT)0);                            \
        for (long p = 0; p < J->k; p++)                                          \
          for (long t = je - jb; t < wp; t++) pn[p * J->tn + t] = 0;             \
        b = pn;                                                                  \
        ldb = J->tn;                                                             \
      }                                                                          \
      for (long q = 0; q < nq; q++) {                                            \
        const double *ap = J->ap + q * J->k * 4;                                 \
        long rn = lmin(4, J->rows - q * 4);                                      \
        long i = J->i0 + q * 4;                                                  \
        for (long j = jb; j < je; j += 16) {                                     \
          long w = lmin(16, je - j);                                             \
          v8d acc[8];                                                            \
          if (j >= J->jtail && J->btail)                                         \
            NAME##_micro(ap, (const BT *)J->btail, 16, J->k, acc);               \
          else                                                                   \
            NAME##_micro(ap, b + (j - jb), ldb, J->k, acc);                      \
          long ci = J->co + i * J->n + j;                                        \
          if (w == 16 && J->ep) {                                                \
            long ei = (i - J->i0) * J->ep_ld + (j - J->j0);                      \
            for (long r = 0; r < rn; r++, ci += J->n, ei += J->ep_ld) {          \
              v8d y0, y1;                                                        \
              if (J->c_f32) {                                                    \
                v8f x0, x1;                                                      \
                memcpy(&x0, (const float *)J->c + ci, sizeof x0);                \
                memcpy(&x1, (const float *)J->c + ci + 8, sizeof x1);            \
                y0 = __builtin_convertvector(x0, v8d);                           \
                y1 = __builtin_convertvector(x1, v8d);                           \
              } else {                                                           \
                memcpy(&y0, (const double *)J->c + ci, sizeof y0);               \
                memcpy(&y1, (const double *)J->c + ci + 8, sizeof y1);           \
              }                                                                  \
              y0 += acc[2 * r];                                                  \
              y1 += acc[2 * r + 1];                                              \
              memcpy(J->ep + ei, &y0, sizeof y0);                                \
              memcpy(J->ep + ei + 8, &y1, sizeof y1);                            \
            }                                                                    \
          } else if (w == 16) {                                                  \
            for (long r = 0; r < rn; r++, ci += J->n) {                          \
              if (J->c_f32) {                                                    \
                float *c = (float *)J->c + ci;                                   \
                v8f x0, x1;                                                      \
                memcpy(&x0, c, sizeof x0);                                       \
                memcpy(&x1, c + 8, sizeof x1);                                   \
                x0 = __builtin_convertvector(                                    \
                    __builtin_convertvector(x0, v8d) + acc[2 * r], v8f);         \
                x1 = __builtin_convertvector(                                    \
                    __builtin_convertvector(x1, v8d) + acc[2 * r + 1], v8f);     \
                memcpy(c, &x0, sizeof x0);                                       \
                memcpy(c + 8, &x1, sizeof x1);                                   \
              } else {                                                           \
                double *c = (double *)J->c + ci;                                 \
                v8d y0, y1;                                                      \
                memcpy(&y0, c, sizeof y0);                                       \
                memcpy(&y1, c + 8, sizeof y1);                                   \
                y0 += acc[2 * r];                                                \
                y1 += acc[2 * r + 1];                                            \
                memcpy(c, &y0, sizeof y0);                                       \
                memcpy(c + 8, &y1, sizeof y1);                                   \
              }                                                                  \
            }                                                                    \
          } else {                                                               \
            double t[64];                                                        \
            memcpy(t, acc, sizeof t);                                            \
            long ei = (i - J->i0) * J->ep_ld + (j - J->j0);                      \
            for (long r = 0; r < rn; r++, ci += J->n, ei += J->ep_ld)            \
              for (long jj = 0; jj < w; jj++)                                    \
                fstore(J, ci + jj, ei + jj, t[r * 16 + jj]);                     \
          }                                                                      \
        }                                                                        \
      }                                                                          \
    }                                                                            \
  }                                                                              \
  SOD2_CLONES void NAME(const struct fjob *J) { NAME##_body(J); }                \
  void NAME##_portable(const struct fjob *J) { NAME##_body(J); }

/* A f64 or mixed kinds: no contraction (-ffp-contract=off). */
FTILE(ftile_b32, float, v8f, im2col_f32)
FTILE(ftile_b64, double, v8d, im2col_f64)

/* A and B both f32: products are exact, so contraction cannot change a
   single bit and the FMA clones may use it. */
#pragma GCC push_options
#pragma GCC optimize("fp-contract=fast")
FTILE(ftile_f32, float, v8f, im2col_f32)
#pragma GCC pop_options

typedef void (*ftile_fn)(const struct fjob *);

static int ba_f32(value ba)
{
  return (Caml_ba_array_val(ba)->flags & CAML_BA_KIND_MASK) == CAML_BA_FLOAT32;
}

/* Pack rows [i0, i0+rows) of row-major A (f32 when [a32], else f64; depth
   k) into zero-padded row quads of doubles. */
static void pack_a(const void *a, int a32, long k, long i0, long rows, double *ap)
{
  long nq = (rows + 3) / 4;
  memset(ap + (rows / 4) * 4 * k, 0, (size_t)(nq - rows / 4) * 4 * k * sizeof(double));
  for (long r = 0; r < rows; r++) {
    double *dst = ap + (r / 4) * 4 * k + (r % 4);
    if (a32) {
      const float *src = (const float *)a + (i0 + r) * k;
      for (long p = 0; p < k; p++) dst[p * 4] = src[p];
    } else {
      const double *src = (const double *)a + (i0 + r) * k;
      for (long p = 0; p < k; p++) dst[p * 4] = src[p];
    }
  }
}

/* Copy columns [j, j+w) of B (elements of [esize] bytes, row stride n)
   into the zero-padded k x 16 strip [t]. */
static void pack_tail(const char *b, size_t esize, long n, long k, long j, long w, char *t)
{
  memset(t, 0, (size_t)k * 16 * esize);
  for (long p = 0; p < k; p++)
    memcpy(t + p * 16 * esize, b + (p * n + j) * esize, (size_t)w * esize);
}

/* ------------------------------------------------------------------ */
/* Float epilogue                                                      */

enum { ST_BIN, ST_UN, ST_ROUND };
enum { B_ADD, B_SUB, B_MUL, B_DIV, B_MAX, B_MIN };
enum {
  U_RELU, U_LEAKY, U_CLIP, U_SIGMOID, U_TANH, U_EXP, U_LOG, U_SQRT, U_NEG, U_ABS,
  U_ERF, U_GELU, U_HARDSWISH, U_SOFTPLUS, U_FLOOR, U_CEIL, U_RECIP, U_SOFTSIGN,
  U_SIGN, U_NOT
};
#define MAX_STEPS 64
#define STEP_INTS 7

/* One step.  A binary step's operand [x] is read at ((flat / div) mod
   len), where flat is the element's index relative to the epilogue base;
   [rev] puts the chain value on the right. */
struct fstep {
  int kind, sub, rev, x32;
  const void *x;
  long div, len;
  double p0, p1;
};

/* The epilogue loops below are built at O3 so their selects become
   vector blends; contraction stays off. */
#pragma GCC push_options
#pragma GCC optimize("O3", "fp-contract=off")

/* Float.max / Float.min of the OCaml stdlib, NaN and signed-zero cases
   included, written as selects. */
INLINE double omax(double x, double y)
{
  int c = (y > x) | (!signbit(y) & !!signbit(x));
  double a = x != x ? x : y, b = y != y ? y : x;
  return c ? a : b;
}
INLINE double omin(double x, double y)
{
  int c = (y > x) | (!signbit(y) & !!signbit(x));
  double a = y != y ? y : x, b = x != x ? x : y;
  return c ? a : b;
}

/* omax(0.0, v). */
INLINE double orelu(double v)
{
  double r = v > 0.0 ? v : 0.0;
  return v != v ? v : r;
}

/* Op_semantics.erf (Abramowitz-Stegun 7.1.26), same operation order. */
INLINE double oerf(double x)
{
  double sign = x < 0.0 ? -1.0 : 1.0;
  x = fabs(x);
  double t = 1.0 / (1.0 + 0.3275911 * x);
  double y = 1.0 - (((((1.061405429 * t) - 1.453152027) * t) + 1.421413741) * t
                    - 0.284496736) * t * t * exp(-x * x);
  return sign * y;
}

#define UN_LOOP(EXPR)                                                    \
  do {                                                                   \
    for (long t = 0; t < w; t++) {                                       \
      double v = x[t];                                                   \
      x[t] = (EXPR);                                                     \
    }                                                                    \
  } while (0)

/* One unary step over [w] values, the switch outside the loop. */
INLINE void unary(const struct fstep *s, double *x, long w)
{
  double p0 = s->p0, p1 = s->p1;
  switch (s->sub) {
  case U_RELU: UN_LOOP(orelu(v)); break;
  case U_LEAKY: UN_LOOP(v >= 0.0 ? v : p0 * v); break;
  case U_CLIP: UN_LOOP(omin(p1, omax(p0, v))); break;
  case U_SIGMOID: UN_LOOP(1.0 / (1.0 + exp(-v))); break;
  case U_TANH: UN_LOOP(tanh(v)); break;
  case U_EXP: UN_LOOP(exp(v)); break;
  case U_LOG: UN_LOOP(log(v)); break;
  case U_SQRT: UN_LOOP(sqrt(v)); break;
  case U_NEG: UN_LOOP(-v); break;
  case U_ABS: UN_LOOP(fabs(v)); break;
  case U_ERF: UN_LOOP(oerf(v)); break;
  case U_GELU: UN_LOOP(0.5 * v * (1.0 + oerf(v / sqrt(2.0)))); break;
  case U_HARDSWISH: UN_LOOP(v * omax(0.0, omin(1.0, (v / 6.0) + 0.5))); break;
  case U_SOFTPLUS: UN_LOOP(log(1.0 + exp(v))); break;
  case U_FLOOR: UN_LOOP(floor(v)); break;
  case U_CEIL: UN_LOOP(ceil(v)); break;
  case U_RECIP: UN_LOOP(1.0 / v); break;
  case U_SOFTSIGN: UN_LOOP(v / (1.0 + fabs(v))); break;
  case U_SIGN: UN_LOOP(v > 0.0 ? 1.0 : v < 0.0 ? -1.0 : 0.0); break;
  default: UN_LOOP(v == 0.0 ? 1.0 : 0.0); break; /* U_NOT */
  }
}

INLINE double xget(const struct fstep *s, long i)
{
  return s->x32 ? (double)((const float *)s->x)[i] : ((const double *)s->x)[i];
}

/* The operand values of elements [flat0, flat0 + w): NULL with [*sc] set
   when one value serves the whole run, else w doubles (in [tmp] unless
   the operand is a contiguous f64 run). */
INLINE const double *operand(const struct fstep *s, long flat0, long w, double *tmp,
                             double *sc)
{
  long q = (flat0 / s->div) % s->len, r = flat0 % s->div;
  if (s->len == 1 || r + w <= s->div) {
    *sc = xget(s, q);
    return NULL;
  }
  if (s->div == 1 && q + w <= s->len) {
    if (!s->x32) return (const double *)s->x + q;
    const float *f = (const float *)s->x + q;
    for (long t = 0; t < w; t++) tmp[t] = f[t];
    return tmp;
  }
  for (long t = 0; t < w; t++) {
    tmp[t] = xget(s, q);
    if (++r == s->div) {
      r = 0;
      if (++q == s->len) q = 0;
    }
  }
  return tmp;
}

#define BIN_LOOP(EXPR)                                                   \
  do {                                                                   \
    if (o)                                                               \
      for (long t = 0; t < w; t++) {                                     \
        double a = v[t], b = o[t];                                       \
        v[t] = (EXPR);                                                   \
      }                                                                  \
    else                                                                 \
      for (long t = 0; t < w; t++) {                                     \
        double a = v[t], b = sc;                                         \
        v[t] = (EXPR);                                                   \
      }                                                                  \
  } while (0)

/* Run the program over one row run [v] of [w] values whose first element
   has epilogue index [flat0]. */
INLINE void ep_run(const struct fstep *S, int ns, double *v, long w, long flat0,
                   double *tmp)
{
  for (int i = 0; i < ns; i++) {
    const struct fstep *s = &S[i];
    if (s->kind == ST_ROUND) {
      for (long t = 0; t < w; t++) v[t] = (double)(float)v[t];
    } else if (s->kind == ST_UN) {
      unary(s, v, w);
    } else {
      double sc = 0.0;
      const double *o = operand(s, flat0, w, tmp, &sc);
      switch (s->sub * 2 + s->rev) {
      case B_ADD * 2: BIN_LOOP(a + b); break;
      case B_ADD * 2 + 1: BIN_LOOP(b + a); break;
      case B_SUB * 2: BIN_LOOP(a - b); break;
      case B_SUB * 2 + 1: BIN_LOOP(b - a); break;
      case B_MUL * 2: BIN_LOOP(a * b); break;
      case B_MUL * 2 + 1: BIN_LOOP(b * a); break;
      case B_DIV * 2: BIN_LOOP(a / b); break;
      case B_DIV * 2 + 1: BIN_LOOP(b / a); break;
      case B_MAX * 2: BIN_LOOP(omax(a, b)); break;
      case B_MAX * 2 + 1: BIN_LOOP(omax(b, a)); break;
      case B_MIN * 2: BIN_LOOP(omin(a, b)); break;
      default: BIN_LOOP(omin(b, a)); break;
      }
    }
  }
}

/* Apply the program to the [rows] x [w] pre-store values in [ep] (row
   stride [ld]) and store them into C at [ci0] (row stride n).  [flat0]
   is the epilogue index of the first element. */
INLINE void ep_apply_body(const struct fstep *S, int ns, double *ep, long ld, long rows,
                          long w, void *c, int c_f32, long ci0, long n, long flat0,
                          double *tmp)
{
  for (long r = 0; r < rows; r++) {
    double *v = ep + r * ld;
    ep_run(S, ns, v, w, flat0 + r * n, tmp);
    long ci = ci0 + r * n;
    if (c_f32) {
      float *d = (float *)c + ci;
      for (long t = 0; t < w; t++) d[t] = (float)v[t];
    } else {
      memcpy((double *)c + ci, v, (size_t)w * sizeof(double));
    }
  }
}

typedef void (*ep_fn)(const struct fstep *, int, double *, long, long, long, void *, int,
                      long, long, long, double *);

SOD2_CLONES static void ep_apply(const struct fstep *S, int ns, double *ep, long ld,
                                 long rows, long w, void *c, int c_f32, long ci0, long n,
                                 long flat0, double *tmp)
{
  ep_apply_body(S, ns, ep, ld, rows, w, c, c_f32, ci0, n, flat0, tmp);
}
static void ep_apply_portable(const struct fstep *S, int ns, double *ep, long ld, long rows,
                              long w, void *c, int c_f32, long ci0, long n, long flat0,
                              double *tmp)
{
  ep_apply_body(S, ns, ep, ld, rows, w, c, c_f32, ci0, n, flat0, tmp);
}
#pragma GCC pop_options

/* Decode the packed program { codes; params; bufs } of Blocked (7 ints
   and 2 floats per step).  Runs with the runtime lock held: the
   operand Bigarrays' data never move, the arrays holding them may. */
static int decode_epilogue(value vep, struct fstep *S)
{
  value codes = Field(vep, 0), params = Field(vep, 1), bufs = Field(vep, 2);
  int ns = (int)(Wosize_val(codes) / STEP_INTS);
  for (int i = 0; i < ns; i++) {
    struct fstep *s = &S[i];
    long b = i * STEP_INTS;
    s->kind = (int)Long_val(Field(codes, b));
    s->sub = (int)Long_val(Field(codes, b + 1));
    s->rev = (int)Long_val(Field(codes, b + 2));
    s->x = NULL;
    s->x32 = 0;
    s->div = Long_val(Field(codes, b + 5));
    s->len = Long_val(Field(codes, b + 6));
    if (s->kind == ST_BIN) {
      value ba = Field(Field(bufs, Long_val(Field(codes, b + 3))), 0);
      long off = Long_val(Field(codes, b + 4));
      s->x32 = ba_f32(ba);
      s->x = (const char *)Caml_ba_data_val(ba) + off * (s->x32 ? sizeof(float) : sizeof(double));
    }
    s->p0 = Double_flat_field(params, 2 * i);
    s->p1 = Double_flat_field(params, 2 * i + 1);
  }
  return ns;
}

/* Pre-store values per epilogue chunk: about 128 KB whatever the tile
   height. */
#define EP_CHUNK_ELEMS 16384

/* [gemm_f a b c ep params portable]: one row tile of Blocked.gemm.  [a],
   [b], [c] are Tensor.fbuf values (FB32/FB64 of a Bigarray); [ep] is a
   packed float epilogue (no steps: plain store).  params = [| ao; bo; co;
   n; k; i0; rows; tn; ep_off |], optionally followed by a convolution
   geometry (decode_geom): then [b] is the NCHW input, [bo] the first
   element of the group's planes, and B their implicit im2col matrix.
   The caller has checked the bounds.  Everything read from OCaml values
   is read before the runtime lock is released; Bigarray data never
   moves. */
static value gemm_f(value va, value vb, value vc, value vep, value vp, int portable)
{
  CAMLparam5(va, vb, vc, vep, vp);
  value a = Field(va, 0), b = Field(vb, 0), c = Field(vc, 0);
  long ao = Long_val(Field(vp, 0)), bo = Long_val(Field(vp, 1));
  struct fjob J;
  J.co = Long_val(Field(vp, 2));
  J.n = Long_val(Field(vp, 3));
  J.k = Long_val(Field(vp, 4));
  J.i0 = Long_val(Field(vp, 5));
  J.rows = Long_val(Field(vp, 6));
  J.tn = (Long_val(Field(vp, 7)) + 15) / 16 * 16;
  if (J.tn < 16) J.tn = 16;
  long ep_off = Long_val(Field(vp, 8));
  J.j0 = 0;
  J.j1 = J.n;
  J.c = Caml_ba_data_val(c);
  J.c_f32 = ba_f32(c);
  struct fstep S[MAX_STEPS];
  int ns = decode_epilogue(vep, S);
  int a32 = ba_f32(a), b32 = ba_f32(b);
  size_t asize = a32 ? sizeof(float) : sizeof(double);
  size_t bsize = b32 ? sizeof(float) : sizeof(double);
  const char *ad = (const char *)Caml_ba_data_val(a) + ao * asize;
  J.b = (const char *)Caml_ba_data_val(b) + bo * bsize;
  long nq = (J.rows + 3) / 4;
  double *ap = scratch(SCR_A, (size_t)nq * 4 * J.k * sizeof(double));
  J.ap = ap;
  struct conv_geom G;
  J.conv = NULL;
  J.panel = NULL;
  long wtail = J.n % 16;
  if (Wosize_val(vp) > 9) {
    decode_geom(vp, 9, &G);
    G.x = J.b;
    J.conv = &G;
    J.panel = scratch(SCR_PANEL, (size_t)J.k * J.tn * bsize);
    wtail = 0; /* the panels are zero-padded to whole micro-tiles */
  }
  J.jtail = J.n - wtail;
  char *tail = wtail ? scratch(SCR_TAIL, (size_t)J.k * 16 * bsize) : NULL;
  J.btail = tail;
  /* Column chunk of the epilogue path: a multiple of 16, so only the
     last chunk meets the ragged tail strip. */
  long w = lmin(J.n, EP_CHUNK_ELEMS / J.rows / 16 * 16);
  if (w < 16) w = 16;
  J.ep = ns ? scratch(SCR_EP, (size_t)J.rows * w * sizeof(double)) : NULL;
  J.ep_ld = w;
  double *tmp = ns ? scratch(SCR_X, (size_t)w * sizeof(double)) : NULL;
  ftile_fn f;
  if (a32 && b32) f = portable ? ftile_f32_portable : ftile_f32;
  else if (b32) f = portable ? ftile_b32_portable : ftile_b32;
  else f = portable ? ftile_b64_portable : ftile_b64;
  ep_fn apply = portable ? ep_apply_portable : ep_apply;
  caml_enter_blocking_section();
  pack_a(ad, a32, J.k, J.i0, J.rows, ap);
  if (tail) pack_tail(J.b, bsize, J.n, J.k, J.jtail, wtail, tail);
  if (!ns) f(&J);
  else
    for (long j0 = 0; j0 < J.n; j0 += w) {
      J.j0 = j0;
      J.j1 = lmin(J.n, j0 + w);
      f(&J);
      long ci0 = J.co + J.i0 * J.n + j0;
      apply(S, ns, J.ep, w, J.rows, J.j1 - j0, J.c, J.c_f32, ci0, J.n, ci0 - ep_off, tmp);
    }
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

value sod2_gemm_f(value a, value b, value c, value ep, value p)
{
  return gemm_f(a, b, c, ep, p, 0);
}
value sod2_gemm_f_portable(value a, value b, value c, value ep, value p)
{
  return gemm_f(a, b, c, ep, p, 1);
}

/* ------------------------------------------------------------------ */
/* Int8 tile                                                           */

enum { DST_I8, DST_F32, DST_F64 };

struct ijob {
  const int16_t *at;  /* A rows, widened: row r at [r*k] */
  const int32_t *asum;
  const int16_t *bt;  /* B transposed, widened: column j at [j*k] */
  const int32_t *bsum;
  const struct conv_geom *conv; /* non-NULL: B is that implicit matrix */
  int16_t *panel;     /* (padding zb); its panel of the current block, */
  int32_t *psum;      /* transposed like bt, and the panel's column sums */
  long n, k, i0, rows, tn;
  int64_t za, zb;
  void *c;
  long co;
  int dst;
  long row0;          /* epilogue row of the tile's first row */
  long ep_rows;       /* 1: one epilogue for every row */
  const int64_t *rq;  /* requantize: (qm, shift, zp) per epilogue row */
  const double *scale, *bias; /* dequantize; bias may be NULL */
};

#pragma GCC push_options
#pragma GCC optimize("O3")
/* Write back one row of a column block: [raw] holds the block's w raw
   dot products.  Each accumulator gets the zero-point correction, then
   the epilogue.  The requantization is the gemmlowp fixed-point
   pipeline of Quant.requantize_one on int64, branch-free so the loop
   vectorizes:
   - [acc lsl left] keeps the low 63 bits, like OCaml's 63-bit ints;
   - saturate to int32, then SaturatingRoundingDoublingHighMul by qm
     (its int32_min * int32_min corner cannot occur: qm >= 0);
   - RoundingDivideByPOT by [right], add the zero point, clamp. */
INLINE void irow_store(const struct ijob *J, long i, long j0, long w, const int32_t *raw,
                       const int32_t *bs)
{
  long er = J->ep_rows == 1 ? 0 : J->row0 + J->i0 + i;
  long ci = J->co + (J->i0 + i) * J->n + j0;
  int64_t rowterm = J->k * J->za * J->zb - J->zb * J->asum[i];
  int64_t za = J->za;
  if (J->dst == DST_I8) {
    int64_t qm = J->rq[3 * er], shift = J->rq[3 * er + 1], zp = J->rq[3 * er + 2];
    int64_t left = shift > 0 ? shift : 0, right = shift > 0 ? 0 : -shift;
    int64_t mask = (INT64_C(1) << right) - 1;
    int8_t *c = (int8_t *)J->c + ci;
    for (long t = 0; t < w; t++) {
      int64_t acc = raw[t] + rowterm - za * bs[t];
      int64_t x = (int64_t)(((uint64_t)acc << left) << 1) >> 1;
      x = x > INT32_MAX ? INT32_MAX : x < INT32_MIN ? INT32_MIN : x;
      int64_t ab = x * qm;
      int64_t nudge = ab >= 0 ? (INT64_C(1) << 30) : 1 - (INT64_C(1) << 30);
      int64_t hi = (ab + nudge) / (INT64_C(1) << 31);
      int64_t rem = hi & mask, thr = (mask >> 1) + (hi < 0 ? 1 : 0);
      int64_t v = (hi >> right) + (rem > thr ? 1 : 0) + zp;
      c[t] = (int8_t)(v > 127 ? 127 : v < -128 ? -128 : v);
    }
  } else {
    double scale = J->scale[er], bias = J->bias ? J->bias[er] : 0.0;
    int has_bias = J->bias != NULL;
    double v[256];
    for (long t = 0; t < w; t++) v[t] = (double)(raw[t] + rowterm - za * bs[t]) * scale;
    if (has_bias)
      for (long t = 0; t < w; t++) v[t] = v[t] + bias;
    if (J->dst == DST_F32) {
      float *c = (float *)J->c + ci;
      for (long t = 0; t < w; t++) c[t] = (float)v[t];
    } else {
      double *c = (double *)J->c + ci;
      for (long t = 0; t < w; t++) c[t] = v[t];
    }
  }
}

/* 16 exact dot products of four A rows against four B columns; the
   vectorizer turns each into pmaddwd + add over 16/32 depth steps. */
INLINE void idot4x4(const int16_t *restrict a0, const int16_t *restrict a1,
                    const int16_t *restrict a2, const int16_t *restrict a3,
                    const int16_t *restrict b0, const int16_t *restrict b1,
                    const int16_t *restrict b2, const int16_t *restrict b3, long k,
                    int32_t *restrict s)
{
  int32_t s00 = 0, s01 = 0, s02 = 0, s03 = 0, s10 = 0, s11 = 0, s12 = 0, s13 = 0;
  int32_t s20 = 0, s21 = 0, s22 = 0, s23 = 0, s30 = 0, s31 = 0, s32 = 0, s33 = 0;
  for (long p = 0; p < k; p++) {
    int32_t x0 = a0[p], x1 = a1[p], x2 = a2[p], x3 = a3[p];
    int32_t y0 = b0[p], y1 = b1[p], y2 = b2[p], y3 = b3[p];
    s00 += x0 * y0; s01 += x0 * y1; s02 += x0 * y2; s03 += x0 * y3;
    s10 += x1 * y0; s11 += x1 * y1; s12 += x1 * y2; s13 += x1 * y3;
    s20 += x2 * y0; s21 += x2 * y1; s22 += x2 * y2; s23 += x2 * y3;
    s30 += x3 * y0; s31 += x3 * y1; s32 += x3 * y2; s33 += x3 * y3;
  }
  s[0] = s00; s[1] = s01; s[2] = s02; s[3] = s03;
  s[4] = s10; s[5] = s11; s[6] = s12; s[7] = s13;
  s[8] = s20; s[9] = s21; s[10] = s22; s[11] = s23;
  s[12] = s30; s[13] = s31; s[14] = s32; s[15] = s33;
}

/* Column blocks of at most ITN columns: the raw sums of one row quad
   land in a small buffer, then each valid row is written back in one
   pass.  Edge blocks reuse the last valid row / column pointer and store
   only the valid results. */
#define ITN 256
INLINE long itile_tn(long tn) { return lmin(ITN, (tn + 3) / 4 * 4); }
INLINE void itile_body(const struct ijob *J)
{
  long k = J->k, tn = itile_tn(J->tn);
  int32_t raw[4][ITN];
  for (long jb = 0; jb < J->n; jb += tn) {
    long je = lmin(jb + tn, J->n);
    const int16_t *bt; /* column jb of B */
    const int32_t *bs;
    if (!J->conv) {
      bt = J->bt + jb * k;
      bs = J->bsum + jb;
    } else {
      im2col_i8(J->conv, jb, je, J->panel, 1, k, (int16_t)J->zb);
      for (long t = 0; t < je - jb; t++) {
        int32_t s = 0;
        for (long p = 0; p < k; p++) s += J->panel[t * k + p];
        J->psum[t] = s;
      }
      bt = J->panel;
      bs = J->psum;
    }
    for (long i = 0; i < J->rows; i += 4) {
      const int16_t *a[4];
      for (int r = 0; r < 4; r++) a[r] = J->at + lmin(i + r, J->rows - 1) * k;
      for (long j = jb; j < je; j += 4) {
        const int16_t *b[4];
        for (int c = 0; c < 4; c++) b[c] = bt + (lmin(j + c, J->n - 1) - jb) * k;
        int32_t s[16];
        idot4x4(a[0], a[1], a[2], a[3], b[0], b[1], b[2], b[3], k, s);
        for (int r = 0; r < 4; r++)
          for (int c = 0; c < 4; c++) raw[r][j - jb + c] = s[r * 4 + c];
      }
      for (long r = 0; r < lmin(4, J->rows - i); r++)
        irow_store(J, i + r, jb, je - jb, raw[r], bs);
    }
  }
}

SOD2_CLONES static void itile(const struct ijob *J) { itile_body(J); }
static void itile_portable(const struct ijob *J) { itile_body(J); }
#pragma GCC pop_options

/* Widen rows [i0, i0+rows) of A and collect their sums. */
static void pack_a_i8(const int8_t *a, long k, long i0, long rows, int16_t *at, int32_t *asum)
{
  for (long r = 0; r < rows; r++) {
    const int8_t *src = a + (i0 + r) * k;
    int16_t *dst = at + r * k;
    int32_t s = 0;
    for (long p = 0; p < k; p++) {
      dst[p] = src[p];
      s += src[p];
    }
    asum[r] = s;
  }
}

/* [i8_pack_b b bo n k dst]: transpose row-major B (k x n int8 at element
   offset bo) into int16 columns at the head of the byte buffer [dst],
   followed by the n int32 column sums. */
value sod2_i8_pack_b(value vb, value vbo, value vn, value vk, value vdst)
{
  CAMLparam5(vb, vbo, vn, vk, vdst);
  const int8_t *b = (const int8_t *)Caml_ba_data_val(vb) + Long_val(vbo);
  long n = Long_val(vn), k = Long_val(vk);
  int16_t *bt = Caml_ba_data_val(vdst);
  int32_t *bsum = (int32_t *)(bt + n * k);
  caml_enter_blocking_section();
  for (long j0 = 0; j0 < n; j0 += 64)
    for (long p0 = 0; p0 < k; p0 += 64) {
      long je = lmin(j0 + 64, n), pe = lmin(p0 + 64, k);
      for (long p = p0; p < pe; p++)
        for (long j = j0; j < je; j++) bt[j * k + p] = b[p * n + j];
    }
  for (long j = 0; j < n; j++) {
    int32_t s = 0;
    for (long p = 0; p < k; p++) s += bt[j * k + p];
    bsum[j] = s;
  }
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

/* [i8_tile a packed c rq scale bias params]: rows [i0, i0+rows) of the
   int8 GEMM.  [c] is an int8 Bigarray (requantize with [rq], flattened
   (qm, shift, zp) triples) or a float Bigarray (dequantize with [scale]
   and, when non-empty, [bias]).  params = [| ao; co; n; k; i0; rows; za;
   zb; tn; row0 |], optionally followed by [bo] and a convolution geometry
   (decode_geom): then [packed] is the int8 NCHW input, [bo] the first
   element of the group's planes, and B their implicit im2col matrix with
   padding taps holding [zb]. */
static value i8_tile(value va, value vpk, value vc, value vrq, value vscale, value vbias,
                     value vp, int portable)
{
  CAMLparam5(va, vpk, vc, vrq, vscale);
  CAMLxparam2(vbias, vp);
  struct ijob J;
  long ao = Long_val(Field(vp, 0));
  J.co = Long_val(Field(vp, 1));
  J.n = Long_val(Field(vp, 2));
  J.k = Long_val(Field(vp, 3));
  J.i0 = Long_val(Field(vp, 4));
  J.rows = Long_val(Field(vp, 5));
  J.za = Long_val(Field(vp, 6));
  J.zb = Long_val(Field(vp, 7));
  J.tn = Long_val(Field(vp, 8));
  if (J.tn < 4) J.tn = 4;
  J.row0 = Long_val(Field(vp, 9));
  J.c = Caml_ba_data_val(vc);
  switch (Caml_ba_array_val(vc)->flags & CAML_BA_KIND_MASK) {
  case CAML_BA_SINT8: J.dst = DST_I8; break;
  case CAML_BA_FLOAT32: J.dst = DST_F32; break;
  default: J.dst = DST_F64; break;
  }
  /* The epilogue tables are OCaml heap values that a collection on
     another domain may move once the runtime lock is released, so they
     are copied out first. */
  long nrq = Wosize_val(vrq) / 3, nsc = Wosize_val(vscale) / Double_wosize;
  long nbias = Wosize_val(vbias) / Double_wosize;
  J.ep_rows = J.dst == DST_I8 ? nrq : nsc;
  size_t tab = J.dst == DST_I8 ? (size_t)nrq * 3 * sizeof(int64_t)
                               : (size_t)(nsc + nbias) * sizeof(double);
  size_t at_bytes = ((size_t)J.rows * J.k * sizeof(int16_t) + 63) & ~(size_t)63;
  size_t sum_bytes = ((size_t)J.rows * sizeof(int32_t) + 63) & ~(size_t)63;
  char *buf = scratch(SCR_A, at_bytes + sum_bytes + tab);
  J.at = (const int16_t *)buf;
  J.asum = (const int32_t *)(buf + at_bytes);
  char *tp = buf + at_bytes + sum_bytes;
  J.rq = NULL;
  J.scale = J.bias = NULL;
  if (J.dst == DST_I8) {
    int64_t *rq = (int64_t *)tp;
    for (long i = 0; i < nrq * 3; i++) rq[i] = Long_val(Field(vrq, i));
    J.rq = rq;
  } else {
    double *d = (double *)tp;
    for (long i = 0; i < nsc; i++) d[i] = Double_flat_field(vscale, i);
    for (long i = 0; i < nbias; i++) d[nsc + i] = Double_flat_field(vbias, i);
    J.scale = d;
    J.bias = nbias ? d + nsc : NULL;
  }
  struct conv_geom G;
  J.conv = NULL;
  J.bt = NULL;
  J.bsum = NULL;
  if (Wosize_val(vp) > 10) {
    decode_geom(vp, 11, &G);
    G.x = (const int8_t *)Caml_ba_data_val(vpk) + Long_val(Field(vp, 10));
    J.conv = &G;
    long tn = itile_tn(J.tn);
    size_t pb = ((size_t)tn * J.k * sizeof(int16_t) + 63) & ~(size_t)63;
    char *pn = scratch(SCR_PANEL, pb + (size_t)tn * sizeof(int32_t));
    J.panel = (int16_t *)pn;
    J.psum = (int32_t *)(pn + pb);
  } else {
    J.bt = Caml_ba_data_val(vpk);
    J.bsum = (const int32_t *)(J.bt + J.n * J.k);
  }
  const int8_t *a = (const int8_t *)Caml_ba_data_val(va) + ao;
  caml_enter_blocking_section();
  pack_a_i8(a, J.k, J.i0, J.rows, (int16_t *)J.at, (int32_t *)J.asum);
  if (portable) itile_portable(&J);
  else itile(&J);
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

value sod2_i8_tile(value a, value pk, value c, value rq, value sc, value bias, value p)
{
  return i8_tile(a, pk, c, rq, sc, bias, p, 0);
}
value sod2_i8_tile_byte(value *argv, int argn)
{
  (void)argn;
  return i8_tile(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], 0);
}
value sod2_i8_tile_portable(value a, value pk, value c, value rq, value sc, value bias, value p)
{
  return i8_tile(a, pk, c, rq, sc, bias, p, 1);
}
value sod2_i8_tile_portable_byte(value *argv, int argn)
{
  (void)argn;
  return i8_tile(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], 1);
}

/* ------------------------------------------------------------------ */
/* Pools                                                               */

struct pjob {
  const void *x;  /* input at its first element */
  void *c;        /* output at its first element */
  int avg;
  long planes, h, w, oh, ow, kh, kw, sh, sw, pt, pl;
};

/* [POOL(NAME, ST, DT)] pools ST planes into DT planes.  Max starts at
   -inf and takes a tap only when [v > acc], so the first of equal values
   wins and NaN taps are skipped; Avg sums the in-bounds taps in ascending
   (ky, kx) order and divides by their count.  A window without an
   in-bounds tap gives 0.  Everything runs in double; the store rounds. */
#define POOL(NAME, ST, DT)                                                       \
  INLINE void NAME(const struct pjob *P)                                         \
  {                                                                              \
    for (long q = 0; q < P->planes; q++) {                                       \
      const ST *x = (const ST *)P->x + q * P->h * P->w;                          \
      DT *c = (DT *)P->c + q * P->oh * P->ow;                                    \
      for (long oy = 0; oy < P->oh; oy++) {                                      \
        long y0 = oy * P->sh - P->pt;                                            \
        long ky0 = y0 < 0 ? -y0 : 0, ky1 = lmin(P->kh, P->h - y0);               \
        for (long ox = 0; ox < P->ow; ox++) {                                    \
          long x0 = ox * P->sw - P->pl;                                          \
          long kx0 = x0 < 0 ? -x0 : 0, kx1 = lmin(P->kw, P->w - x0);             \
          double v = 0.0;                                                        \
          if (ky1 > ky0 && kx1 > kx0) {                                          \
            double acc = P->avg ? 0.0 : -INFINITY;                               \
            for (long ky = ky0; ky < ky1; ky++) {                                \
              const ST *row = x + (y0 + ky) * P->w;                              \
              if (P->avg)                                                        \
                for (long kx = kx0; kx < kx1; kx++) acc = acc + row[x0 + kx];    \
              else                                                               \
                for (long kx = kx0; kx < kx1; kx++) {                            \
                  double t = row[x0 + kx];                                       \
                  if (t > acc) acc = t;                                          \
                }                                                                \
            }                                                                    \
            v = P->avg ? acc / (double)((ky1 - ky0) * (kx1 - kx0)) : acc;        \
          }                                                                      \
          c[oy * P->ow + ox] = (DT)v;                                            \
        }                                                                        \
      }                                                                          \
    }                                                                            \
  }

POOL(pool_ff, float, float)
POOL(pool_fd, float, double)
POOL(pool_df, double, float)
POOL(pool_dd, double, double)

INLINE void pool_body(const struct pjob *P, int x32, int c32)
{
  if (x32) {
    if (c32) pool_ff(P); else pool_fd(P);
  } else {
    if (c32) pool_df(P); else pool_dd(P);
  }
}

SOD2_CLONES static void pool_run(const struct pjob *P, int x32, int c32)
{
  pool_body(P, x32, c32);
}
static void pool_run_portable(const struct pjob *P, int x32, int c32)
{
  pool_body(P, x32, c32);
}

/* [pool2d x c params]: [x] and [c] are Tensor.fbuf values; params = [|
   avg; xo; co; planes; h; w; oh; ow; kh; kw; sh; sw; pt; pl |].  The
   caller has checked the windows. */
static value pool2d(value vx, value vc, value vp, int portable)
{
  CAMLparam3(vx, vc, vp);
  value x = Field(vx, 0), c = Field(vc, 0);
  struct pjob P;
  int x32 = ba_f32(x), c32 = ba_f32(c);
  long xo = Long_val(Field(vp, 1)), co = Long_val(Field(vp, 2));
  P.avg = Long_val(Field(vp, 0)) != 0;
  P.planes = Long_val(Field(vp, 3));
  P.h = Long_val(Field(vp, 4));
  P.w = Long_val(Field(vp, 5));
  P.oh = Long_val(Field(vp, 6));
  P.ow = Long_val(Field(vp, 7));
  P.kh = Long_val(Field(vp, 8));
  P.kw = Long_val(Field(vp, 9));
  P.sh = Long_val(Field(vp, 10));
  P.sw = Long_val(Field(vp, 11));
  P.pt = Long_val(Field(vp, 12));
  P.pl = Long_val(Field(vp, 13));
  P.x = (const char *)Caml_ba_data_val(x) + xo * (x32 ? sizeof(float) : sizeof(double));
  P.c = (char *)Caml_ba_data_val(c) + co * (c32 ? sizeof(float) : sizeof(double));
  caml_enter_blocking_section();
  if (portable) pool_run_portable(&P, x32, c32);
  else pool_run(&P, x32, c32);
  caml_leave_blocking_section();
  CAMLreturn(Val_unit);
}

value sod2_pool2d(value x, value c, value p) { return pool2d(x, c, p, 0); }
value sod2_pool2d_portable(value x, value c, value p) { return pool2d(x, c, p, 1); }

/* ------------------------------------------------------------------ */
/* Which clone the loader picked                                       */

/* The target_clones resolver ranks the clones by the same CPU checks,
   so this names the body every dispatched call above runs. */
value sod2_gemm_isa(value unit)
{
  (void)unit;
#if SOD2_HAVE_CLONES
  __builtin_cpu_init();
  if (__builtin_cpu_supports("x86-64-v4")) return caml_copy_string("x86-64-v4");
  if (__builtin_cpu_supports("x86-64-v3")) return caml_copy_string("x86-64-v3");
#endif
  return caml_copy_string("portable");
}
