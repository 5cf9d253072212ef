/* Vectorized kernels for the batched float32 tensor engine.
 *
 * Storage is float32 (the Tensor bigarrays); every kernel accumulates in
 * float64 and rounds once on store, matching the OCaml engine's contract
 * with the float64 oracle engine.  Compiled with -O3 -march=native
 * (plus -fassociative-math for the dot-product reductions), so gcc
 * vectorizes the inner loops; the instruction sequence is fixed per
 * binary, which is what the determinism / --jobs-invariance contract
 * needs — kernels never depend on the domain count.
 *
 * No kernel allocates on the OCaml heap or calls back into the runtime,
 * so the externals are [@@noalloc] and naked float-array pointers stay
 * valid for the duration of each call.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>
#include <stdlib.h>
#include <string.h>

/* An OCaml float array is a flat array of doubles. */
#define Double_array_ptr(v) ((double *)(v))

/* ------------------------------------------------------------------ */
/* GEMM: C(m,n) = alpha * op(A)op(B) + beta * C.
 * variant 0 (nn): A(m,k)   B(k,n) — saxpy over B rows, unit stride.
 * variant 1 (nt): A(m,k)   B(n,k)^T — dot products, unit stride in k.
 * variant 2 (tn): A(k,m)^T B(k,n) — saxpy over B rows.
 */

static void gemm_nn_tn(const float *a, const float *b, float *c, long m, long k, long n,
                       int trans_a, double alpha, double beta, double *acc)
{
  for (long i = 0; i < m; i++) {
    memset(acc, 0, (size_t)n * sizeof(double));
    for (long l = 0; l < k; l++) {
      double av = trans_a ? (double)a[l * m + i] : (double)a[i * k + l];
      if (av != 0.0) {
        const float *br = b + l * n;
        for (long j = 0; j < n; j++)
          acc[j] += av * (double)br[j];
      }
    }
    float *cr = c + i * n;
    if (beta == 0.0)
      for (long j = 0; j < n; j++)
        cr[j] = (float)(alpha * acc[j]);
    else
      for (long j = 0; j < n; j++)
        cr[j] = (float)(alpha * acc[j] + beta * (double)cr[j]);
  }
}

static void gemm_nt(const float *a, const float *b, float *c, long m, long k, long n,
                    double alpha, double beta)
{
  for (long i = 0; i < m; i++) {
    const float *ar = a + i * k;
    float *cr = c + i * n;
    for (long j = 0; j < n; j++) {
      const float *br = b + j * k;
      double s = 0.0;
      for (long l = 0; l < k; l++)
        s += (double)ar[l] * (double)br[l];
      cr[j] = (float)(beta == 0.0 ? alpha * s : alpha * s + beta * (double)cr[j]);
    }
  }
}

CAMLprim value stob_nn_gemm(value va, value vb, value vc, value vm, value vk, value vn,
                            value vvariant, value valpha, value vbeta)
{
  const float *a = Caml_ba_data_val(va);
  const float *b = Caml_ba_data_val(vb);
  float *c = Caml_ba_data_val(vc);
  long m = Long_val(vm), k = Long_val(vk), n = Long_val(vn);
  int variant = Int_val(vvariant);
  double alpha = Double_val(valpha), beta = Double_val(vbeta);
  if (m == 0 || n == 0) return Val_unit;
  if (variant == 1)
    gemm_nt(a, b, c, m, k, n, alpha, beta);
  else {
    double *acc = malloc((size_t)n * sizeof(double));
    gemm_nn_tn(a, b, c, m, k, n, variant == 2, alpha, beta, acc);
    free(acc);
  }
  return Val_unit;
}

CAMLprim value stob_nn_gemm_byte(value *argv, int argn)
{
  (void)argn;
  return stob_nn_gemm(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6], argv[7],
                      argv[8]);
}

/* ------------------------------------------------------------------ */
/* Dense backward parameter gradients, accumulated into the shard's
 * float64 arrays: gw(out,in) += dout(rows,out)^T · x(rows,in),
 * gb(out) += column sums of dout.  The gv == 0 skip exploits the
 * sparsity a preceding ReLU's backward leaves in dout. */

CAMLprim value stob_nn_dense_grad(value vdout, value vx, value vgw, value vgb, value vrows,
                                  value vout, value vin)
{
  const float *dout = Caml_ba_data_val(vdout);
  const float *x = Caml_ba_data_val(vx);
  double *gw = Double_array_ptr(vgw);
  double *gb = Double_array_ptr(vgb);
  long rows = Long_val(vrows), out = Long_val(vout), in = Long_val(vin);
  for (long r = 0; r < rows; r++) {
    const float *dr = dout + r * out;
    const float *xr = x + r * in;
    for (long o = 0; o < out; o++) {
      double gv = (double)dr[o];
      if (gv != 0.0) {
        gb[o] += gv;
        double *gwr = gw + o * in;
        for (long j = 0; j < in; j++)
          gwr[j] += gv * (double)xr[j];
      }
    }
  }
  return Val_unit;
}

/* ------------------------------------------------------------------ */
/* Conv backward parameter gradients for one sample:
 * gw(oc,ick) += gi(oc,len) · col(ick,len)^T, gb(oc) += row sums of gi. */

CAMLprim value stob_nn_conv_grad(value vgi, value vcol, value vgw, value vgb, value voc,
                                 value vick, value vlen)
{
  const float *gi = Caml_ba_data_val(vgi);
  const float *col = Caml_ba_data_val(vcol);
  double *gw = Double_array_ptr(vgw);
  double *gb = Double_array_ptr(vgb);
  long oc = Long_val(voc), ick = Long_val(vick), len = Long_val(vlen);
  for (long o = 0; o < oc; o++) {
    const float *gr = gi + o * len;
    double bs = 0.0;
    for (long p = 0; p < len; p++)
      bs += (double)gr[p];
    gb[o] += bs;
    double *gwr = gw + o * ick;
    for (long j = 0; j < ick; j++) {
      const float *cr = col + j * len;
      double s = 0.0;
      for (long p = 0; p < len; p++)
        s += (double)gr[p] * (double)cr[p];
      gwr[j] += s;
    }
  }
  return Val_unit;
}

/* ------------------------------------------------------------------ */
/* im2col for one sample: receptive-field row (ic, k) of col is the
 * contiguous slice x[xoff + ic*length + k ..], so lowering is memcpy. */

CAMLprim value stob_nn_im2col(value vx, value vxoff, value vcol, value vic, value vkernel,
                              value vlength, value vlen)
{
  const float *x = (const float *)Caml_ba_data_val(vx) + Long_val(vxoff);
  float *col = Caml_ba_data_val(vcol);
  long ic = Long_val(vic), kernel = Long_val(vkernel), length = Long_val(vlength),
       len = Long_val(vlen);
  for (long c = 0; c < ic; c++)
    for (long k = 0; k < kernel; k++)
      memcpy(col + (c * kernel + k) * len, x + c * length + k, (size_t)len * sizeof(float));
  return Val_unit;
}

/* ------------------------------------------------------------------ */
/* Elementwise / broadcast helpers: these loops are trivially
 * vectorizable but dominate the OCaml engine's residual time once the
 * GEMMs are fast (a scalar bigarray access costs ~2ns from OCaml). */

CAMLprim value stob_nn_relu_fwd(value vx, value vout, value vn)
{
  const float *x = Caml_ba_data_val(vx);
  float *out = Caml_ba_data_val(vout);
  long n = Long_val(vn);
  for (long i = 0; i < n; i++)
    out[i] = x[i] > 0.0f ? x[i] : 0.0f;
  return Val_unit;
}

CAMLprim value stob_nn_relu_bwd(value vx, value vdout, value vdin, value vn)
{
  const float *x = Caml_ba_data_val(vx);
  const float *dout = Caml_ba_data_val(vdout);
  float *din = Caml_ba_data_val(vdin);
  long n = Long_val(vn);
  for (long i = 0; i < n; i++)
    din[i] = x[i] > 0.0f ? dout[i] : 0.0f;
  return Val_unit;
}

/* dst row i <- src (dense bias broadcast). */
CAMLprim value stob_nn_broadcast_row(value vdst, value vsrc, value vrows, value vcols)
{
  float *dst = Caml_ba_data_val(vdst);
  const float *src = Caml_ba_data_val(vsrc);
  long rows = Long_val(vrows), cols = Long_val(vcols);
  for (long i = 0; i < rows; i++)
    memcpy(dst + i * cols, src, (size_t)cols * sizeof(float));
  return Val_unit;
}

/* dst channel row c <- bias[c] (conv bias broadcast, one sample). */
CAMLprim value stob_nn_fill_channels(value vdst, value vdoff, value vbias, value vch, value vlen)
{
  float *dst = (float *)Caml_ba_data_val(vdst) + Long_val(vdoff);
  const float *bias = Caml_ba_data_val(vbias);
  long ch = Long_val(vch), len = Long_val(vlen);
  for (long c = 0; c < ch; c++) {
    float bv = bias[c];
    float *row = dst + c * len;
    for (long p = 0; p < len; p++)
      row[p] = bv;
  }
  return Val_unit;
}

/* Non-overlapping max pool over channel-major rows; argmax (input index
 * within the row, for the backward scatter) lands in an OCaml int array
 * as tagged immediates. */
CAMLprim value stob_nn_maxpool_fwd(value vx, value vout, value vargmax, value vdims)
{
  const float *x = Caml_ba_data_val(vx);
  float *out = Caml_ba_data_val(vout);
  value *argmax = (value *)vargmax;
  long rows = Long_val(Field(vdims, 0));
  long channels = Long_val(Field(vdims, 1));
  long length = Long_val(Field(vdims, 2));
  long factor = Long_val(Field(vdims, 3));
  long out_len = length / factor;
  long isz = channels * length, osz = channels * out_len;
  for (long i = 0; i < rows; i++) {
    const float *xr = x + i * isz;
    float *orow = out + i * osz;
    value *ar = argmax + i * osz;
    for (long c = 0; c < channels; c++) {
      long ibase = c * length, obase = c * out_len;
      for (long p = 0; p < out_len; p++) {
        long best = ibase + p * factor;
        for (long k = 1; k < factor; k++)
          if (xr[ibase + p * factor + k] > xr[best])
            best = ibase + p * factor + k;
        ar[obase + p] = Val_long(best);
        orow[obase + p] = xr[best];
      }
    }
  }
  return Val_unit;
}

CAMLprim value stob_nn_maxpool_bwd(value vdout, value vdin, value vargmax, value vdims)
{
  const float *dout = Caml_ba_data_val(vdout);
  float *din = Caml_ba_data_val(vdin);
  const value *argmax = (const value *)vargmax;
  long rows = Long_val(Field(vdims, 0));
  long channels = Long_val(Field(vdims, 1));
  long length = Long_val(Field(vdims, 2));
  long factor = Long_val(Field(vdims, 3));
  long out_len = length / factor;
  long isz = channels * length, osz = channels * out_len;
  for (long i = 0; i < rows; i++) {
    float *dr = din + i * isz;
    const float *gr = dout + i * osz;
    const value *ar = argmax + i * osz;
    memset(dr, 0, (size_t)isz * sizeof(float));
    for (long j = 0; j < osz; j++)
      dr[Long_val(ar[j])] += gr[j];
  }
  return Val_unit;
}

/* Bytecode wrappers (externals with more than 5 arguments). */

CAMLprim value stob_nn_dense_grad_byte(value *argv, int argn)
{
  (void)argn;
  return stob_nn_dense_grad(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}

CAMLprim value stob_nn_conv_grad_byte(value *argv, int argn)
{
  (void)argn;
  return stob_nn_conv_grad(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}

CAMLprim value stob_nn_im2col_byte(value *argv, int argn)
{
  (void)argn;
  return stob_nn_im2col(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}

/* col2im for one sample: zero the input-gradient row, then scatter-add
 * the contiguous dcol rows back onto the (overlapping) input positions. */

CAMLprim value stob_nn_col2im(value vdcol, value vdin, value vdoff, value vic, value vkernel,
                              value vlength, value vlen)
{
  const float *dcol = Caml_ba_data_val(vdcol);
  float *din = (float *)Caml_ba_data_val(vdin) + Long_val(vdoff);
  long ic = Long_val(vic), kernel = Long_val(vkernel), length = Long_val(vlength),
       len = Long_val(vlen);
  memset(din, 0, (size_t)(ic * length) * sizeof(float));
  for (long c = 0; c < ic; c++)
    for (long k = 0; k < kernel; k++) {
      const float *dr = dcol + (c * kernel + k) * len;
      float *dd = din + c * length + k;
      for (long p = 0; p < len; p++)
        dd[p] += dr[p];
    }
  return Val_unit;
}

CAMLprim value stob_nn_col2im_byte(value *argv, int argn)
{
  (void)argn;
  return stob_nn_col2im(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5], argv[6]);
}
