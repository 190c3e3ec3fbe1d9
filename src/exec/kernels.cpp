#include "exec/kernels.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/check.h"

namespace lp::exec {

namespace {

// Lane vectors (GCC/Clang vector extensions). Vector arithmetic is
// element-wise, so every lane is one output element's own double chain,
// updated with the reference's mul-then-add: SIMD widens how many chains
// run at once and never changes what any one of them computes. The lane
// code below is one source compiled twice — with 2-lane vectors for the
// baseline target (SSE2) and with 4-lane vectors under target("avx2") —
// and neither build enables FMA.
using D2 = double __attribute__((vector_size(16)));
using D4 = double __attribute__((vector_size(32)));

template <class V>
constexpr int kLanes = static_cast<int>(sizeof(V) / sizeof(double));

#define LP_LANE_INLINE inline __attribute__((always_inline))

// Floats widened to doubles (exact), spelled per element: GCC lowers
// __builtin_convertvector to split conversions.
LP_LANE_INLINE void widen(const float* p, D2& d) {
  d = D2{static_cast<double>(p[0]), static_cast<double>(p[1])};
}
LP_LANE_INLINE void widen(const float* p, D4& d) {
  d = D4{static_cast<double>(p[0]), static_cast<double>(p[1]),
         static_cast<double>(p[2]), static_cast<double>(p[3])};
}
LP_LANE_INLINE void splat(double v, D2& d) { d = D2{v, v}; }
LP_LANE_INLINE void splat(double v, D4& d) { d = D4{v, v, v, v}; }

#if defined(__x86_64__) || defined(__i386__)
#define LP_HAVE_AVX2_BUILD 1
#endif

constexpr int kMR = 4;  // output channels per conv tile
constexpr int kNR = 8;  // pixels per conv tile, interleaved in the panel
constexpr std::int64_t kPixelBlock = 64;  // pixels per packed panel
constexpr std::int64_t kColBlock = 32;    // FC columns per work item

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

/// Rows [i0, i0 + kLanes<V>) of one kMR x kNR conv tile:
/// acc[i * kNR + j] = sum over k of wp[k * kMR + i] * pp[k * kNR + j] in
/// ascending k, each sum in its own lane (8 vector accumulators). `wp`
/// holds the tile's weights k-major as doubles, `pp` its im2col panel
/// k-major with the tile's pixels interleaved.
template <class V>
LP_LANE_INLINE void conv_tile_rows(const double* wp, const float* pp,
                                   std::int64_t k_extent, int i0,
                                   double* acc) {
  constexpr int kL = kLanes<V>, kRows = kL, kVecs = kNR / kL;
  V a[kRows][kVecs] = {};
  for (std::int64_t k = 0; k < k_extent; ++k) {
    V px[kVecs];
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v) widen(pp + k * kNR + v * kL, px[v]);
#pragma GCC unroll 4
    for (int i = 0; i < kRows; ++i) {
      V wb;
      splat(wp[k * kMR + i0 + i], wb);
#pragma GCC unroll 4
      for (int v = 0; v < kVecs; ++v) a[i][v] += wb * px[v];
    }
  }
#pragma GCC unroll 4
  for (int i = 0; i < kRows; ++i)
#pragma GCC unroll 4
    for (int v = 0; v < kVecs; ++v)
#pragma GCC unroll 4
      for (int l = 0; l < kL; ++l)
        acc[(i0 + i) * kNR + v * kL + l] = a[i][v][l];
}

/// Packs the im2col patches of output pixels [px0, px1) of one image into
/// `panel`: per tile of kNR pixels, k-major with the tile's pixels
/// interleaved, k ordered (ic, kh, kw) to match the reference accumulation
/// order. Out-of-bounds taps, and the lanes of pixels past px1, are 0.0f.
void pack_panel(const float* x, std::int64_t ic_extent, std::int64_t ih,
                std::int64_t iw, const graph::ConvAttrs& a, std::int64_t ow,
                std::int64_t px0, std::int64_t px1, float* panel) {
  const std::int64_t k_extent = ic_extent * a.kernel_h * a.kernel_w;
  const std::int64_t tiles = ceil_div(px1 - px0, kNR);
  for (std::int64_t t = 0; t < tiles; ++t)
    for (std::int64_t j = 0; j < kNR; ++j) {
      float* dst = panel + t * k_extent * kNR + j;
      const std::int64_t px = px0 + t * kNR + j;
      if (px >= px1) {
        for (std::int64_t k = 0; k < k_extent; ++k) dst[k * kNR] = 0.0f;
        continue;
      }
      const std::int64_t h0 = (px / ow) * a.stride_h - a.pad_h;
      const std::int64_t w0 = (px % ow) * a.stride_w - a.pad_w;
      for (std::int64_t ic = 0; ic < ic_extent; ++ic) {
        const float* plane = x + ic * ih * iw;
        for (std::int64_t kh = 0; kh < a.kernel_h; ++kh) {
          const std::int64_t y = h0 + kh;
          const bool row_in = y >= 0 && y < ih;
          for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
            const std::int64_t xw = w0 + kw;
            *dst = row_in && xw >= 0 && xw < iw ? plane[y * iw + xw] : 0.0f;
            dst += kNR;
          }
        }
      }
    }
}

/// One conv2d_im2col call. Work items are (image, pixel block,
/// output-channel slice), numbered slice-fastest.
struct ConvJob {
  const float* x;
  const float* w;
  float* y;
  const graph::ConvAttrs* a;
  const Epilogue* ep;
  std::int64_t ic_extent, ih, iw, oc_extent, ow, pixels, k_extent;
  std::int64_t px_blocks, oc_blocks, oc_slices, blocks_per_slice;
};

/// Runs work items [lo, hi) of `job`. `panel` (kPixelBlock * k_extent
/// floats) and `wpack` (kMR * k_extent doubles) are the caller's scratch.
template <class V>
LP_LANE_INLINE void conv_items(const ConvJob& job, std::int64_t lo,
                               std::int64_t hi, float* panel,
                               double* wpack) {
  const std::int64_t k_extent = job.k_extent;
  std::int64_t packed = -1;
  for (std::int64_t item = lo; item < hi; ++item) {
    const std::int64_t pi = item / job.oc_slices;
    const std::int64_t n = pi / job.px_blocks;
    const std::int64_t px0 = (pi % job.px_blocks) * kPixelBlock;
    const std::int64_t px1 = std::min(px0 + kPixelBlock, job.pixels);
    if (pi != packed) {
      pack_panel(job.x + n * job.ic_extent * job.ih * job.iw, job.ic_extent,
                 job.ih, job.iw, *job.a, job.ow, px0, px1, panel);
      packed = pi;
    }
    float* yn = job.y + n * job.oc_extent * job.pixels;
    const std::int64_t ob_lo = (item % job.oc_slices) * job.blocks_per_slice;
    const std::int64_t ob_hi =
        std::min(ob_lo + job.blocks_per_slice, job.oc_blocks);
    for (std::int64_t ob = ob_lo; ob < ob_hi; ++ob) {
      const std::int64_t oc0 = ob * kMR;
      const int mr =
          static_cast<int>(std::min<std::int64_t>(kMR, job.oc_extent - oc0));
      // Weights k-major as doubles; rows past oc_extent are zero lanes
      // whose results are never stored.
      for (int i = 0; i < kMR; ++i) {
        const float* row = i < mr ? job.w + (oc0 + i) * k_extent : nullptr;
        for (std::int64_t k = 0; k < k_extent; ++k)
          wpack[k * kMR + i] = row ? static_cast<double>(row[k]) : 0.0;
      }
      for (std::int64_t p0 = px0; p0 < px1; p0 += kNR) {
        const float* pp = panel + (p0 - px0) * k_extent;
        double acc[kMR * kNR];
        for (int i0 = 0; i0 < kMR; i0 += kLanes<V>)
          conv_tile_rows<V>(wpack, pp, k_extent, i0, acc);
        const int nr = static_cast<int>(std::min<std::int64_t>(kNR, px1 - p0));
        for (int i = 0; i < mr; ++i)
          for (int j = 0; j < nr; ++j)
            yn[(oc0 + i) * job.pixels + p0 + j] = job.ep->apply(
                static_cast<float>(acc[i * kNR + j]), oc0 + i);
      }
    }
  }
}

/// One matmul_fast call. Work items are (row, block of kColBlock columns).
struct MatmulJob {
  const float* x;
  const float* w;
  float* y;
  const Epilogue* ep;
  std::int64_t inner, cols, blocks;
};

/// Runs work items [lo, hi) of `job`. Each output column's double chain
/// runs in its own lane, ascending k; a full block is read from each W row
/// as 128 contiguous bytes (one pass of 8 vectors under AVX2, two under
/// the baseline), and a narrower tail block runs the same chains scalar.
template <class V>
LP_LANE_INLINE void matmul_items(const MatmulJob& job, std::int64_t lo,
                                 std::int64_t hi) {
  constexpr int kL = kLanes<V>, kVecs = 8, kWidth = kVecs * kL;
  const std::int64_t inner = job.inner, cols = job.cols;
  for (std::int64_t t = lo; t < hi; ++t) {
    const std::int64_t r = t / job.blocks;
    const std::int64_t c0 = (t % job.blocks) * kColBlock;
    const std::int64_t nc = std::min(kColBlock, cols - c0);
    const float* xr = job.x + r * inner;
    double acc[kColBlock] = {};
    if (nc == kColBlock) {
      for (int s = 0; s < kColBlock; s += kWidth) {
        V a[kVecs] = {};
        for (std::int64_t k = 0; k < inner; ++k) {
          V xb;
          splat(static_cast<double>(xr[k]), xb);
          const float* row = job.w + k * cols + c0 + s;
#pragma GCC unroll 8
          for (int v = 0; v < kVecs; ++v) {
            V wv;
            widen(row + v * kL, wv);
            a[v] += xb * wv;
          }
        }
#pragma GCC unroll 8
        for (int v = 0; v < kVecs; ++v)
#pragma GCC unroll 4
          for (int l = 0; l < kL; ++l) acc[s + v * kL + l] = a[v][l];
      }
    } else {
      for (std::int64_t k = 0; k < inner; ++k) {
        const double xv = static_cast<double>(xr[k]);
        const float* row = job.w + k * cols + c0;
        for (std::int64_t j = 0; j < nc; ++j)
          acc[j] += xv * static_cast<double>(row[j]);
      }
    }
    for (std::int64_t j = 0; j < nc; ++j)
      job.y[r * cols + c0 + j] =
          job.ep->apply(static_cast<float>(acc[j]), c0 + j);
  }
}

// The two builds of the lane code.
void conv_items_baseline(const ConvJob& job, std::int64_t lo, std::int64_t hi,
                         float* panel, double* wpack) {
  conv_items<D2>(job, lo, hi, panel, wpack);
}
void matmul_items_baseline(const MatmulJob& job, std::int64_t lo,
                           std::int64_t hi) {
  matmul_items<D2>(job, lo, hi);
}
#ifdef LP_HAVE_AVX2_BUILD
__attribute__((target("avx2"))) void conv_items_avx2(const ConvJob& job,
                                                     std::int64_t lo,
                                                     std::int64_t hi,
                                                     float* panel,
                                                     double* wpack) {
  conv_items<D4>(job, lo, hi, panel, wpack);
}
__attribute__((target("avx2"))) void matmul_items_avx2(const MatmulJob& job,
                                                       std::int64_t lo,
                                                       std::int64_t hi) {
  matmul_items<D4>(job, lo, hi);
}
#else
// Off x86 there is no AVX2 build; simd_supported() rejects kAvx2.
constexpr auto conv_items_avx2 = conv_items_baseline;
constexpr auto matmul_items_avx2 = matmul_items_baseline;
#endif

Tensor conv2d_im2col(const Tensor& x, const Tensor& w,
                     const graph::ConvAttrs& a, const Shape& out_shape,
                     const Epilogue& ep, ThreadPool& pool, Simd simd) {
  Tensor out(out_shape);
  ConvJob job{x.data(), w.data(), out.data(), &a, &ep,
              x.shape().c(), x.shape().h(), x.shape().w(), out_shape.c(),
              out_shape.w(), out_shape.h() * out_shape.w(),
              x.shape().c() * a.kernel_h * a.kernel_w, 0, 0, 0, 0};
  job.px_blocks = ceil_div(job.pixels, kPixelBlock);
  job.oc_blocks = ceil_div(job.oc_extent, kMR);
  // Small maps (7x7 and 14x14: one or four pixel blocks) are split over
  // output channels too, so every thread gets work; each slice packs its
  // own copy of the panel.
  const std::int64_t panels = out_shape.n() * job.px_blocks;
  const std::int64_t threads = pool.num_threads();
  job.oc_slices = threads == 1 ? 1
                               : std::clamp<std::int64_t>(
                                     ceil_div(4 * threads, panels), 1,
                                     job.oc_blocks);
  job.blocks_per_slice = ceil_div(job.oc_blocks, job.oc_slices);
  const auto items =
      simd == Simd::kAvx2 ? conv_items_avx2 : conv_items_baseline;

  pool.parallel_for(0, panels * job.oc_slices, 1,
                    [&](std::int64_t lo, std::int64_t hi) {
                      thread_local std::vector<float> panel;
                      thread_local std::vector<double> wpack;
                      panel.resize(static_cast<std::size_t>(
                          kPixelBlock * job.k_extent));
                      wpack.resize(
                          static_cast<std::size_t>(kMR * job.k_extent));
                      items(job, lo, hi, panel.data(), wpack.data());
                    });
  return out;
}

Tensor conv2d_depthwise(const Tensor& x, const Tensor& w,
                        const graph::ConvAttrs& a, const Shape& out_shape,
                        const Epilogue& ep, ThreadPool& pool) {
  Tensor out(out_shape);
  const std::int64_t batch = out_shape.n(), channels = out_shape.c();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  const std::int64_t ih = x.shape().h(), iw = x.shape().w();

  pool.parallel_for(
      0, batch * channels, 1, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t row = lo; row < hi; ++row) {
          const std::int64_t c = row % channels;
          const float* xc = x.data() + row * ih * iw;
          const float* wc = w.data() + c * a.kernel_h * a.kernel_w;
          float* yc = out.data() + row * oh * ow;
          for (std::int64_t y = 0; y < oh; ++y)
            for (std::int64_t z = 0; z < ow; ++z) {
              double acc = 0.0;
              for (std::int64_t kh = 0; kh < a.kernel_h; ++kh) {
                const std::int64_t sy = y * a.stride_h - a.pad_h + kh;
                if (sy < 0 || sy >= ih) continue;
                for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
                  const std::int64_t sx = z * a.stride_w - a.pad_w + kw;
                  if (sx < 0 || sx >= iw) continue;
                  acc += static_cast<double>(xc[sy * iw + sx]) *
                         static_cast<double>(wc[kh * a.kernel_w + kw]);
                }
              }
              yc[y * ow + z] = ep.apply(static_cast<float>(acc), c);
            }
        }
      });
  return out;
}

}  // namespace

Simd host_simd() {
#ifdef LP_HAVE_AVX2_BUILD
  static const Simd simd =
      __builtin_cpu_supports("avx2") ? Simd::kAvx2 : Simd::kBaseline;
  return simd;
#else
  return Simd::kBaseline;
#endif
}

bool simd_supported(Simd simd) {
  return simd == Simd::kBaseline || host_simd() == Simd::kAvx2;
}

Tensor conv2d_fast(const Tensor& x, const Tensor& w, const graph::ConvAttrs& a,
                   const Shape& out_shape, bool depthwise, const Epilogue& ep,
                   ThreadPool& pool, Simd simd) {
  LP_CHECK_MSG(simd_supported(simd), "SIMD build not supported by this CPU");
  return depthwise ? conv2d_depthwise(x, w, a, out_shape, ep, pool)
                   : conv2d_im2col(x, w, a, out_shape, ep, pool, simd);
}

Tensor matmul_fast(const Tensor& x, const Tensor& w, const Shape& out_shape,
                   const Epilogue& ep, ThreadPool& pool, Simd simd) {
  LP_CHECK_MSG(simd_supported(simd), "SIMD build not supported by this CPU");
  Tensor out(out_shape);
  const std::int64_t rows = x.shape().dim(0);
  const MatmulJob job{x.data(),           w.data(), out.data(), &ep,
                      x.shape().dim(1),   out_shape.dim(1),
                      ceil_div(out_shape.dim(1), kColBlock)};
  const auto items =
      simd == Simd::kAvx2 ? matmul_items_avx2 : matmul_items_baseline;
  pool.parallel_for(0, rows * job.blocks, 1,
                    [&](std::int64_t lo, std::int64_t hi) {
                      items(job, lo, hi);
                    });
  return out;
}

Tensor pool2d_fast(const Tensor& x, const graph::PoolAttrs& a,
                   const Shape& out_shape, bool is_max, ThreadPool& pool) {
  Tensor out(out_shape);
  const std::int64_t planes = out_shape.n() * out_shape.c();
  const std::int64_t oh = out_shape.h(), ow = out_shape.w();
  const std::int64_t ih = x.shape().h(), iw = x.shape().w();

  pool.parallel_for(0, planes, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t row = lo; row < hi; ++row) {
      const float* xc = x.data() + row * ih * iw;
      float* yc = out.data() + row * oh * ow;
      for (std::int64_t y = 0; y < oh; ++y)
        for (std::int64_t z = 0; z < ow; ++z) {
          double acc =
              is_max ? -std::numeric_limits<double>::infinity() : 0.0;
          int valid = 0;
          for (std::int64_t kh = 0; kh < a.kernel_h; ++kh) {
            const std::int64_t sy = y * a.stride_h - a.pad_h + kh;
            if (sy < 0 || sy >= ih) continue;
            for (std::int64_t kw = 0; kw < a.kernel_w; ++kw) {
              const std::int64_t sx = z * a.stride_w - a.pad_w + kw;
              if (sx < 0 || sx >= iw) continue;
              const double v = static_cast<double>(xc[sy * iw + sx]);
              if (is_max)
                acc = std::max(acc, v);
              else
                acc += v;
              ++valid;
            }
          }
          LP_DCHECK(valid > 0);
          yc[y * ow + z] =
              static_cast<float>(is_max ? acc : acc / valid);
        }
    }
  });
  return out;
}

void add_inplace(Tensor& a, const Tensor& b, ThreadPool& pool) {
  LP_CHECK(a.elements() == b.elements());
  float* pa = a.data();
  const float* pb = b.data();
  pool.parallel_for(0, a.elements(), 4096,
                    [&](std::int64_t lo, std::int64_t hi) {
                      for (std::int64_t i = lo; i < hi; ++i) pa[i] += pb[i];
                    });
}

void epilogue_inplace(Tensor& t, const Epilogue& ep, ThreadPool& pool) {
  if (ep.empty()) return;
  float* d = t.data();
  if (!ep.per_channel()) {
    pool.parallel_for(0, t.elements(), 4096,
                      [&](std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t i = lo; i < hi; ++i)
                          d[i] = ep.apply(d[i], 0);
                      });
    return;
  }
  if (t.shape().rank() == 4) {
    const std::int64_t channels = t.shape().c();
    const std::int64_t inner = t.shape().h() * t.shape().w();
    pool.parallel_for(0, t.shape().n() * channels, 1,
                      [&](std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t row = lo; row < hi; ++row) {
                          const std::int64_t c = row % channels;
                          float* p = d + row * inner;
                          for (std::int64_t i = 0; i < inner; ++i)
                            p[i] = ep.apply(p[i], c);
                        }
                      });
  } else {
    LP_CHECK(t.shape().rank() == 2);
    const std::int64_t cols = t.shape().dim(1);
    pool.parallel_for(0, t.shape().dim(0), 1,
                      [&](std::int64_t lo, std::int64_t hi) {
                        for (std::int64_t r = lo; r < hi; ++r) {
                          float* p = d + r * cols;
                          for (std::int64_t c = 0; c < cols; ++c)
                            p[c] = ep.apply(p[c], c);
                        }
                      });
  }
}

void softmax_inplace(Tensor& t) {
  const auto last = static_cast<std::int64_t>(t.shape().rank()) - 1;
  const auto width = t.shape().dim(static_cast<std::size_t>(last));
  const auto rows = t.elements() / width;
  float* d = t.data();
  for (std::int64_t r = 0; r < rows; ++r) {
    float* p = d + r * width;
    float maxv = -1e30f;
    for (std::int64_t c = 0; c < width; ++c) maxv = std::max(maxv, p[c]);
    double sum = 0.0;
    for (std::int64_t c = 0; c < width; ++c) {
      const float e = std::exp(p[c] - maxv);
      p[c] = e;
      sum += e;
    }
    for (std::int64_t c = 0; c < width; ++c)
      p[c] = static_cast<float>(p[c] / sum);
  }
}

Tensor concat_fast(const std::vector<const Tensor*>& xs,
                   const Shape& out_shape) {
  Tensor out(out_shape);
  const std::int64_t batch = out_shape.n();
  const std::int64_t plane = out_shape.h() * out_shape.w();
  const std::int64_t out_c = out_shape.c();
  std::int64_t c_off = 0;
  for (const Tensor* x : xs) {
    const std::int64_t span = x->shape().c() * plane;
    for (std::int64_t n = 0; n < batch; ++n)
      std::memcpy(out.data() + (n * out_c + c_off) * plane,
                  x->data() + n * span,
                  static_cast<std::size_t>(span) * sizeof(float));
    c_off += x->shape().c();
  }
  return out;
}

}  // namespace lp::exec
