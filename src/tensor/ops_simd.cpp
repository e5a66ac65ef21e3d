// Vectorized conv2d_rows kernel (Backend::kSimd).
//
// Every lane executes conv2d_rows_fast's exact accumulation chain —
//
//   acc = bias; acc = acc + in[tap] * w[tap];   (taps in ic→ky→kx order)
//
// — as one vector register, so each lane's float stream is bit-for-bit the
// scalar stream of its output cell (IEEE add/mul are exactly rounded per
// lane, and this translation unit is compiled with -ffp-contract=off so no
// FMA contraction can perturb the chain). Two 3×3 shapes are vectorized:
//
//   stride 1 (the stems): blocks of four (SSE2) or eight (AVX2) adjacent
//   output cells × up to eight output channels, a lane per cell and a
//   register per channel. Each tap's input vector (an unaligned contiguous
//   load at the scalar tap pointer) is loaded once and feeds every
//   channel's register, so a block runs up to eight independent add chains.
//   The last block of a row overlaps the previous one instead of leaving a
//   scalar tail (overlapped cells are recomputed to the same bits). Border
//   rows run the same blocks over the window rows inside the input — the
//   rows the guarded cell skips — and only the border columns (and a row
//   interior narrower than four cells) run detail::conv_cell_guarded. NEON
//   builds keep a lane-per-cell span of one channel at a time.
//
//   stride >= 2 (the learned gate's convs, x86 only): lane-per-output-
//   channel. Weights are repacked as [ic][ky][kx][oc], zero-padded to
//   eight channels, so one tap's weights for consecutive output channels
//   are one vector load; the input tap is broadcast. Out-of-bounds taps are
//   skipped by the position test of detail::conv_cell_guarded, so border
//   cells run the same vector loop, and only the real channels are stored.
//
// Every other (k, stride) shape runs the scalar fast kernel unchanged.
#include <algorithm>
#include <cstddef>
#include <vector>

#include "tensor/backend.hpp"
#include "tensor/kernels_detail.hpp"
#include "tensor/ops.hpp"

#if defined(__SSE2__)
#include <immintrin.h>
#elif defined(__ARM_NEON)
#include <arm_neon.h>
#endif

// AVX2 function variants are compiled on any x86-64 GNU-compatible
// toolchain (the target attribute lifts the baseline per function); they
// are only *called* when the CPU reports AVX2.
#if defined(__SSE2__) && defined(__x86_64__) && defined(__GNUC__)
#define ECO_HAVE_AVX2_VARIANTS 1
#if defined(__AVX2__)
#define ECO_AVX2_TARGET
#else
#define ECO_AVX2_TARGET __attribute__((target("avx2")))
#endif
#endif

namespace eco::tensor {

namespace {

#if !defined(__SSE2__)
/// k==3, stride==1 interior span of one output channel on non-x86 builds:
/// writes out_row[ox_lo, ox_hi), four cells per NEON vector. `in_y` points
/// at the input row iy0 (already offset for padding).
inline void conv3x1_interior_span(const float* in_y, const float* w_oc,
                                  float bias_value, std::size_t in_channels,
                                  std::size_t in_plane, std::size_t w,
                                  std::size_t p, std::size_t ox_lo,
                                  std::size_t ox_hi, float* out_row) {
  std::size_t ox = ox_lo;
#if defined(__ARM_NEON)
  for (; ox + 4 <= ox_hi; ox += 4) {
    float32x4_t acc = vdupq_n_f32(bias_value);
    const float* in_c = in_y + (ox - p);
    const float* w9 = w_oc;
    for (std::size_t ic = 0; ic < in_channels;
         ++ic, in_c += in_plane, w9 += 9) {
      const float* r0 = in_c;
      const float* r1 = in_c + w;
      const float* r2 = in_c + 2 * w;
      // vaddq/vmulq (not vmlaq, which may fuse) keep the rounding of the
      // scalar add-then-multiply chain.
      acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(r0), w9[0]));
      acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(r0 + 1), w9[1]));
      acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(r0 + 2), w9[2]));
      acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(r1), w9[3]));
      acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(r1 + 1), w9[4]));
      acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(r1 + 2), w9[5]));
      acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(r2), w9[6]));
      acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(r2 + 1), w9[7]));
      acc = vaddq_f32(acc, vmulq_n_f32(vld1q_f32(r2 + 2), w9[8]));
    }
    vst1q_f32(out_row + ox, acc);
  }
#endif
  // Lane tail (and the whole span on scalar-only builds): the fast
  // kernel's unrolled chain, one cell at a time.
  for (; ox < ox_hi; ++ox) {
    float acc = bias_value;
    const float* in_c = in_y + (ox - p);
    const float* w9 = w_oc;
    for (std::size_t ic = 0; ic < in_channels;
         ++ic, in_c += in_plane, w9 += 9) {
      const float* r0 = in_c;
      const float* r1 = in_c + w;
      const float* r2 = in_c + 2 * w;
      acc += r0[0] * w9[0];
      acc += r0[1] * w9[1];
      acc += r0[2] * w9[2];
      acc += r1[0] * w9[3];
      acc += r1[1] * w9[4];
      acc += r1[2] * w9[5];
      acc += r2[0] * w9[6];
      acc += r2[1] * w9[7];
      acc += r2[2] * w9[8];
    }
    out_row[ox] = acc;
  }
}
#endif  // !__SSE2__

#if defined(__SSE2__)
/// Output channels are packed in groups of this many lanes: one AVX2
/// register, two SSE2 registers.
constexpr std::size_t kOcLanes = 8;
/// Channels one cell pass accumulates at once (four AVX2 / eight SSE2
/// accumulators); wider layers take several passes over the taps.
constexpr std::size_t kOcPass = 32;

/// One output cell of a lane-per-output-channel pass over NB registers of
/// four channels: lane c of register b runs output channel 4b + c's chain.
/// `in` is the cell's first in-bounds tap in input channel 0 and `wp` its
/// packed weights; the ny × nx in-bounds taps of each input channel are
/// visited in ky→kx order, channel after channel. kFull fixes the window at
/// 3 × 3 (every interior cell) so the tap loops unroll.
template <std::size_t NB, bool kFull>
void conv3_strided_cell_sse2(const float* in, const float* wp,
                             const float* bp, std::size_t in_channels,
                             std::size_t in_plane, std::size_t w,
                             std::size_t oc_pad, std::size_t ny,
                             std::size_t nx, float* lanes) {
  const std::size_t rows = kFull ? 3 : ny, cols = kFull ? 3 : nx;
  __m128 acc[NB];
  for (std::size_t b = 0; b < NB; ++b) acc[b] = _mm_loadu_ps(bp + 4 * b);
  for (std::size_t ic = 0; ic < in_channels;
       ++ic, in += in_plane, wp += 9 * oc_pad) {
    for (std::size_t y = 0; y < rows; ++y) {
      const float* in_row = in + y * w;
      const float* w_row = wp + 3 * y * oc_pad;
      for (std::size_t x = 0; x < cols; ++x) {
        const __m128 tap = _mm_set1_ps(in_row[x]);
        const float* w_tap = w_row + x * oc_pad;
        for (std::size_t b = 0; b < NB; ++b) {
          acc[b] = _mm_add_ps(acc[b],
                              _mm_mul_ps(tap, _mm_loadu_ps(w_tap + 4 * b)));
        }
      }
    }
  }
  for (std::size_t b = 0; b < NB; ++b) _mm_storeu_ps(lanes + 4 * b, acc[b]);
}

using StridedCellFn = void (*)(const float*, const float*, const float*,
                               std::size_t, std::size_t, std::size_t,
                               std::size_t, std::size_t, std::size_t, float*);

/// Cell kernels by [full window][pass width / kOcLanes - 1].
constexpr StridedCellFn kStridedCellsSse2[2][4] = {
    {&conv3_strided_cell_sse2<2, false>, &conv3_strided_cell_sse2<4, false>,
     &conv3_strided_cell_sse2<6, false>, &conv3_strided_cell_sse2<8, false>},
    {&conv3_strided_cell_sse2<2, true>, &conv3_strided_cell_sse2<4, true>,
     &conv3_strided_cell_sse2<6, true>, &conv3_strided_cell_sse2<8, true>}};

#if defined(ECO_HAVE_AVX2_VARIANTS)
/// conv3_strided_cell_sse2 with eight channels per register.
template <std::size_t NB, bool kFull>
ECO_AVX2_TARGET void conv3_strided_cell_avx2(
    const float* in, const float* wp, const float* bp, std::size_t in_channels,
    std::size_t in_plane, std::size_t w, std::size_t oc_pad, std::size_t ny,
    std::size_t nx, float* lanes) {
  const std::size_t rows = kFull ? 3 : ny, cols = kFull ? 3 : nx;
  __m256 acc[NB];
  for (std::size_t b = 0; b < NB; ++b) acc[b] = _mm256_loadu_ps(bp + 8 * b);
  for (std::size_t ic = 0; ic < in_channels;
       ++ic, in += in_plane, wp += 9 * oc_pad) {
    for (std::size_t y = 0; y < rows; ++y) {
      const float* in_row = in + y * w;
      const float* w_row = wp + 3 * y * oc_pad;
      for (std::size_t x = 0; x < cols; ++x) {
        const __m256 tap = _mm256_set1_ps(in_row[x]);
        const float* w_tap = w_row + x * oc_pad;
        for (std::size_t b = 0; b < NB; ++b) {
          acc[b] = _mm256_add_ps(
              acc[b], _mm256_mul_ps(tap, _mm256_loadu_ps(w_tap + 8 * b)));
        }
      }
    }
  }
  for (std::size_t b = 0; b < NB; ++b) {
    _mm256_storeu_ps(lanes + 8 * b, acc[b]);
  }
}

constexpr StridedCellFn kStridedCellsAvx2[2][4] = {
    {&conv3_strided_cell_avx2<1, false>, &conv3_strided_cell_avx2<2, false>,
     &conv3_strided_cell_avx2<3, false>, &conv3_strided_cell_avx2<4, false>},
    {&conv3_strided_cell_avx2<1, true>, &conv3_strided_cell_avx2<2, true>,
     &conv3_strided_cell_avx2<3, true>, &conv3_strided_cell_avx2<4, true>}};
#endif  // ECO_HAVE_AVX2_VARIANTS

/// k==3, stride >= 2 rows [row_begin, row_end): lane-per-output-channel.
/// Arguments are already validated.
void conv3_strided_rows(const Tensor& input, const Tensor& weight,
                        const Tensor& bias, const Conv2dSpec& spec,
                        std::size_t row_begin, std::size_t row_end,
                        Tensor& out) {
  if (row_begin == row_end) return;
  const std::size_t h = input.size(1), w = input.size(2);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t s = spec.stride, p = spec.padding;
  const std::size_t in_channels = spec.in_channels;
  const std::size_t out_channels = spec.out_channels;
  const std::size_t oc_pad =
      (out_channels + kOcLanes - 1) / kOcLanes * kOcLanes;

  // Scratch: packed weights [ic][ky][kx][oc_pad], bias [oc_pad], then one
  // cell's accumulated lanes [oc_pad]. Padded channels hold zero weights;
  // their lanes are computed and never stored.
  thread_local std::vector<float> scratch;
  scratch.assign((in_channels * 9 + 2) * oc_pad, 0.0f);
  float* wp = scratch.data();
  float* bp = wp + in_channels * 9 * oc_pad;
  float* lanes = bp + oc_pad;
  const float* wt = weight.data();
  for (std::size_t oc = 0; oc < out_channels; ++oc) {
    bp[oc] = bias[oc];
    for (std::size_t tap = 0; tap < in_channels * 9; ++tap) {
      wp[tap * oc_pad + oc] = wt[oc * in_channels * 9 + tap];
    }
  }

  const StridedCellFn(*cells)[4] = kStridedCellsSse2;
#if defined(ECO_HAVE_AVX2_VARIANTS)
  if (cpu_has_avx2()) cells = kStridedCellsAvx2;
#endif
  const float* in = input.data();
  float* out_data = out.data();
  const std::size_t in_plane = h * w;
  const std::size_t out_plane = oh * ow;
  // The in-bounds taps [lo, hi) of a window starting at `origin` over an
  // input extent (exactly the taps detail::conv_cell_guarded keeps), and
  // the input coordinate of tap lo.
  struct TapRange {
    std::size_t lo, hi, first;
  };
  auto tap_range = [](std::ptrdiff_t origin, std::size_t extent) {
    const std::ptrdiff_t n = static_cast<std::ptrdiff_t>(extent);
    const std::ptrdiff_t lo = std::clamp<std::ptrdiff_t>(-origin, 0, 3);
    const std::ptrdiff_t hi = std::clamp<std::ptrdiff_t>(n - origin, lo, 3);
    return TapRange{static_cast<std::size_t>(lo),
                    static_cast<std::size_t>(hi),
                    static_cast<std::size_t>(std::max<std::ptrdiff_t>(
                        origin + lo, 0))};
  };

  for (std::size_t oy = row_begin; oy < row_end; ++oy) {
    const TapRange ty = tap_range(static_cast<std::ptrdiff_t>(oy * s) -
                                      static_cast<std::ptrdiff_t>(p),
                                  h);
    for (std::size_t ox = 0; ox < ow; ++ox) {
      const TapRange tx = tap_range(static_cast<std::ptrdiff_t>(ox * s) -
                                        static_cast<std::ptrdiff_t>(p),
                                    w);
      const std::size_t ny = ty.hi - ty.lo, nx = tx.hi - tx.lo;
      // A window with no in-bounds tap reads nothing; keep its pointer at
      // the input's start instead of past the end.
      const float* in_cell =
          ny == 0 || nx == 0 ? in : in + ty.first * w + tx.first;
      const float* w_cell = wp + (ty.lo * 3 + tx.lo) * oc_pad;
      const StridedCellFn* cell_by_width = cells[ny == 3 && nx == 3];
      for (std::size_t c0 = 0; c0 < oc_pad; c0 += kOcPass) {
        const std::size_t width = std::min(kOcPass, oc_pad - c0);
        cell_by_width[width / kOcLanes - 1](in_cell, w_cell + c0, bp + c0,
                                            in_channels, in_plane, w, oc_pad,
                                            ny, nx, lanes + c0);
      }
      float* out_cell = out_data + oy * ow + ox;
      for (std::size_t oc = 0; oc < out_channels; ++oc) {
        out_cell[oc * out_plane] = lanes[oc];
      }
    }
  }
}

/// Output channels one stride-1 block accumulates at once (one register
/// each, so up to eight independent add chains per block).
constexpr std::size_t kS1Channels = 8;

/// One stride-1 block: four adjacent cells of one output row for NOC
/// output channels. Lane i of accumulator o runs output channel o's chain
/// for the block's cell i, and each loaded input-tap vector feeds all NOC
/// accumulators. `in` points at input channel 0, window row ky_lo, the
/// block's first tap column; `w` at weight[oc0][0][ky_lo][0]; the window
/// spans `rows` rows from ky_lo (fewer than three on border rows: the rows
/// the guarded cell skips are exactly the ones left out).
template <std::size_t NOC>
void conv3s1_block_sse2(const float* in, const float* w, const float* bias,
                        std::size_t in_channels, std::size_t in_plane,
                        std::size_t in_w, std::size_t w_oc_stride,
                        std::size_t rows, float* out, std::size_t out_plane) {
  __m128 acc[NOC];
  for (std::size_t o = 0; o < NOC; ++o) acc[o] = _mm_set1_ps(bias[o]);
  for (std::size_t ic = 0; ic < in_channels; ++ic) {
    for (std::size_t y = 0; y < rows; ++y) {
      const float* in_row = in + ic * in_plane + y * in_w;
      const float* w_row = w + ic * 9 + y * 3;
      for (std::size_t x = 0; x < 3; ++x) {
        const __m128 tap = _mm_loadu_ps(in_row + x);
        for (std::size_t o = 0; o < NOC; ++o) {
          acc[o] = _mm_add_ps(
              acc[o], _mm_mul_ps(tap, _mm_set1_ps(w_row[o * w_oc_stride + x])));
        }
      }
    }
  }
  for (std::size_t o = 0; o < NOC; ++o) {
    _mm_storeu_ps(out + o * out_plane, acc[o]);
  }
}

using S1BlockFn = void (*)(const float*, const float*, const float*,
                           std::size_t, std::size_t, std::size_t, std::size_t,
                           std::size_t, float*, std::size_t);

/// Block kernels by channel count - 1.
constexpr S1BlockFn kS1BlocksSse2[kS1Channels] = {
    &conv3s1_block_sse2<1>, &conv3s1_block_sse2<2>, &conv3s1_block_sse2<3>,
    &conv3s1_block_sse2<4>, &conv3s1_block_sse2<5>, &conv3s1_block_sse2<6>,
    &conv3s1_block_sse2<7>, &conv3s1_block_sse2<8>};

#if defined(ECO_HAVE_AVX2_VARIANTS)
/// conv3s1_block_sse2 over eight adjacent cells.
template <std::size_t NOC>
ECO_AVX2_TARGET void conv3s1_block_avx2(
    const float* in, const float* w, const float* bias,
    std::size_t in_channels, std::size_t in_plane, std::size_t in_w,
    std::size_t w_oc_stride, std::size_t rows, float* out,
    std::size_t out_plane) {
  __m256 acc[NOC];
  for (std::size_t o = 0; o < NOC; ++o) acc[o] = _mm256_set1_ps(bias[o]);
  for (std::size_t ic = 0; ic < in_channels; ++ic) {
    for (std::size_t y = 0; y < rows; ++y) {
      const float* in_row = in + ic * in_plane + y * in_w;
      const float* w_row = w + ic * 9 + y * 3;
      for (std::size_t x = 0; x < 3; ++x) {
        const __m256 tap = _mm256_loadu_ps(in_row + x);
        for (std::size_t o = 0; o < NOC; ++o) {
          acc[o] = _mm256_add_ps(
              acc[o],
              _mm256_mul_ps(tap, _mm256_set1_ps(w_row[o * w_oc_stride + x])));
        }
      }
    }
  }
  for (std::size_t o = 0; o < NOC; ++o) {
    _mm256_storeu_ps(out + o * out_plane, acc[o]);
  }
}

constexpr S1BlockFn kS1BlocksAvx2[kS1Channels] = {
    &conv3s1_block_avx2<1>, &conv3s1_block_avx2<2>, &conv3s1_block_avx2<3>,
    &conv3s1_block_avx2<4>, &conv3s1_block_avx2<5>, &conv3s1_block_avx2<6>,
    &conv3s1_block_avx2<7>, &conv3s1_block_avx2<8>};
#endif  // ECO_HAVE_AVX2_VARIANTS

/// k==3, stride 1 rows [row_begin, row_end): blocks of adjacent cells ×
/// up to eight output channels. Arguments are already validated.
void conv3s1_rows(const Tensor& input, const Tensor& weight,
                  const Tensor& bias, const Conv2dSpec& spec,
                  std::size_t row_begin, std::size_t row_end, Tensor& out) {
  const std::size_t h = input.size(1), w = input.size(2);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t p = spec.padding;
  const std::size_t in_channels = spec.in_channels;
  const std::size_t out_channels = spec.out_channels;

  // Columns whose 3-wide window lies inside the input: [ox_lo, ox_hi), as
  // in conv2d_rows_fast. They run in blocks of `lanes` cells, the last
  // block of a row overlapping the previous one; a span narrower than one
  // vector, and the border columns, run the guarded cell.
  const std::size_t ox_lo = std::min(ow, p);
  const std::size_t ox_hi = (w + p >= 3) ? std::min(ow, w + p - 2) : 0;
  const std::size_t interior = ox_hi > ox_lo ? ox_hi - ox_lo : 0;
  std::size_t lanes = 0;
  const S1BlockFn* blocks = nullptr;
  if (interior >= 4) {
    lanes = 4;
    blocks = kS1BlocksSse2;
  }
#if defined(ECO_HAVE_AVX2_VARIANTS)
  if (interior >= 8 && cpu_has_avx2()) {
    lanes = 8;
    blocks = kS1BlocksAvx2;
  }
#endif
  const std::size_t span_lo = ox_lo;
  const std::size_t span_hi = lanes != 0 ? ox_hi : ox_lo;

  const float* in = input.data();
  const float* wt = weight.data();
  const float* bp = bias.data();
  float* out_data = out.data();
  const std::size_t in_plane = h * w;
  const std::size_t out_plane = oh * ow;
  const std::size_t w_oc_stride = in_channels * 9;

  for (std::size_t oy = row_begin; oy < row_end; ++oy) {
    const std::ptrdiff_t iy0 =
        static_cast<std::ptrdiff_t>(oy) - static_cast<std::ptrdiff_t>(p);
    for (std::size_t oc = 0; oc < out_channels; ++oc) {
      const float* w_oc = wt + oc * w_oc_stride;
      float* out_row = out_data + oc * out_plane + oy * ow;
      const auto guarded = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t ox = lo; ox < hi; ++ox) {
          const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                     static_cast<std::ptrdiff_t>(p);
          out_row[ox] = detail::conv_cell_guarded(
              in, w_oc, bp[oc], in_channels, h, w, 3, iy0, ix0);
        }
      };
      guarded(0, span_lo);
      guarded(span_hi, ow);
    }
    if (span_hi == span_lo) continue;
    // The window rows inside the input: ky in [ky_lo, ky_lo + rows).
    const std::ptrdiff_t ky_lo = std::clamp<std::ptrdiff_t>(-iy0, 0, 3);
    const std::ptrdiff_t ky_hi = std::clamp<std::ptrdiff_t>(
        static_cast<std::ptrdiff_t>(h) - iy0, ky_lo, 3);
    const auto rows = static_cast<std::size_t>(ky_hi - ky_lo);
    // Offset of the first in-bounds window row's column 0 (x - p >= 0 for
    // every block). A window with no row inside the input reads nothing;
    // its pointer stays in the input's first row.
    const std::size_t row_offset =
        rows == 0 ? 0 : static_cast<std::size_t>(iy0 + ky_lo) * w;
    for (std::size_t oc0 = 0; oc0 < out_channels; oc0 += kS1Channels) {
      const S1BlockFn block =
          blocks[std::min(kS1Channels, out_channels - oc0) - 1];
      const float* w_block =
          wt + oc0 * w_oc_stride + static_cast<std::size_t>(ky_lo) * 3;
      float* out_block = out_data + oc0 * out_plane + oy * ow;
      for (std::size_t x0 = span_lo;; x0 += lanes) {
        const std::size_t x = std::min(x0, span_hi - lanes);
        block(in + row_offset + (x - p), w_block, bp + oc0, in_channels,
              in_plane, w, w_oc_stride, rows, out_block + x, out_plane);
        if (x + lanes == span_hi) break;
      }
    }
  }
}
#endif  // __SSE2__

}  // namespace

void conv2d_rows_simd(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec,
                      std::size_t row_begin, std::size_t row_end, Tensor& out) {
  // Only 3×3 convs have a vector kernel (stride 1 for the stems, stride
  // >= 2 for the learned gate); everything else is already the scalar fast
  // path.
  if (spec.kernel != 3) {
    conv2d_rows_fast(input, weight, bias, spec, row_begin, row_end, out);
    return;
  }
#if defined(__SSE2__)
  detail::require_conv_rows_args(input, weight, bias, spec, row_begin, row_end,
                                 out);
  if (spec.stride == 1) {
    conv3s1_rows(input, weight, bias, spec, row_begin, row_end, out);
  } else {
    conv3_strided_rows(input, weight, bias, spec, row_begin, row_end, out);
  }
#else
  if (spec.stride != 1) {
    conv2d_rows_fast(input, weight, bias, spec, row_begin, row_end, out);
    return;
  }
  detail::require_conv_rows_args(input, weight, bias, spec, row_begin, row_end,
                                 out);
  const std::size_t h = input.size(1), w = input.size(2);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t k = spec.kernel, p = spec.padding;

  // Interior ranges: identical bounds to conv2d_rows_fast (stride 1).
  const std::size_t oy_lo = std::min(oh, p);
  const std::size_t oy_hi = (h + p >= k) ? std::min(oh, h + p - k + 1) : 0;
  const std::size_t ox_lo = std::min(ow, p);
  const std::size_t ox_hi = (w + p >= k) ? std::min(ow, w + p - k + 1) : 0;

  const float* in = input.data();
  const float* wt = weight.data();
  float* out_data = out.data();
  const std::size_t in_plane = h * w;
  const std::size_t out_plane = oh * ow;
  const std::size_t w_oc_stride = spec.in_channels * k * k;

  for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
    const float b = bias[oc];
    const float* w_oc = wt + oc * w_oc_stride;
    float* out_c = out_data + oc * out_plane;
    for (std::size_t oy = row_begin; oy < row_end; ++oy) {
      float* out_row = out_c + oy * ow;
      const std::ptrdiff_t iy0 = static_cast<std::ptrdiff_t>(oy) -
                                 static_cast<std::ptrdiff_t>(p);
      if (oy < oy_lo || oy >= oy_hi) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                     static_cast<std::ptrdiff_t>(p);
          out_row[ox] = detail::conv_cell_guarded(in, w_oc, b,
                                                  spec.in_channels, h, w, k,
                                                  iy0, ix0);
        }
        continue;
      }
      for (std::size_t ox = 0; ox < ox_lo; ++ox) {
        const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                   static_cast<std::ptrdiff_t>(p);
        out_row[ox] = detail::conv_cell_guarded(in, w_oc, b, spec.in_channels,
                                                h, w, k, iy0, ix0);
      }
      const float* in_y = in + static_cast<std::size_t>(iy0) * w;
      conv3x1_interior_span(in_y, w_oc, b, spec.in_channels, in_plane, w, p,
                            ox_lo, ox_hi, out_row);
      for (std::size_t ox = ox_hi; ox < ow; ++ox) {
        const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                   static_cast<std::ptrdiff_t>(p);
        out_row[ox] = detail::conv_cell_guarded(in, w_oc, b, spec.in_channels,
                                                h, w, k, iy0, ix0);
      }
    }
  }
#endif
}

}  // namespace eco::tensor
