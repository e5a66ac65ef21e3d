// Quantized conv2d_rows kernel (Backend::kInt8, Tier B).
//
// Per call: the input is quantized symmetrically — against the calibrated
// spec.act_range when the engine stamped one, else against the input's own
// max|x| (dynamic) — and convolved against the per-output-channel int8
// weight plan from the process-wide quant cache. Accumulation is exact
// int32 everywhere: |q·q'| ≤ 127·127, so a pair of products fits int16 and
// the SSE2 `_mm_madd_epi16` pair-sum into int32 is exact (the ISSUE's
// pmaddubsw would saturate: its unsigned+signed trick offsets activations
// by 128, and a pair like 255·127 + 255·127 overflows the saturating int16
// intermediate — madd on sign-extended int8 has no such cliff). Each cell
// then dequantizes once:
//
//   out = float(acc) · (in_scale · w_scale[oc]) + bias[oc]
//
// Determinism: the integer interior is associative, so border/interior
// splits, row-restricted refreshes, lane tails, and worker scheduling all
// produce the same accumulators; the trailing float expression is a single
// fixed chain per cell. That makes the kernel bitwise self-deterministic
// (Tier B) while it deliberately differs from the float backends' results.
// This TU is compiled with -ffp-contract=off like the other kernel TUs so
// the scalar and vector dequant chains stay the same everywhere.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tensor/kernels_detail.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace eco::tensor {

namespace {

/// One guarded output cell on the quantized input: the reference kernel's
/// exact tap-skip conditions with an int32 accumulator. Integer adds are
/// associative, so this single definition serves borders, generic shapes,
/// and the vector span's scalar tail alike.
inline std::int32_t conv_cell_guarded_int8(const std::int8_t* in,
                                           const std::int8_t* w_oc,
                                           std::size_t in_channels,
                                           std::size_t h, std::size_t w,
                                           std::size_t k, std::ptrdiff_t iy0,
                                           std::ptrdiff_t ix0) {
  std::int32_t acc = 0;
  const std::size_t in_plane = h * w;
  for (std::size_t ic = 0; ic < in_channels; ++ic) {
    const std::int8_t* in_c = in + ic * in_plane;
    const std::int8_t* w_ic = w_oc + ic * k * k;
    for (std::size_t ky = 0; ky < k; ++ky) {
      const std::ptrdiff_t iy = iy0 + static_cast<std::ptrdiff_t>(ky);
      if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
      const std::int8_t* in_row = in_c + static_cast<std::size_t>(iy) * w;
      const std::int8_t* w_row = w_ic + ky * k;
      for (std::size_t kx = 0; kx < k; ++kx) {
        const std::ptrdiff_t ix = ix0 + static_cast<std::ptrdiff_t>(kx);
        if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
        acc += static_cast<std::int32_t>(in_row[static_cast<std::size_t>(ix)]) *
               static_cast<std::int32_t>(w_row[kx]);
      }
    }
  }
  return acc;
}

#if defined(__SSE2__)

/// Sign-extend the low 8 int8 lanes to int16 (SSE2 has no cvtepi8_epi16;
/// self-unpack + arithmetic shift is the baseline idiom).
inline __m128i sext8x8(const std::int8_t* p) {
  const __m128i v = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
  return _mm_srai_epi16(_mm_unpacklo_epi8(v, v), 8);
}

/// Adds one 3-tap kernel row's contribution for eight adjacent output
/// cells: taps (w0, w1) go through one madd_epi16 pair-sum per half (the
/// interleave pairs cell ox's tap-0 with its tap-1 operand), tap w2 pairs
/// with a zero lane. Products are ≤ 127·127, so the int16 pair sums and
/// the int32 accumulation are exact.
inline void conv3_row_madd(const std::int8_t* ptr, std::int16_t w0,
                           std::int16_t w1, std::int16_t w2, __m128i& acc_lo,
                           __m128i& acc_hi) {
  const __m128i a = sext8x8(ptr);
  const __m128i b = sext8x8(ptr + 1);
  const __m128i c = sext8x8(ptr + 2);
  const __m128i w01 = _mm_set1_epi32(
      (static_cast<std::int32_t>(static_cast<std::uint16_t>(w1)) << 16) |
      static_cast<std::int32_t>(static_cast<std::uint16_t>(w0)));
  const __m128i w2v = _mm_set1_epi16(w2);
  const __m128i zero = _mm_setzero_si128();
  acc_lo = _mm_add_epi32(acc_lo, _mm_madd_epi16(_mm_unpacklo_epi16(a, b), w01));
  acc_hi = _mm_add_epi32(acc_hi, _mm_madd_epi16(_mm_unpackhi_epi16(a, b), w01));
  acc_lo =
      _mm_add_epi32(acc_lo, _mm_madd_epi16(_mm_unpacklo_epi16(c, zero), w2v));
  acc_hi =
      _mm_add_epi32(acc_hi, _mm_madd_epi16(_mm_unpackhi_epi16(c, zero), w2v));
}

#endif  // __SSE2__

/// k==3/s==1 interior span on the quantized input: int32 accumulators for
/// output cells [ox_lo, ox_hi), dequantized on store.
inline void conv3x1_interior_span_int8(const std::int8_t* in_y,
                                       const std::int8_t* w_oc,
                                       std::size_t in_channels,
                                       std::size_t in_plane, std::size_t w,
                                       std::size_t p, std::size_t ox_lo,
                                       std::size_t ox_hi, float dequant,
                                       float bias_value, float* out_row) {
  std::size_t ox = ox_lo;
#if defined(__SSE2__)
  const __m128 dq4 = _mm_set1_ps(dequant);
  const __m128 b4 = _mm_set1_ps(bias_value);
  for (; ox + 8 <= ox_hi; ox += 8) {
    __m128i acc_lo = _mm_setzero_si128();
    __m128i acc_hi = _mm_setzero_si128();
    const std::int8_t* in_c = in_y + (ox - p);
    const std::int8_t* w9 = w_oc;
    for (std::size_t ic = 0; ic < in_channels;
         ++ic, in_c += in_plane, w9 += 9) {
      conv3_row_madd(in_c, w9[0], w9[1], w9[2], acc_lo, acc_hi);
      conv3_row_madd(in_c + w, w9[3], w9[4], w9[5], acc_lo, acc_hi);
      conv3_row_madd(in_c + 2 * w, w9[6], w9[7], w9[8], acc_lo, acc_hi);
    }
    // cvtepi32_ps rounds to nearest even, exactly like the scalar
    // static_cast<float>; the mul/add chain matches the scalar dequant.
    _mm_storeu_ps(out_row + ox,
                  _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(acc_lo), dq4), b4));
    _mm_storeu_ps(out_row + ox + 4,
                  _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(acc_hi), dq4), b4));
  }
#endif
  // Lane tail (and the whole span on scalar-only builds): same integers,
  // same dequant chain.
  for (; ox < ox_hi; ++ox) {
    std::int32_t acc = 0;
    const std::int8_t* in_c = in_y + (ox - p);
    const std::int8_t* w9 = w_oc;
    for (std::size_t ic = 0; ic < in_channels;
         ++ic, in_c += in_plane, w9 += 9) {
      const std::int8_t* r0 = in_c;
      const std::int8_t* r1 = in_c + w;
      const std::int8_t* r2 = in_c + 2 * w;
      acc += static_cast<std::int32_t>(r0[0]) * w9[0];
      acc += static_cast<std::int32_t>(r0[1]) * w9[1];
      acc += static_cast<std::int32_t>(r0[2]) * w9[2];
      acc += static_cast<std::int32_t>(r1[0]) * w9[3];
      acc += static_cast<std::int32_t>(r1[1]) * w9[4];
      acc += static_cast<std::int32_t>(r1[2]) * w9[5];
      acc += static_cast<std::int32_t>(r2[0]) * w9[6];
      acc += static_cast<std::int32_t>(r2[1]) * w9[7];
      acc += static_cast<std::int32_t>(r2[2]) * w9[8];
    }
    out_row[ox] = static_cast<float>(acc) * dequant + bias_value;
  }
}

/// Thread-local quantized-input buffer: persists across calls (capacity
/// reuse), so steady-state frames stay off the heap like the arena path.
std::vector<std::int8_t>& quantized_input_buffer() {
  thread_local std::vector<std::int8_t> buffer;
  return buffer;
}

}  // namespace

void conv2d_rows_int8(const Tensor& input, const Tensor& weight,
                      const Tensor& bias, const Conv2dSpec& spec,
                      std::size_t row_begin, std::size_t row_end, Tensor& out) {
  detail::require_conv_rows_args(input, weight, bias, spec, row_begin, row_end,
                                 out);
  const std::size_t h = input.size(1), w = input.size(2);
  const std::size_t oh = spec.out_extent(h), ow = spec.out_extent(w);
  const std::size_t k = spec.kernel, s = spec.stride, p = spec.padding;

  const std::shared_ptr<const QuantConvPlan> plan = quant_conv_plan(weight);

  // Whole-input quantization even for row-restricted calls: the dynamic
  // scale (act_range == 0) is max|x| over the WHOLE input, so a partial
  // row refresh quantizes against the same scale as the full convolution
  // it patches — that is what keeps the temporal stem cache's deltas
  // bitwise consistent with full recomputation under this backend.
  const float in_range = spec.act_range > 0.0f
                             ? spec.act_range
                             : max_abs(input.data(), input.numel());
  const float in_scale = symmetric_scale(in_range);
  std::vector<std::int8_t>& qin = quantized_input_buffer();
  qin.resize(input.numel());
  quantize_array(input.data(), input.numel(), inverse_scale(in_range),
                 qin.data());
  const std::int8_t* in = qin.data();
  const std::int8_t* wt = plan->weights.data();

  const std::size_t out_plane = oh * ow;
  const std::size_t in_plane = h * w;
  const std::size_t w_oc_stride = spec.in_channels * k * k;
  float* out_data = out.data();

  if (k == 3 && s == 1) {
    // Interior ranges: identical bounds to the float kernels (stride 1).
    const std::size_t oy_lo = std::min(oh, p);
    const std::size_t oy_hi = (h + p >= k) ? std::min(oh, h + p - k + 1) : 0;
    const std::size_t ox_lo = std::min(ow, p);
    const std::size_t ox_hi = (w + p >= k) ? std::min(ow, w + p - k + 1) : 0;
    for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
      const float b = bias[oc];
      const float dequant = in_scale * plan->weight_scale[oc];
      const std::int8_t* w_oc = wt + oc * w_oc_stride;
      float* out_c = out_data + oc * out_plane;
      for (std::size_t oy = row_begin; oy < row_end; ++oy) {
        float* out_row = out_c + oy * ow;
        const std::ptrdiff_t iy0 =
            static_cast<std::ptrdiff_t>(oy) - static_cast<std::ptrdiff_t>(p);
        if (oy < oy_lo || oy >= oy_hi) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                       static_cast<std::ptrdiff_t>(p);
            out_row[ox] =
                static_cast<float>(conv_cell_guarded_int8(
                    in, w_oc, spec.in_channels, h, w, k, iy0, ix0)) *
                    dequant +
                b;
          }
          continue;
        }
        for (std::size_t ox = 0; ox < ox_lo; ++ox) {
          const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                     static_cast<std::ptrdiff_t>(p);
          out_row[ox] = static_cast<float>(conv_cell_guarded_int8(
                            in, w_oc, spec.in_channels, h, w, k, iy0, ix0)) *
                            dequant +
                        b;
        }
        const std::int8_t* in_y = in + static_cast<std::size_t>(iy0) * w;
        conv3x1_interior_span_int8(in_y, w_oc, spec.in_channels, in_plane, w,
                                   p, ox_lo, ox_hi, dequant, b, out_row);
        for (std::size_t ox = ox_hi; ox < ow; ++ox) {
          const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox) -
                                     static_cast<std::ptrdiff_t>(p);
          out_row[ox] = static_cast<float>(conv_cell_guarded_int8(
                            in, w_oc, spec.in_channels, h, w, k, iy0, ix0)) *
                            dequant +
                        b;
        }
      }
    }
    return;
  }

  // Every other (k, stride) shape: the guarded integer walk per cell.
  for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
    const float b = bias[oc];
    const float dequant = in_scale * plan->weight_scale[oc];
    const std::int8_t* w_oc = wt + oc * w_oc_stride;
    float* out_c = out_data + oc * out_plane;
    for (std::size_t oy = row_begin; oy < row_end; ++oy) {
      float* out_row = out_c + oy * ow;
      const std::ptrdiff_t iy0 =
          static_cast<std::ptrdiff_t>(oy * s) - static_cast<std::ptrdiff_t>(p);
      for (std::size_t ox = 0; ox < ow; ++ox) {
        const std::ptrdiff_t ix0 = static_cast<std::ptrdiff_t>(ox * s) -
                                   static_cast<std::ptrdiff_t>(p);
        out_row[ox] = static_cast<float>(conv_cell_guarded_int8(
                          in, w_oc, spec.in_channels, h, w, k, iy0, ix0)) *
                          dequant +
                      b;
      }
    }
  }
}

}  // namespace eco::tensor
