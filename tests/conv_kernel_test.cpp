// Pins the raw-pointer fast kernels bitwise against their reference
// implementations, and the simd kernels against fast, across the awkward
// geometries: odd extents, stride > 1, padding >= kernel/2 (and beyond the
// kernel), 1x1 kernels, output-channel lane tails, row-restricted and empty
// row ranges. The fast kernels' interior/border split and the simd lane
// layouts must be invisible — Tensor::equals (exact float compare)
// throughout.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>
#include <vector>

#include "core/stems.hpp"
#include "dataset/generator.hpp"
#include "detect/rpn.hpp"
#include "detect/scan_scratch.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace eco::tensor {
namespace {

Tensor random_tensor(Shape shape, util::Rng& rng, float lo = -1.0f,
                     float hi = 1.0f) {
  Tensor t(std::move(shape));
  for (float& v : t.vec()) v = rng.uniform_f(lo, hi);
  return t;
}

struct KernelCase {
  std::size_t in_channels, out_channels, kernel, stride, padding, h, w;
};

class ConvKernelEquivalence : public ::testing::TestWithParam<KernelCase> {};

TEST_P(ConvKernelEquivalence, FastMatchesReferenceBitwise) {
  const KernelCase c = GetParam();
  Conv2dSpec spec;
  spec.in_channels = c.in_channels;
  spec.out_channels = c.out_channels;
  spec.kernel = c.kernel;
  spec.stride = c.stride;
  spec.padding = c.padding;
  util::Rng rng(c.kernel * 1000 + c.h * 10 + c.stride);
  const Tensor input = random_tensor({c.in_channels, c.h, c.w}, rng);
  const Tensor weight = random_tensor(
      {c.out_channels, c.in_channels, c.kernel, c.kernel}, rng);
  const Tensor bias = random_tensor({c.out_channels}, rng);
  const std::size_t oh = spec.out_extent(c.h), ow = spec.out_extent(c.w);
  ASSERT_GT(oh, 0u);
  ASSERT_GT(ow, 0u);

  Tensor fast({spec.out_channels, oh, ow});
  Tensor reference({spec.out_channels, oh, ow});
  conv2d_rows_fast(input, weight, bias, spec, 0, oh, fast);
  conv2d_rows_reference(input, weight, bias, spec, 0, oh, reference);
  EXPECT_TRUE(fast.equals(reference))
      << "k=" << c.kernel << " s=" << c.stride << " p=" << c.padding
      << " h=" << c.h << " w=" << c.w;

  // The simd backend too — the stride-1 vector interior plus its scalar
  // tail, and the stride >= 2 lane-per-output-channel path with its padded
  // channel lanes, must be invisible.
  Tensor simd({spec.out_channels, oh, ow});
  conv2d_rows_simd(input, weight, bias, spec, 0, oh, simd);
  EXPECT_TRUE(simd.equals(fast))
      << "simd oc=" << c.out_channels << " k=" << c.kernel << " s=" << c.stride
      << " p=" << c.padding << " h=" << c.h << " w=" << c.w;

  // The dispatching entry point (spec.backend, kSimd by default) agrees
  // too.
  Tensor dispatched({spec.out_channels, oh, ow});
  conv2d_rows(input, weight, bias, spec, 0, oh, dispatched);
  EXPECT_TRUE(dispatched.equals(reference));
}

TEST_P(ConvKernelEquivalence, SimdSingleRowRangesMatchReference) {
  const KernelCase c = GetParam();
  Conv2dSpec spec;
  spec.in_channels = c.in_channels;
  spec.out_channels = c.out_channels;
  spec.kernel = c.kernel;
  spec.stride = c.stride;
  spec.padding = c.padding;
  util::Rng rng(c.kernel * 31 + c.w);
  const Tensor input = random_tensor({c.in_channels, c.h, c.w}, rng);
  const Tensor weight = random_tensor(
      {c.out_channels, c.in_channels, c.kernel, c.kernel}, rng);
  const Tensor bias = random_tensor({c.out_channels}, rng);
  const std::size_t oh = spec.out_extent(c.h), ow = spec.out_extent(c.w);
  // One row at a time — first, middle, last — so row-granular sharding
  // over the simd kernel composes to the whole-range result.
  for (const std::size_t row : {std::size_t{0}, oh / 2, oh - 1}) {
    const float sentinel = 55.25f;
    Tensor simd = Tensor::full({spec.out_channels, oh, ow}, sentinel);
    Tensor reference = Tensor::full({spec.out_channels, oh, ow}, sentinel);
    conv2d_rows_simd(input, weight, bias, spec, row, row + 1, simd);
    conv2d_rows_reference(input, weight, bias, spec, row, row + 1, reference);
    EXPECT_TRUE(simd.equals(reference)) << "row=" << row;
  }
}

TEST_P(ConvKernelEquivalence, RowRestrictedRangesMatchAndStayInRange) {
  const KernelCase c = GetParam();
  Conv2dSpec spec;
  spec.in_channels = c.in_channels;
  spec.out_channels = c.out_channels;
  spec.kernel = c.kernel;
  spec.stride = c.stride;
  spec.padding = c.padding;
  util::Rng rng(c.kernel + c.h + 77);
  const Tensor input = random_tensor({c.in_channels, c.h, c.w}, rng);
  const Tensor weight = random_tensor(
      {c.out_channels, c.in_channels, c.kernel, c.kernel}, rng);
  const Tensor bias = random_tensor({c.out_channels}, rng);
  const std::size_t oh = spec.out_extent(c.h), ow = spec.out_extent(c.w);

  const float sentinel = -123.5f;
  const std::size_t row_begin = oh / 3;
  const std::size_t row_end = oh - oh / 4;
  Tensor fast = Tensor::full({spec.out_channels, oh, ow}, sentinel);
  Tensor reference = Tensor::full({spec.out_channels, oh, ow}, sentinel);
  Tensor simd = Tensor::full({spec.out_channels, oh, ow}, sentinel);
  conv2d_rows_fast(input, weight, bias, spec, row_begin, row_end, fast);
  conv2d_rows_reference(input, weight, bias, spec, row_begin, row_end,
                        reference);
  conv2d_rows_simd(input, weight, bias, spec, row_begin, row_end, simd);
  EXPECT_TRUE(fast.equals(reference));
  EXPECT_TRUE(simd.equals(fast));
  // Rows outside the range are untouched in every kernel.
  for (std::size_t oc = 0; oc < spec.out_channels; ++oc) {
    for (std::size_t oy = 0; oy < oh; ++oy) {
      if (oy >= row_begin && oy < row_end) continue;
      for (std::size_t ox = 0; ox < ow; ++ox) {
        ASSERT_EQ(fast.at(oc, oy, ox), sentinel);
        ASSERT_EQ(simd.at(oc, oy, ox), sentinel);
      }
    }
  }

  // An empty row range touches nothing at all.
  const Tensor all_sentinel =
      Tensor::full({spec.out_channels, oh, ow}, sentinel);
  Tensor untouched = all_sentinel;
  conv2d_rows_fast(input, weight, bias, spec, row_begin, row_begin, untouched);
  EXPECT_TRUE(untouched.equals(all_sentinel));
  conv2d_rows_simd(input, weight, bias, spec, row_begin, row_begin, untouched);
  EXPECT_TRUE(untouched.equals(all_sentinel));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvKernelEquivalence,
    ::testing::Values(
        // The stem shape (3x3, pad 1) and its batch form.
        KernelCase{1, 8, 3, 1, 1, 48, 48},
        KernelCase{8, 16, 3, 2, 1, 24, 24},
        // Odd extents, non-square.
        KernelCase{2, 3, 3, 1, 1, 5, 7},
        KernelCase{3, 2, 5, 1, 2, 9, 13},
        // stride > 1 with odd extents.
        KernelCase{1, 2, 3, 3, 1, 11, 17},
        KernelCase{2, 2, 5, 2, 2, 15, 9},
        // padding >= kernel/2 and beyond the kernel (fully guarded rows).
        KernelCase{1, 1, 3, 1, 3, 6, 6},
        KernelCase{1, 2, 5, 1, 5, 7, 7},
        // 1x1 kernels (no border at p=0; all border at p=1).
        KernelCase{4, 4, 1, 1, 0, 10, 12},
        KernelCase{2, 2, 1, 2, 1, 8, 8},
        // Kernel equal to the whole input.
        KernelCase{1, 1, 7, 1, 3, 7, 7},
        // SIMD tails: output widths below one SSE vector (4 lanes), then
        // each residue class just above it, then a single-row image.
        KernelCase{1, 1, 3, 1, 1, 3, 1},
        KernelCase{2, 2, 3, 1, 1, 4, 2},
        KernelCase{2, 2, 3, 1, 1, 5, 3},
        KernelCase{1, 2, 3, 1, 1, 6, 4},
        KernelCase{2, 1, 3, 1, 1, 6, 5},
        KernelCase{1, 1, 3, 1, 1, 7, 6},
        KernelCase{2, 3, 3, 1, 1, 8, 7},
        KernelCase{1, 1, 3, 1, 1, 1, 48},
        // The learned gate's three convs (stride 2, pad 1):
        // 24x24 -> 12 -> 6 -> 3.
        KernelCase{32, 24, 3, 2, 1, 24, 24},
        KernelCase{24, 24, 3, 2, 1, 12, 12},
        KernelCase{24, 24, 3, 2, 1, 6, 6},
        // Output-channel lane tails of the stride >= 2 path (channels are
        // packed eight to a group): below, just under, just over, and one
        // past four groups, at stride 2 and 3.
        KernelCase{3, 1, 3, 2, 1, 9, 11},
        KernelCase{3, 7, 3, 2, 1, 10, 9},
        KernelCase{2, 9, 3, 2, 0, 8, 13},
        KernelCase{2, 33, 3, 2, 1, 7, 10},
        KernelCase{2, 1, 3, 3, 1, 13, 8},
        KernelCase{3, 7, 3, 3, 2, 11, 11},
        KernelCase{1, 9, 3, 3, 1, 10, 7},
        KernelCase{2, 33, 3, 3, 1, 9, 12},
        // Padding beyond the kernel at stride 2: edge windows hold no
        // in-bounds tap and reduce to the bias.
        KernelCase{2, 9, 3, 2, 4, 5, 5}));

// The stride-1 blocked path: output channels below, inside and past the
// eight-channel block ({1, 7, 9, 17}) for 1, 3 and 8 input channels, and
// interior widths 1-10 around the 4/8-cell vector width, so the guarded
// narrow span, the single block, and the overlapped last block all run.
// Heights vary so border rows with one and two window rows show up too.
std::vector<KernelCase> stride1_block_cases() {
  std::vector<KernelCase> cases;
  for (const std::size_t oc : {1, 7, 9, 17}) {
    for (const std::size_t ic : {1, 3, 8}) {
      for (std::size_t interior = 1; interior <= 10; ++interior) {
        cases.push_back({ic, oc, 3, 1, 1, 2 + interior % 4, interior + 2});
      }
    }
  }
  // Padding 0 (no border column) and 2 (border rows with a single window
  // row) around the vector widths.
  for (const std::size_t w : {6, 7, 10, 11, 13}) {
    cases.push_back({2, 9, 3, 1, 0, 5, w});
    cases.push_back({3, 9, 3, 1, 2, 4, w});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Stride1Blocks, ConvKernelEquivalence,
                         ::testing::ValuesIn(stride1_block_cases()));

// A row range holding only a border row: the blocked path clips the window
// rows (one or two of three) and must write that row alone.
TEST(ConvKernelBorderRowTest, SimdBorderRowAloneMatchesReference) {
  for (const std::size_t padding : {1, 2}) {
    for (const std::size_t oc : {1, 8, 9}) {
      Conv2dSpec spec;
      spec.in_channels = 2;
      spec.out_channels = oc;
      spec.padding = padding;
      util::Rng rng(oc * 7 + padding);
      const Tensor input = random_tensor({2, 9, 21}, rng);
      const Tensor weight = random_tensor({oc, 2, 3, 3}, rng);
      const Tensor bias = random_tensor({oc}, rng);
      const std::size_t oh = spec.out_extent(9), ow = spec.out_extent(21);
      for (const std::size_t row : {std::size_t{0}, padding - 1, oh - padding,
                                    oh - 1}) {
        const float sentinel = 7.75f;
        Tensor simd = Tensor::full({oc, oh, ow}, sentinel);
        Tensor reference = Tensor::full({oc, oh, ow}, sentinel);
        conv2d_rows_simd(input, weight, bias, spec, row, row + 1, simd);
        conv2d_rows_reference(input, weight, bias, spec, row, row + 1,
                              reference);
        EXPECT_TRUE(simd.equals(reference))
            << "p=" << padding << " oc=" << oc << " row=" << row;
      }
    }
  }
}

// The stems' fused ReLU + 2x2 max pool against the two-pass form, bit for
// bit: NaN, signed zeros, infinities and denormals sprinkled in, odd
// extents (a dropped last row/column), widths below and around the 4-cell
// vector step, and a row sub-range that must leave other rows and the
// input untouched.
TEST(ReluMaxPoolKernelTest, FusedMatchesTwoPassBitwise) {
  util::Rng rng(3031);
  const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                            -0.0f,
                            0.0f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            -std::numeric_limits<float>::denorm_min()};
  for (const auto& [h, w] : std::vector<std::pair<std::size_t, std::size_t>>{
           {2, 2}, {3, 5}, {4, 8}, {5, 9}, {6, 16}, {7, 17}, {48, 48}}) {
    Tensor input = random_tensor({3, h, w}, rng);
    for (std::size_t i = 0; i < input.numel(); i += 5) {
      input[i] = specials[(i / 5) % std::size(specials)];
    }
    const Tensor before = input;
    const Tensor expected = maxpool2x2(relu(input));
    const std::size_t oh = h / 2, ow = w / 2;
    Tensor fused = Tensor::full({3, oh, ow}, 9.5f);
    relu_maxpool2x2_rows(input, 0, oh, fused);
    ASSERT_EQ(std::memcmp(fused.data(), expected.data(),
                          expected.numel() * sizeof(float)),
              0)
        << h << "x" << w;
    ASSERT_EQ(std::memcmp(input.data(), before.data(),
                          input.numel() * sizeof(float)),
              0);

    Tensor partial = Tensor::full({3, oh, ow}, 9.5f);
    const std::size_t row_begin = oh / 2, row_end = oh;
    relu_maxpool2x2_rows(input, row_begin, row_end, partial);
    for (std::size_t ch = 0; ch < 3; ++ch) {
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float want =
              oy >= row_begin ? expected.at(ch, oy, ox) : 9.5f;
          ASSERT_EQ(std::bit_cast<std::uint32_t>(partial.at(ch, oy, ox)),
                    std::bit_cast<std::uint32_t>(want));
        }
      }
    }
  }
}

// End-to-end pin of the stem kernel path: F of a fixed seed-2022 frame
// (4 sensors × 8 channels, 24x24) must reproduce the float bits the scalar
// kernels produced — an FNV-1a hash over every value's bits plus sampled
// cells. Every backend is bitwise equal, so the pin holds for any
// StemConfig::backend.
TEST(StemGoldenTest, GateFeaturesMatchGoldenBits) {
  dataset::DatasetConfig config;  // seed 2022
  const dataset::Frame frame =
      dataset::generate_frame(dataset::SceneType::kRain, config, 0);
  const Tensor features = core::StemBank().gate_features(frame);
  ASSERT_EQ(features.shape(), (Shape{32, 24, 24}));
  std::uint64_t hash = 1469598103934665603ull;
  for (std::size_t i = 0; i < features.numel(); ++i) {
    const auto bits = std::bit_cast<std::uint32_t>(features[i]);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFFu;
      hash *= 1099511628211ull;
    }
  }
  EXPECT_EQ(hash, 0x825AE59892152162ull);
  const std::size_t plane = 24 * 24;
  const auto bits_at = [&](std::size_t channel, std::size_t cell) {
    return std::bit_cast<std::uint32_t>(features[channel * plane + cell]);
  };
  // Corner and centre cells across the four sensors' channel blocks.
  EXPECT_EQ(bits_at(0, 0), 0x3D8C35FEu);
  EXPECT_EQ(bits_at(2, 575), 0x3F0F8E97u);
  EXPECT_EQ(bits_at(8, 300), 0x3EE50B58u);
  EXPECT_EQ(bits_at(13, 300), 0x3FDD05FEu);
  EXPECT_EQ(bits_at(18, 0), 0x3DF348C0u);
  EXPECT_EQ(bits_at(23, 575), 0x3BDB1927u);
  EXPECT_EQ(bits_at(25, 575), 0x3E434743u);
  EXPECT_EQ(bits_at(31, 575), 0x3F0989C6u);
}

TEST(BoxBlurKernelTest, FastMatchesReferenceBitwise) {
  util::Rng rng(4242);
  // Widths straddle the 4-lane interior sweep: below one vector, exact
  // multiples, and every tail residue.
  for (const auto& [h, w] : std::vector<std::pair<std::size_t, std::size_t>>{
           {1, 1}, {1, 8}, {8, 1}, {2, 2}, {3, 3}, {3, 4}, {3, 5}, {4, 6},
           {4, 7}, {5, 9}, {48, 48}}) {
    const Tensor grid = random_tensor({1, h, w}, rng, 0.0f, 1.0f);
    Tensor fast, reference, simd, dispatched;
    detect::box_blur3_into_fast(grid, fast);
    detect::box_blur3_into_reference(grid, reference);
    detect::box_blur3_into_simd(grid, simd);
    detect::box_blur3_into(grid, dispatched);
    EXPECT_TRUE(fast.equals(reference)) << h << "x" << w;
    EXPECT_TRUE(simd.equals(reference)) << h << "x" << w;
    EXPECT_TRUE(dispatched.equals(reference)) << h << "x" << w;
  }
}

TEST(AnchorContrastPassTest, SimdSweepMatchesScalarChain) {
  util::Rng rng(77321);
  // Odd extents so the anchor count is not a multiple of the vector width
  // and plenty of anchors clip at the border (invalid geometry lanes take
  // the scalar fallback).
  for (const auto& [h, w] : std::vector<std::pair<std::size_t, std::size_t>>{
           {9, 11}, {48, 48}}) {
    const Tensor grid = random_tensor({1, h, w}, rng, 0.0f, 1.0f);
    detect::ScanPlanKey key;
    key.height = h;
    key.width = w;
    const detect::ScanPlan plan = detect::build_scan_plan(key);
    ASSERT_FALSE(plan.anchors.empty());
    detect::IntegralImage integral(grid);
    std::vector<double> simd(plan.anchors.size());
    detect::detail::anchor_contrast_pass_simd(
        integral.table(), plan.geometry.data(), plan.anchors.size(),
        simd.data());
    for (std::size_t i = 0; i < plan.anchors.size(); ++i) {
      // The exact scalar chain propose_with_plan runs on non-simd backends.
      const detect::AnchorGeometry& g = plan.geometry[i];
      const double inner_sum =
          g.inner_valid
              ? integral.flat_sum(g.inner00, g.inner01, g.inner10, g.inner11)
              : 0.0;
      const double ring_sum =
          g.ring_valid
              ? integral.flat_sum(g.ring00, g.ring01, g.ring10, g.ring11)
              : 0.0;
      const double inside =
          g.inner_area > 0.0f ? inner_sum / g.inner_area : 0.0;
      const double ring_area = g.ring_area;
      const double background =
          ring_area > 0.0 ? (ring_sum - inner_sum) / ring_area : 0.0;
      ASSERT_EQ(simd[i], inside - background)
          << h << "x" << w << " anchor " << i;
    }
  }
}

// Full proposal pass per backend: pinning the whole plumbed path (blur,
// integral, contrast sweep, NMS, top-k) bitwise across backends.
TEST(RpnBackendTest, ProposalsBitwiseInvariantAcrossBackends) {
  util::Rng rng(6001);
  const Tensor grid = random_tensor({1, 48, 48}, rng, 0.0f, 1.0f);
  detect::RpnConfig reference_config;
  reference_config.backend = Backend::kReference;
  const auto reference =
      detect::Rpn(reference_config).propose(grid);
  for (const Backend backend : {Backend::kFast, Backend::kSimd}) {
    detect::RpnConfig config;
    config.backend = backend;
    detect::ScanScratch scratch;
    const auto proposals = detect::Rpn(config).propose(grid, &scratch);
    ASSERT_EQ(proposals.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(proposals[i].box.x1, reference[i].box.x1);
      EXPECT_EQ(proposals[i].box.y1, reference[i].box.y1);
      EXPECT_EQ(proposals[i].box.x2, reference[i].box.x2);
      EXPECT_EQ(proposals[i].box.y2, reference[i].box.y2);
      EXPECT_EQ(proposals[i].objectness, reference[i].objectness);
    }
  }
}

TEST(IntegralImageKernelTest, PointerWalkMatchesDirectPrefixSums) {
  util::Rng rng(515);
  const std::size_t h = 13, w = 29;
  const Tensor grid = random_tensor({1, h, w}, rng, 0.0f, 2.0f);
  detect::IntegralImage integral(grid);
  // Recompute the cumulative table exactly as the original scalar loop did
  // and compare through box_sum lookups over every prefix rectangle.
  std::vector<double> table((h + 1) * (w + 1), 0.0);
  for (std::size_t y = 0; y < h; ++y) {
    double row = 0.0;
    for (std::size_t x = 0; x < w; ++x) {
      row += grid.data()[y * w + x];
      table[(y + 1) * (w + 1) + (x + 1)] = table[y * (w + 1) + (x + 1)] + row;
    }
  }
  for (std::size_t y = 1; y <= h; ++y) {
    for (std::size_t x = 1; x <= w; ++x) {
      detect::Box box;
      box.x1 = 0.0f;
      box.y1 = 0.0f;
      box.x2 = static_cast<float>(x);
      box.y2 = static_cast<float>(y);
      ASSERT_EQ(integral.box_sum(box), table[y * (w + 1) + x]);
    }
  }
}

// The RPN scores every anchor through its scan plan's precomputed geometry
// (clamped integral-table offsets and areas). This pins that geometry to the
// clip/clamp semantics of IntegralImage::box_sum: for every anchor, the
// plan's flat_sum over the inner box and the ring equals box_sum over the
// clipped boxes, and the stored areas equal the clipped boxes' areas. The
// extents cover a square grid, an odd non-square one, and one smaller than
// most anchor templates (every anchor clipped).
TEST(AnchorGeometryTest, PlanSumsMatchClippedBoxSums) {
  util::Rng rng(8080);
  const detect::RpnConfig config;
  for (const auto& [h, w] : {std::pair<std::size_t, std::size_t>{24, 24},
                             {23, 31},
                             {5, 5}}) {
    const Tensor grid = random_tensor({1, h, w}, rng, 0.0f, 1.0f);
    const detect::IntegralImage integral(grid);
    const detect::ScanPlan plan =
        detect::build_scan_plan(detect::ScanPlanKey{h, w, config});
    const std::vector<detect::Box> anchors =
        detect::generate_anchors(h, w, config.anchors);
    ASSERT_EQ(plan.anchors.size(), anchors.size());
    ASSERT_EQ(plan.geometry.size(), anchors.size());
    ASSERT_FALSE(plan.anchors.empty()) << h << "x" << w;
    const auto limit_w = static_cast<float>(w);
    const auto limit_h = static_cast<float>(h);
    for (std::size_t i = 0; i < plan.anchors.size(); ++i) {
      const detect::Box& anchor = plan.anchors[i];
      ASSERT_TRUE(anchor.x1 == anchors[i].x1 && anchor.y1 == anchors[i].y1 &&
                  anchor.x2 == anchors[i].x2 && anchor.y2 == anchors[i].y2)
          << h << "x" << w << " anchor " << i;
      const detect::AnchorGeometry& g = plan.geometry[i];
      const detect::Box inner = anchor.clipped(limit_w, limit_h);
      detect::Box ring = anchor;
      ring.x1 -= config.ring;
      ring.y1 -= config.ring;
      ring.x2 += config.ring;
      ring.y2 += config.ring;
      ring = ring.clipped(limit_w, limit_h);
      const double inner_sum =
          g.inner_valid
              ? integral.flat_sum(g.inner00, g.inner01, g.inner10, g.inner11)
              : 0.0;
      const double ring_sum =
          g.ring_valid
              ? integral.flat_sum(g.ring00, g.ring01, g.ring10, g.ring11)
              : 0.0;
      ASSERT_EQ(inner_sum, integral.box_sum(inner))
          << h << "x" << w << " anchor " << i;
      ASSERT_EQ(ring_sum, integral.box_sum(ring))
          << h << "x" << w << " anchor " << i;
      ASSERT_EQ(g.inner_area, inner.area()) << h << "x" << w << " anchor " << i;
      ASSERT_EQ(g.ring_area, ring.area() - inner.area())
          << h << "x" << w << " anchor " << i;
    }
  }
}

}  // namespace
}  // namespace eco::tensor
