#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "gating/knowledge_gate.hpp"
#include "gating/learned_gate.hpp"
#include "gating/loss_gate.hpp"
#include "util/rng.hpp"

namespace eco::gating {
namespace {

TEST(KnowledgeGateTest, PinsTableEntryPerScene) {
  KnowledgeTable table{};
  table[static_cast<std::size_t>(dataset::SceneType::kFog)] = 3;
  table[static_cast<std::size_t>(dataset::SceneType::kCity)] = 1;
  KnowledgeGate gate(table, 5);

  GateInput input;
  input.scene = dataset::SceneType::kFog;
  const auto fog_losses = gate.predict_losses(input);
  EXPECT_EQ(fog_losses.size(), 5u);
  EXPECT_FLOAT_EQ(fog_losses[3], 0.0f);
  EXPECT_GT(fog_losses[0], 1e5f);

  input.scene = dataset::SceneType::kCity;
  EXPECT_FLOAT_EQ(gate.predict_losses(input)[1], 0.0f);
  EXPECT_EQ(gate.choice_for(dataset::SceneType::kCity), 1u);
}

TEST(KnowledgeGateTest, PropertiesMatchPaper) {
  KnowledgeGate gate(KnowledgeTable{}, 3);
  EXPECT_FALSE(gate.tunable());       // §5.1: not tunable by λ_E
  EXPECT_FALSE(gate.needs_oracle());
  EXPECT_EQ(gate.name(), "Knowledge");
  EXPECT_EQ(gate.complexity(), energy::GateComplexity::kKnowledge);
}

TEST(KnowledgeGateTest, RejectsOutOfRangeChoices) {
  KnowledgeTable table{};
  table[0] = 7;
  EXPECT_THROW(KnowledgeGate(table, 5), std::invalid_argument);
}

TEST(LossBasedGateTest, ReturnsOracleLossesVerbatim) {
  LossBasedGate gate(3);
  const std::vector<float> oracle = {0.5f, 0.2f, 0.9f};
  GateInput input;
  input.oracle_losses = &oracle;
  EXPECT_EQ(gate.predict_losses(input), oracle);
  EXPECT_TRUE(gate.needs_oracle());
  EXPECT_EQ(gate.name(), "Loss-Based");
}

TEST(LossBasedGateTest, MissingOracleThrows) {
  LossBasedGate gate(3);
  GateInput input;
  EXPECT_THROW((void)gate.predict_losses(input), std::invalid_argument);
  const std::vector<float> wrong_arity = {0.1f};
  input.oracle_losses = &wrong_arity;
  EXPECT_THROW((void)gate.predict_losses(input), std::invalid_argument);
}

LearnedGateConfig small_gate_config(bool attention) {
  LearnedGateConfig config;
  config.in_channels = 8;
  config.in_height = 16;
  config.in_width = 16;
  config.hidden_channels = 8;
  config.mlp_hidden = 16;
  config.num_configs = 4;
  config.use_attention = attention;
  return config;
}

TEST(LearnedGateTest, OutputArityMatchesConfigSpace) {
  LearnedGate gate(small_gate_config(false));
  tensor::Tensor features({8, 16, 16});
  const auto out = gate.forward(features);
  EXPECT_EQ(out.numel(), 4u);
  GateInput input;
  input.features = &features;
  EXPECT_EQ(gate.predict_losses(input).size(), 4u);
}

TEST(LearnedGateTest, NamesAndComplexityReflectVariant) {
  LearnedGate deep(small_gate_config(false));
  LearnedGate attention(small_gate_config(true));
  EXPECT_EQ(deep.name(), "Deep");
  EXPECT_EQ(attention.name(), "Attention");
  EXPECT_EQ(deep.complexity(), energy::GateComplexity::kDeep);
  EXPECT_EQ(attention.complexity(), energy::GateComplexity::kAttention);
  // The attention variant has strictly more parameters.
  EXPECT_GT(attention.parameters().size(), deep.parameters().size());
}

TEST(LearnedGateTest, MissingFeaturesThrows) {
  LearnedGate gate(small_gate_config(false));
  GateInput input;
  EXPECT_THROW((void)gate.predict_losses(input), std::invalid_argument);
}

TEST(LearnedGateTest, WrongFeatureShapeThrows) {
  LearnedGate gate(small_gate_config(false));
  tensor::Tensor bad({4, 16, 16});
  EXPECT_THROW((void)gate.forward(bad), std::invalid_argument);
}

TEST(LearnedGateTest, TrainingStepValidatesTargets) {
  LearnedGate gate(small_gate_config(false));
  tensor::Tensor features({8, 16, 16});
  EXPECT_THROW((void)gate.training_step(features, {1.0f}),
               std::invalid_argument);
}

TEST(LearnedGateTest, DeterministicForSameSeed) {
  LearnedGate a(small_gate_config(true)), b(small_gate_config(true));
  util::Rng rng(3);
  tensor::Tensor features({8, 16, 16});
  for (auto& v : features.vec()) v = rng.uniform_f(0.0f, 1.0f);
  EXPECT_TRUE(a.forward(features).allclose(b.forward(features)));
}

// End-to-end pin of the learned gates' kernel path: the full-size Deep and
// Attention gates (32-channel 24x24 F, three stride-2 3x3 convs, 15
// configurations) on a fixed input must reproduce these float bits, which
// the scalar conv kernels produced. Every backend is bitwise equal,
// so the pin holds for reference, fast and simd alike.
std::vector<std::uint32_t> gate_output_bits(bool attention) {
  LearnedGateConfig config;
  config.use_attention = attention;
  LearnedGate gate(config);
  util::Rng rng(2022);
  tensor::Tensor features(
      {config.in_channels, config.in_height, config.in_width});
  for (auto& v : features.vec()) v = rng.uniform_f(0.0f, 1.0f);
  GateInput input;
  input.features = &features;
  std::vector<std::uint32_t> bits;
  for (const float loss : gate.predict_losses(input)) {
    bits.push_back(std::bit_cast<std::uint32_t>(loss));
  }
  return bits;
}

TEST(LearnedGateTest, DeepPredictionsMatchGoldenBits) {
  const std::vector<std::uint32_t> golden = {
      0xBF4898F7u, 0x3F325E73u, 0xBF4726F3u, 0x3EC31069u, 0x3E430CA9u,
      0x3F1BCBCCu, 0xBD812813u, 0xBEE4A5D4u, 0x3F38AA19u, 0xBE085929u,
      0x3EFBB42Bu, 0x3EC7F96Bu, 0x3E4EA5A1u, 0x3F93B48Fu, 0xBD8D076Du};
  EXPECT_EQ(gate_output_bits(false), golden);
}

TEST(LearnedGateTest, AttentionPredictionsMatchGoldenBits) {
  const std::vector<std::uint32_t> golden = {
      0xBFA83DAFu, 0x3F4FBFBCu, 0x3F8D4414u, 0x3E26E010u, 0x3FB91DD8u,
      0x3FF17206u, 0x3E3F1A3Cu, 0xBFCDB23Du, 0x3F8CC802u, 0x3FEF5288u,
      0x3F213816u, 0xBF56E5A8u, 0xBEF0A89Eu, 0xBFE19BFCu, 0x3FD93095u};
  EXPECT_EQ(gate_output_bits(true), golden);
}

}  // namespace
}  // namespace eco::gating
