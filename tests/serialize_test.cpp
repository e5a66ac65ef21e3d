#include "tensor/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "gating/learned_gate.hpp"
#include "util/rng.hpp"

namespace eco::tensor {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(SerializeTest, RoundTripPreservesValues) {
  util::Rng rng(3);
  Linear a(4, 3, rng), b(4, 3, rng);
  std::vector<Param*> pa, pb;
  a.collect_params(pa);
  b.collect_params(pb);
  ASSERT_FALSE(pa[0]->value.allclose(pb[0]->value));  // different init

  const std::string path = temp_path("eco_serialize_roundtrip.bin");
  ASSERT_TRUE(save_params(pa, path));
  ASSERT_TRUE(load_params(pb, path));
  EXPECT_TRUE(pa[0]->value.allclose(pb[0]->value));
  EXPECT_TRUE(pa[1]->value.allclose(pb[1]->value));
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  util::Rng rng(5);
  Linear a(2, 2, rng);
  std::vector<Param*> pa;
  a.collect_params(pa);
  EXPECT_FALSE(load_params(pa, "/nonexistent/dir/weights.bin"));
}

TEST(SerializeTest, CorruptMagicFails) {
  const std::string path = temp_path("eco_serialize_corrupt.bin");
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOT_A_WEIGHT_FILE", f);
    std::fclose(f);
  }
  util::Rng rng(6);
  Linear a(2, 2, rng);
  std::vector<Param*> pa;
  a.collect_params(pa);
  EXPECT_FALSE(load_params(pa, path));
  std::remove(path.c_str());
}

/// Bitwise copies of every parameter value, for memcmp after a load.
std::vector<std::vector<float>> snapshot(const std::vector<Param*>& params) {
  std::vector<std::vector<float>> out;
  for (const Param* p : params) out.push_back(p->value.vec());
  return out;
}

void expect_unchanged(const std::vector<Param*>& params,
                      const std::vector<std::vector<float>>& before) {
  ASSERT_EQ(params.size(), before.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->value.numel(), before[i].size());
    EXPECT_EQ(std::memcmp(params[i]->value.data(), before[i].data(),
                          before[i].size() * sizeof(float)),
              0)
        << "param " << i << " changed by a failed load";
  }
}

// A shape mismatch fails the load. At the second parameter it fails
// without having written the first.
TEST(SerializeTest, ShapeMismatchFails) {
  util::Rng rng(4);
  Linear a(4, 3, rng);
  Linear c(5, 3, rng);  // different in_features
  std::vector<Param*> pa, pc;
  a.collect_params(pa);
  c.collect_params(pc);
  const std::string path = temp_path("eco_serialize_mismatch.bin");
  ASSERT_TRUE(save_params(pa, path));
  EXPECT_FALSE(load_params(pc, path));

  Param first{"first", Tensor({3, 4}), Tensor()};
  Param second{"second", Tensor({5}), Tensor()};
  for (float& v : first.value.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  for (float& v : second.value.vec()) v = rng.uniform_f(-1.0f, 1.0f);
  ASSERT_TRUE(save_params({&first, &second}, path));
  Param first_target{"first", Tensor({3, 4}), Tensor()};
  Param second_target{"second", Tensor({6}), Tensor()};
  for (float& v : first_target.value.vec()) v = rng.uniform_f(2.0f, 3.0f);
  const std::vector<Param*> target{&first_target, &second_target};
  const auto before = snapshot(target);
  EXPECT_FALSE(load_params(target, path));
  expect_unchanged(target, before);
  std::remove(path.c_str());
}

// A failed load must not corrupt the model. Every rejected file leaves each
// parameter bitwise as it was: the checkpoint cut at ANY byte offset, the
// checkpoint with bytes after its last tensor, and a checkpoint of the same
// shapes whose parameters carry other names (a file for another model).
TEST(SerializeTest, RejectedFileLeavesParamsUntouched) {
  util::Rng rng(11);
  Linear a1(4, 3, rng), a2(3, 2, rng);
  std::vector<Param*> source;
  a1.collect_params(source);
  a2.collect_params(source);
  const std::string path = temp_path("eco_serialize_full.bin");
  ASSERT_TRUE(save_params(source, path));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 16u);

  Linear b1(4, 3, rng), b2(3, 2, rng);
  std::vector<Param*> target;
  b1.collect_params(target);
  b2.collect_params(target);
  // Nonzero values everywhere (biases included), distinct from the source,
  // so any partial write is visible.
  for (Param* p : target) {
    for (float& v : p->value.vec()) v = rng.uniform_f(2.0f, 3.0f);
  }
  const auto before = snapshot(target);

  std::vector<std::pair<std::string, std::string>> rejected;  // label, file
  for (std::size_t offset = 0; offset < bytes.size(); ++offset) {
    rejected.emplace_back("truncated at byte " + std::to_string(offset),
                          bytes.substr(0, offset));
  }
  rejected.emplace_back("16 bytes appended", bytes + std::string(16, 'Z'));
  {
    std::vector<Param> renamed;
    for (const Param* p : source) {
      renamed.push_back(Param{"renamed_" + p->name, p->value, Tensor()});
    }
    std::vector<Param*> renamed_ptrs;
    for (Param& p : renamed) renamed_ptrs.push_back(&p);
    const std::string renamed_path = temp_path("eco_serialize_renamed.bin");
    ASSERT_TRUE(save_params(renamed_ptrs, renamed_path));
    std::ifstream in(renamed_path, std::ios::binary);
    rejected.emplace_back("renamed params",
                          std::string(std::istreambuf_iterator<char>(in),
                                      std::istreambuf_iterator<char>()));
    std::remove(renamed_path.c_str());
  }

  const std::string cut_path = temp_path("eco_serialize_cut.bin");
  for (const auto& [label, file] : rejected) {
    {
      std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
      out.write(file.data(), static_cast<std::streamsize>(file.size()));
    }
    SCOPED_TRACE(label);
    EXPECT_FALSE(load_params(target, cut_path));
    expect_unchanged(target, before);
  }
  // The intact file still loads.
  ASSERT_TRUE(load_params(target, path));
  for (std::size_t i = 0; i < target.size(); ++i) {
    EXPECT_EQ(target[i]->value.vec(), source[i]->value.vec());
  }
  std::remove(cut_path.c_str());
  std::remove(path.c_str());
}

TEST(SerializeTest, GateCheckpointRoundTrip) {
  gating::LearnedGateConfig config;
  config.in_channels = 8;
  config.in_height = 8;
  config.in_width = 8;
  config.num_configs = 5;
  gating::LearnedGate gate_a(config);
  config.seed = 999;  // different init
  gating::LearnedGate gate_b(config);

  const std::string path = temp_path("eco_gate_ckpt.bin");
  ASSERT_TRUE(save_params(gate_a.parameters(), path));
  ASSERT_TRUE(load_params(gate_b.parameters(), path));

  // Same weights -> same predictions.
  Tensor features({8, 8, 8});
  util::Rng rng(7);
  for (auto& v : features.vec()) v = rng.uniform_f(0.0f, 1.0f);
  EXPECT_TRUE(gate_a.forward(features).allclose(gate_b.forward(features)));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace eco::tensor
