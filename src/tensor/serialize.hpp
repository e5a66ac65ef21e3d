// Binary weight (de)serialisation so trained gates can be checkpointed and
// reloaded by the examples without retraining.
#pragma once

#include <string>
#include <vector>

#include "tensor/nn.hpp"

namespace eco::tensor {

/// Writes all parameters (shape + data) to a binary file.
/// Format: magic "ECOW", u32 version, u64 count, then per-parameter:
/// u64 name_len, name bytes, u64 ndim, dims..., float32 data.
[[nodiscard]] bool save_params(const std::vector<Param*>& params,
                               const std::string& path);

/// Loads parameters into an existing module structure; the stored names and
/// shapes must match the model's, in order. Returns false on I/O error,
/// magic/version mismatch, a name or shape mismatch, a truncated file, or
/// bytes after the last tensor. All or nothing: on false no parameter has
/// been changed.
[[nodiscard]] bool load_params(const std::vector<Param*>& params,
                               const std::string& path);

}  // namespace eco::tensor
