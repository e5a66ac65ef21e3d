// Read-once ECO_* environment variables.
//
// Nothing in the library reads the environment to decide what it computes:
// kernel backends, stealing, window pipelining and prefetch depth are
// config fields only. What remains are observability and bench settings
// (ECO_TRACE, ECO_TRACE_PATH, ECO_TRACE_CAPACITY, ECO_BASELINE_FPS,
// ECO_INGEST_MIN_SPEEDUP), and they share one contract: each variable is
// read and parsed exactly once per process, so a setting can never change
// mid-run and every consumer observes the same value.
//
// All functions are safe to call concurrently and from static initializers.
#pragma once

#include <cstddef>
#include <string>

namespace eco::util {

/// The cached raw value of environment variable `name`, or nullptr when the
/// variable is unset. The first call per name snapshots the environment;
/// later calls (any thread) return the same pointer, which stays valid for
/// the life of the process.
[[nodiscard]] const std::string* env_value(const char* name);

/// True when `name` is set to an affirmative value: "1", "true" or "on"
/// (the ECO_TRACE convention).
[[nodiscard]] bool env_enabled(const char* name);

/// Unsigned decimal value of `name`, or `fallback` when unset or "0".
/// Throws std::invalid_argument naming the variable when it is set to
/// anything else that is not a whole unsigned decimal number ("abc", "12x",
/// "-3", "").
[[nodiscard]] std::size_t env_size_or(const char* name, std::size_t fallback);

/// Double value of `name`, or `fallback` when unset or not positive.
/// Throws std::invalid_argument naming the variable when the whole value
/// does not parse as a number ("abc", "1.5x", "").
[[nodiscard]] double env_double_or(const char* name, double fallback);

/// String value of `name`, or `fallback` when unset.
[[nodiscard]] std::string env_string_or(const char* name,
                                        const std::string& fallback);

}  // namespace eco::util
