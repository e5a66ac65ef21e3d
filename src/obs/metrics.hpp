// Named counters/gauges and fixed-bucket log₂ histograms.
//
// The runtime's determinism contract splits telemetry into two families:
// *modeled* values (modeled latency, batch sizes, scan dedup ratios)
// that must stay bitwise identical across worker and shard counts, and
// *wall-clock* values that are observability-only. Histograms here
// serve both, because the representation is deterministic by construction:
//
//   * Bucketing uses the value's binary exponent (std::frexp) — bucket i
//     covers [2^(i+kMinExp-1), 2^(i+kMinExp)) — so a value maps to the same
//     bucket on every platform, with no floating-point log in sight.
//   * A histogram is just bucket counts (plus exact-count total and
//     min/max); merging is integer addition, so merging per-shard
//     histograms in any grouping equals building one histogram from the
//     concatenated samples. tests/obs_test.cpp pins that the modeled-
//     latency histogram is invariant to worker count and that the shard
//     merge is exact.
//   * Percentiles interpolate nothing: percentile(p) returns the upper
//     bound of the bucket containing the p-th ranked sample, a pure
//     function of the counts.
//
// The registry is plain single-threaded state. The runtime does not record
// into it from workers; it derives a registry from the per-frame records of
// a finished PipelineReport (stream order — see
// runtime::collect_run_metrics), which keeps the hot path untouched and the
// result trivially deterministic. Naming convention: "modeled/..." metrics
// are covered by the determinism contract, "obs/..." metrics are wall-clock
// observability only.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace eco::obs {

/// Fixed-bucket base-2 logarithmic histogram.
class Histogram {
 public:
  /// Bucket i covers values in [2^(i+kMinExp-1), 2^(i+kMinExp)); values at
  /// or below 0 (and underflows) land in bucket 0, overflows in the top
  /// bucket. kMinExp=-20 puts bucket 0 at ~1e-6 — micro-scale ms values —
  /// and the top bucket at ~8.8e12.
  static constexpr int kMinExp = -20;
  static constexpr std::size_t kBuckets = 64;

  void record(double value) noexcept;

  /// Adds `other`'s counts into this histogram (exact: integer counts,
  /// min/max fold, no floating-point accumulation order to worry about).
  void merge(const Histogram& other) noexcept;

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] double min() const noexcept { return total_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return total_ > 0 ? max_ : 0.0; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return counts_[i];
  }

  /// Upper bound of the bucket holding the p-th ranked sample (p in [0,1]).
  /// 0 for an empty histogram. Deterministic: a pure function of counts.
  [[nodiscard]] double percentile(double p) const noexcept;

  /// The bucket index `value` would land in (exposed for tests).
  [[nodiscard]] static std::size_t bucket_of(double value) noexcept;
  /// Upper bound of bucket i: 2^(i + kMinExp).
  [[nodiscard]] static double bucket_upper(std::size_t i) noexcept;

  friend bool operator==(const Histogram& a, const Histogram& b) noexcept {
    return a.counts_ == b.counts_ && a.total_ == b.total_ &&
           a.min() == b.min() && a.max() == b.max();
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Named metrics for one run (or one shard of a run). Counters are exact
/// integer sums and histograms merge exactly; gauges are point-in-time
/// doubles whose merge keeps the max — meaningful for high-water marks,
/// deliberately NOT for means (cross-shard means come from the merged
/// report's exact stream-order reduction, never from merging gauges).
class MetricsRegistry {
 public:
  void add_counter(const std::string& name, std::uint64_t delta) {
    counters_[name] += delta;
  }
  void set_gauge(const std::string& name, double value) {
    gauges_[name] = value;
  }
  [[nodiscard]] Histogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? nullptr : &it->second;
  }

  /// Exact merge: counters sum, gauges keep the max, histograms add counts.
  void merge(const MetricsRegistry& other);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{"total":..,
  /// "min":..,"max":..,"p50":..,"p95":..,"p99":..,"buckets":{idx:count}}}}
  [[nodiscard]] std::string to_json() const;

  friend bool operator==(const MetricsRegistry& a,
                         const MetricsRegistry& b) noexcept {
    return a.counters_ == b.counters_ && a.gauges_ == b.gauges_ &&
           a.histograms_ == b.histograms_;
  }

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace eco::obs
