#include "exec/stem_cache.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace eco::exec {

namespace {

/// Dirty row interval [first, last] of `next` vs `prev` (same (1,H,W)
/// shape), or false if the grids are identical. Rows are compared bytewise:
/// float payloads are produced deterministically, so bit equality is value
/// equality here (a NaN row equals only its own bits).
bool dirty_rows(const tensor::Tensor& prev, const tensor::Tensor& next,
                std::size_t& first, std::size_t& last) {
  const std::size_t h = next.size(1), w = next.size(2);
  const float* a = prev.data();
  const float* b = next.data();
  const auto row_differs = [&](std::size_t y) {
    return std::memcmp(a + y * w, b + y * w, w * sizeof(float)) != 0;
  };
  std::size_t lo = 0;
  while (lo < h && !row_differs(lo)) ++lo;
  if (lo == h) return false;
  std::size_t hi = h - 1;
  while (hi > lo && !row_differs(hi)) --hi;
  first = lo;
  last = hi;
  return true;
}

}  // namespace

TemporalStemCache::TemporalStemCache(const core::StemBank& stems,
                                     StemCacheConfig config)
    : stems_(stems), config_(config) {
  if (config_.max_sequences == 0) config_.max_sequences = 1;
}

tensor::Tensor TemporalStemCache::gate_features(std::uint64_t sequence_id,
                                                const dataset::Frame& frame,
                                                bool* hit) {
  return *lease_gate_features(sequence_id, frame, hit);
}

void TemporalStemCache::BufferReturn::operator()(
    tensor::Tensor* buffer) const noexcept {
  std::unique_ptr<tensor::Tensor> owned(buffer);
  if (cache == nullptr || owned == nullptr) return;
  try {
    std::lock_guard<std::mutex> lock(cache->mutex_);
    cache->spare_buffers_.push_back(std::move(owned));
  } catch (...) {
    // The pool could not grow; `owned` frees the buffer instead.
  }
}

TemporalStemCache::Features TemporalStemCache::lease_gate_features(
    std::uint64_t sequence_id, const dataset::Frame& frame, bool* hit) {
  std::unique_ptr<Entry> entry;
  std::unique_ptr<tensor::Tensor> buffer;
  bool was_hit = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(sequence_id);
    if (it != entries_.end() && it->second != nullptr) {
      entry = std::move(it->second);  // checked out until the store below
      was_hit = true;
    } else if (!spare_.empty()) {
      entry = std::move(spare_.back());
      spare_.pop_back();
    }
    if (!spare_buffers_.empty()) {
      buffer = std::move(spare_buffers_.back());
      spare_buffers_.pop_back();
    }
  }
  if (entry == nullptr) entry = std::make_unique<Entry>();
  if (buffer == nullptr) buffer = std::make_unique<tensor::Tensor>();

  // The F buffer is the conv scratch of the four sensors in turn, then
  // holds F (four sensors' 2x2-pooled maps: the same element count as one
  // conv output, so the buffer never grows once warm).
  tensor::Tensor& f_buffer = *buffer;
  std::uint64_t refreshed = 0, reused = 0;
  std::vector<const tensor::Tensor*> parts;
  parts.reserve(dataset::kNumSensors);
  for (dataset::SensorKind kind : dataset::all_sensor_kinds()) {
    const auto s = static_cast<std::size_t>(kind);
    const tensor::Tensor& grid = frame.grid(kind);
    tensor::Tensor& cached_grid = entry->grids[s];
    tensor::Tensor& features = entry->features[s];
    parts.push_back(&features);
    if (!was_hit || cached_grid.shape() != grid.shape()) {
      // Unknown sequence (or new extent): full recompute into the entry.
      features.resize(stems_.feature_shape(grid));
      stems_.refresh_feature_rows(kind, grid, 0, features.size(1), features,
                                  f_buffer);
      cached_grid = grid;
      continue;
    }
    std::size_t first = 0, last = 0;
    if (!dirty_rows(cached_grid, grid, first, last)) {
      ++reused;
      continue;
    }
    // A dirty input row y reaches conv rows y-1..y+1 (3x3, pad 1, stride 1)
    // and pooled row p covers conv rows 2p..2p+1, so the affected pooled
    // interval is [(first-1)/2, (last+1)/2].
    const std::size_t pooled_h = features.size(1);
    const std::size_t p0 = (first > 0 ? first - 1 : 0) / 2;
    const std::size_t p1 = std::min(pooled_h - 1, (last + 1) / 2);
    stems_.refresh_feature_rows(kind, grid, p0, p1 + 1, features,
                                f_buffer);
    refreshed += static_cast<std::uint64_t>(p1 + 1 - p0);
    cached_grid = grid;
  }
  f_buffer.resize({stems_.gate_channels(), parts.front()->size(1),
                   parts.front()->size(2)});
  tensor::concat_channels_into(parts, f_buffer);

  if (hit != nullptr) *hit = was_hit;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (was_hit) {
      counters_.hits += 1;
      counters_.refreshed_rows += refreshed;
      counters_.reused_sensor_maps += reused;
    } else {
      counters_.misses += 1;
    }
    auto [it, inserted] = entries_.try_emplace(sequence_id);
    // A concurrent frame of this sequence stored first: the later store
    // wins, as a re-store always did.
    recycle(std::move(it->second));
    it->second = std::move(entry);
    if (inserted) {
      insertion_order_.push_back(sequence_id);
      while (entries_.size() > config_.max_sequences &&
             !insertion_order_.empty()) {
        const std::uint64_t victim = insertion_order_.front();
        insertion_order_.pop_front();
        if (victim == sequence_id) continue;
        auto v = entries_.find(victim);
        if (v == entries_.end()) continue;
        recycle(std::move(v->second));
        entries_.erase(v);
      }
    }
  }
  return Features(buffer.release(), BufferReturn{this});
}

void TemporalStemCache::recycle(std::unique_ptr<Entry> entry) {
  if (entry != nullptr) spare_.push_back(std::move(entry));
}

void TemporalStemCache::retain(const std::vector<std::uint64_t>& live) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto is_live = [&](std::uint64_t id) {
    return std::find(live.begin(), live.end(), id) != live.end();
  };
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (is_live(it->first)) {
      ++it;
    } else {
      recycle(std::move(it->second));
      it = entries_.erase(it);
    }
  }
  std::erase_if(insertion_order_,
                [&](std::uint64_t id) { return !is_live(id); });
}

StemCacheCounters TemporalStemCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

}  // namespace eco::exec
