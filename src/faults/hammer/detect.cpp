#include "faults/hammer/detect.hpp"

#include <bit>

#include "common/require.hpp"

namespace unp::faults::hammer {

std::size_t HammerRowDetector::KeyIndex::home(
    std::uint64_t key) const noexcept {
  // Fibonacci hashing: the top log2(capacity) bits of key * 2^64/phi.
  return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                  (64 - std::countr_zero(slots_.size())));
}

std::pair<std::uint32_t, bool> HammerRowDetector::KeyIndex::find_or_insert(
    std::uint64_t key, std::uint32_t next) {
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = home(key);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.index_plus_one == 0) {
      slot = {key, next + 1};
      ++size_;
      return {next, true};
    }
    if (slot.key == key) return {slot.index_plus_one - 1, false};
  }
}

void HammerRowDetector::KeyIndex::grow() {
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& slot : old) {
    if (slot.index_plus_one == 0) continue;
    std::size_t i = home(slot.key);
    while (slots_[i].index_plus_one != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

HammerRowDetector::HammerRowDetector(const dram::mapping::DramMapping& mapping,
                                     const DetectorConfig& config)
    : mapping_(mapping), config_(config) {
  UNP_REQUIRE(config_.min_distinct_words >= 1 &&
              config_.min_distinct_words <= kMaxDistinctWords);
}

bool HammerRowDetector::observe(TimePoint time, std::uint64_t word_index) {
  ++observed_;
  const dram::mapping::DramCoordinate c = mapping_.decode(word_index);
  const std::uint64_t key = (std::uint64_t{c.bank} << 48) | c.row;
  const auto [row, new_row] = row_index_.find_or_insert(
      key, static_cast<std::uint32_t>(rows_.size()));
  if (new_row) rows_.emplace_back();
  RowState& state = rows_[row];
  if (words_.find_or_insert(word_index, 0).second) ++state.distinct_words;

  if (state.detection_index >= 0) {
    DetectedRow& detection =
        detections_[static_cast<std::size_t>(state.detection_index)];
    if (time > detection.trigger_time) ++absorbable_;
    detection.distinct_words = state.distinct_words;
    return false;
  }

  // Trailing window: drop stale observations, then insert if the word is
  // new within the window (a repeated word refreshes its timestamp).
  int kept = 0;
  bool fresh = true;
  for (int i = 0; i < state.recent_size; ++i) {
    auto [t, w] = state.recent[static_cast<std::size_t>(i)];
    if (t < time - config_.window_seconds) continue;
    if (w == word_index) {
      t = time;
      fresh = false;
    }
    state.recent[static_cast<std::size_t>(kept++)] = {t, w};
  }
  // Untriggered, the window held < min_distinct_words <= kMaxDistinctWords
  // entries, so one more always fits.
  if (fresh) {
    state.recent[static_cast<std::size_t>(kept++)] = {time, word_index};
  }
  state.recent_size = kept;
  if (state.recent_size < config_.min_distinct_words) return false;
  state.detection_index = static_cast<int>(detections_.size());
  detections_.push_back({c.bank, c.row, time, state.distinct_words});
  return true;
}

}  // namespace unp::faults::hammer
