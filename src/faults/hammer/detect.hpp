// Spatial clustering detector for hammered rows.
//
// Consumes one node's observed faults as (time, word index) pairs in
// nondecreasing time order, maps each to DRAM coordinates, and flags a
// (bank, row) once `min_distinct_words` *distinct* words of that row have
// faulted within a trailing time window.  Time-driven mechanisms scatter
// faults uniformly over ~2^21 (bank, row) cells, so same-row multiplicity
// inside a short window is an access-dependent signature; the thresholds
// below make accidental triggers from the background mechanisms
// negligible while a tripped victim row (a burst of 16+ flips) is caught
// with near certainty.
//
// The detector is a pure function of the observed fault stream - the same
// class drives the live HammerMitigationPolicy, the closed-loop runner and
// the `unp_report --ext hammer` census, so all three agree by construction.
//
// State is flat: rows live in one vector, found through an open-addressing
// index keyed by (bank, row), each with its trailing window inline (before
// a row triggers the window never holds more than `min_distinct_words`
// entries).  Distinct words are counted through one detector-wide word
// set - a word decodes to exactly one row, so that is the per-row census.
// A new row or word costs no allocation beyond amortized table growth.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/civil_time.hpp"
#include "dram/mapping/mapping.hpp"

namespace unp::faults::hammer {

struct DetectorConfig {
  /// Distinct words that trigger a row, in
  /// [1, HammerRowDetector::kMaxDistinctWords].
  int min_distinct_words = 3;
  /// Trailing window within which the distinct words must cluster.
  std::int64_t window_seconds = 6 * 3600;
};

struct DetectedRow {
  std::uint32_t bank = 0;
  std::uint64_t row = 0;
  TimePoint trigger_time = 0;
  int distinct_words = 0;  ///< total distinct words seen by end of stream
};

class HammerRowDetector {
 public:
  /// Cap on DetectorConfig::min_distinct_words (the inline window size).
  static constexpr int kMaxDistinctWords = 4;

  /// Throws ContractViolation unless 1 <= min_distinct_words <=
  /// kMaxDistinctWords.
  HammerRowDetector(const dram::mapping::DramMapping& mapping,
                    const DetectorConfig& config);

  /// Feed one observed fault (times nondecreasing).  Returns true when
  /// this observation newly triggers its row.
  bool observe(TimePoint time, std::uint64_t word_index);

  /// Rows that crossed the threshold, in trigger order.
  [[nodiscard]] const std::vector<DetectedRow>& detections() const noexcept {
    return detections_;
  }

  /// Observed faults that landed on an already-triggered row strictly
  /// after its trigger (what retirement would have absorbed).
  [[nodiscard]] std::uint64_t absorbable_faults() const noexcept {
    return absorbable_;
  }

  [[nodiscard]] std::uint64_t observed_faults() const noexcept {
    return observed_;
  }

  [[nodiscard]] const dram::mapping::DramMapping& mapping() const noexcept {
    return mapping_;
  }

 private:
  /// Open-addressing map from a 64-bit key to a dense index (linear
  /// probing, power-of-two capacity, load <= 1/2).
  class KeyIndex {
   public:
    /// The index stored for `key`, or `next` after inserting it; `second`
    /// is true when the key was new.
    std::pair<std::uint32_t, bool> find_or_insert(std::uint64_t key,
                                                   std::uint32_t next);

   private:
    struct Slot {
      std::uint64_t key = 0;
      std::uint32_t index_plus_one = 0;  ///< 0 marks an empty slot
    };
    /// First probe position of `key` at the current capacity.
    [[nodiscard]] std::size_t home(std::uint64_t key) const noexcept;
    void grow();

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
  };

  struct RowState {
    int detection_index = -1;  ///< into detections_, -1 until triggered
    int distinct_words = 0;    ///< census of distinct words seen
    int recent_size = 0;
    /// Trailing window, (time, word); only maintained until the trigger.
    std::array<std::pair<TimePoint, std::uint64_t>, kMaxDistinctWords> recent;
  };

  const dram::mapping::DramMapping& mapping_;
  DetectorConfig config_;
  KeyIndex row_index_;  ///< key: bank<<48 | row -> rows_ index
  std::vector<RowState> rows_;
  KeyIndex words_;  ///< set of words seen (index unused)
  std::vector<DetectedRow> detections_;
  std::uint64_t absorbable_ = 0;
  std::uint64_t observed_ = 0;
};

}  // namespace unp::faults::hammer
