// Query model for the UNPF columnar store: a conjunction of range/equality
// predicates over the filterable fault columns plus a column projection.
//
// The same Query object drives three layers:
//
//   1. *planning*   — required_columns() computes the minimal column set a
//                     scan must decode (projection + whatever the predicates
//                     read, preferring the 2-bit class column over the full
//                     pattern pair when the bit-count range happens to align
//                     with class boundaries);
//   2. *pruning*    — may_match() tests a SegmentZone's min/max intervals, so
//                     non-overlapping segments are skipped without decoding
//                     a single row (predicate pushdown);
//   3. *filtering*  — matches() is the exact per-row predicate applied to
//                     decoded columns.
//
// Pruning is conservative by construction: may_match() returning false
// implies no row of the segment can satisfy matches(), so pruned and
// unpruned scans always return identical row sets.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "store/format.hpp"

namespace unp::store {

struct Query {
  /// Half-open time range [since, until) over first_seen (epoch seconds).
  std::optional<TimePoint> since;
  std::optional<TimePoint> until;

  /// Location selector: blade only, SoC only, or both (one exact node).
  std::optional<int> blade;  ///< 0..kStudyBlades-1
  std::optional<int> soc;    ///< 0..kSocsPerBlade-1

  /// Inclusive flipped-bit-count range (1..32 spans every fault).
  int min_bits = 1;
  int max_bits = 32;

  /// Columns the caller wants materialized in the scan result.
  std::uint32_t projection = kAllColumns;

  /// Columns a scan must decode: the projection plus predicate inputs.
  [[nodiscard]] std::uint32_t required_columns() const;

  /// True when the bit-count range carries no constraint (1..32).
  [[nodiscard]] bool bits_unconstrained() const noexcept {
    return min_bits <= 1 && max_bits >= 32;
  }

  /// When the bit-count range coincides with kFlipClasses boundaries, the
  /// [lo, hi] class-code pair answering it; nullopt otherwise.  Within such
  /// a range, testing a class's min_bits stands for testing any count in
  /// the class, so scans can run off the 2-bit class column alone.
  [[nodiscard]] std::optional<std::pair<int, int>> class_range()
      const noexcept;

  /// Segment-level pruning test against a zone map entry.
  [[nodiscard]] bool may_match(const SegmentZone& zone) const noexcept;

  /// Exact row-level predicate (dense node index, first_seen, bit count).
  [[nodiscard]] bool matches(std::uint32_t node_index, TimePoint first_seen,
                             int flipped_bits) const noexcept;

  /// Human-readable predicate summary ("first_seen in [a, b) and blade 12"),
  /// used by unp_query's --stats footer.
  [[nodiscard]] std::string describe() const;
};

}  // namespace unp::store
