// Error-extraction methodology (Section II-C).
//
// Raw ERROR logs are not independent faults.  The pipeline applies the
// paper's two accounting rules:
//
//   1. *Pathological-node filter* (Section III-B): a node whose raw log
//      volume dominates the campaign (>98% in the study) is a broken
//      component, removed from the scheduler pool and from the
//      characterization.  The filter re-discovers such nodes from the data.
//
//   2. *Repeat collapse*: a fault that keeps producing incorrect values for
//      consecutive iterations is ONE fault, however many logs it wrote.
//      Logs at the same (node, address) merge while the gap between them
//      stays within `merge_window_s`; a clean stretch longer than that
//      means the cell worked again, so the next log opens a new fault
//      (which is how one weak bit legitimately accounts for thousands of
//      independent errors).
//
// The output FaultRecords are the study's "independent memory errors".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/topology.hpp"
#include "common/bitops.hpp"
#include "common/civil_time.hpp"
#include "telemetry/node_log.hpp"

namespace unp::analysis {

/// One independent memory fault, after filtering and collapsing.
struct FaultRecord {
  cluster::NodeId node;
  TimePoint first_seen = 0;
  TimePoint last_seen = 0;
  std::uint64_t raw_logs = 1;  ///< collapsed ERROR lines
  std::uint64_t virtual_address = 0;
  Word expected = 0;  ///< context of the first observation
  Word actual = 0;
  double temperature_c = 0.0;

  [[nodiscard]] Word flip_mask() const noexcept { return expected ^ actual; }
  [[nodiscard]] int flipped_bits() const noexcept {
    return flipped_bit_count(expected, actual);
  }
  [[nodiscard]] bool is_multibit() const noexcept { return flipped_bits() >= 2; }

  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

/// Read-only, non-owning view of extracted faults in canonical order
/// (time, node, address).  Every analysis entry point takes this view so
/// batch callers (holding a vector) and streaming callers (holding an
/// extractor's buffer) share one signature.
using FaultView = std::span<const FaultRecord>;

struct ExtractionConfig {
  /// Remove nodes holding more than this fraction of all raw logs...
  double pathological_raw_fraction = 0.50;
  /// ...provided they exceed this absolute raw count.
  std::uint64_t pathological_min_raw = 1000000;
  /// Same-address logs merge while gaps stay within this window.  A few
  /// scan passes: long enough to fuse the per-iteration re-logs of a stuck
  /// cell, short enough that distinct leak episodes of a weak bit (minutes
  /// to hours apart) stay separate faults, as the paper counts them.
  std::int64_t merge_window_s = 300;
};

struct ExtractionResult {
  std::vector<FaultRecord> faults;  ///< sorted by (time, node, address)
  std::vector<cluster::NodeId> removed_nodes;
  std::uint64_t total_raw_logs = 0;    ///< before any filtering
  std::uint64_t removed_raw_logs = 0;  ///< raw lines dropped with the nodes

  [[nodiscard]] double removed_fraction() const noexcept {
    return total_raw_logs > 0 ? static_cast<double>(removed_raw_logs) /
                                    static_cast<double>(total_raw_logs)
                              : 0.0;
  }
};

/// Rule 1's predicate: a node holding `node_raw` of the campaign's
/// `total_raw` raw logs is pathological.
[[nodiscard]] bool is_pathological(std::uint64_t node_raw,
                                   std::uint64_t total_raw,
                                   const ExtractionConfig& config) noexcept;

/// Sort faults into the canonical (time, node, address) order.
void sort_canonical(std::vector<FaultRecord>& faults);

/// Run the full extraction over one campaign's node logs, `logs[i]` being
/// node_from_index(i)'s (at most kStudyNodeSlots; missing slots are empty).
/// The whole-campaign reference StreamingExtractor is tested against; the
/// front ends stream instead.
[[nodiscard]] ExtractionResult extract_faults(
    std::span<const telemetry::NodeLog> logs,
    const ExtractionConfig& config = ExtractionConfig{});

/// Collapse one node's error runs into independent faults (rule 2 only),
/// in canonical order.  No two share (time, address): same-address runs
/// starting together always merge.
[[nodiscard]] std::vector<FaultRecord> collapse_node_log(
    cluster::NodeId node, const telemetry::NodeLog& log,
    std::int64_t merge_window_s);

}  // namespace unp::analysis
