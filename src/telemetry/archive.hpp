// Per-node log files and the campaign-wide archive.
//
// The original tool kept one log file per node; analyses then merged them.
// NodeLog collects a node's records in time order; CampaignArchive owns one
// NodeLog per study node plus campaign-level metadata, and is the single
// input to the whole analysis pipeline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/topology.hpp"
#include "common/civil_time.hpp"
#include "telemetry/record.hpp"
#include "telemetry/sink.hpp"

namespace unp::telemetry {

/// Time-ordered log of a single node.
class NodeLog {
 public:
  void add_start(const StartRecord& r) { starts_.push_back(r); }
  void add_end(const EndRecord& r) { ends_.push_back(r); }
  void add_alloc_fail(const AllocFailRecord& r) { alloc_fails_.push_back(r); }
  void add_error_run(const ErrorRun& r) { error_runs_.push_back(r); }
  void add_error(const ErrorRecord& r) { error_runs_.push_back(ErrorRun{r, 0, 1}); }
  /// Append `runs` in stored order, one bulk copy.
  void add_error_runs(std::span<const ErrorRun> runs) {
    error_runs_.insert(error_runs_.end(), runs.begin(), runs.end());
  }

  // Capacity hints for decoders that know record counts up front.
  void reserve_starts(std::size_t n) { starts_.reserve(starts_.size() + n); }
  void reserve_ends(std::size_t n) { ends_.reserve(ends_.size() + n); }
  void reserve_alloc_fails(std::size_t n) { alloc_fails_.reserve(alloc_fails_.size() + n); }
  void reserve_error_runs(std::size_t n) { error_runs_.reserve(error_runs_.size() + n); }

  [[nodiscard]] const std::vector<StartRecord>& starts() const noexcept { return starts_; }
  [[nodiscard]] const std::vector<EndRecord>& ends() const noexcept { return ends_; }
  [[nodiscard]] const std::vector<AllocFailRecord>& alloc_fails() const noexcept {
    return alloc_fails_;
  }
  [[nodiscard]] const std::vector<ErrorRun>& error_runs() const noexcept {
    return error_runs_;
  }

  /// Total number of raw ERROR log lines represented (runs expanded).
  [[nodiscard]] std::uint64_t raw_error_count() const noexcept;

  /// Scanning hours implied by START/END pairing.  Follows the paper's
  /// conservative rule: a START followed by another START (hard reboot, END
  /// lost) contributes zero hours.
  [[nodiscard]] double monitored_hours() const noexcept;

  /// Terabyte-hours scanned, weighting each complete session by its
  /// allocation size.  Same conservative pairing rule as monitored_hours.
  [[nodiscard]] double terabyte_hours() const noexcept;

  /// Sort all record vectors by time (builders normally append in order).
  void sort_by_time();

  [[nodiscard]] bool empty() const noexcept {
    return starts_.empty() && ends_.empty() && alloc_fails_.empty() &&
           error_runs_.empty();
  }

  /// Drop all records but keep vector capacity — arena reuse across nodes.
  void clear() noexcept {
    starts_.clear();
    ends_.clear();
    alloc_fails_.clear();
    error_runs_.clear();
  }

  /// Append every record of `other` in stored order.
  void append(const NodeLog& other);

 private:
  std::vector<StartRecord> starts_;
  std::vector<EndRecord> ends_;
  std::vector<AllocFailRecord> alloc_fails_;
  std::vector<ErrorRun> error_runs_;
};

/// The whole campaign's telemetry, indexed by node.  Also a RecordSink: a
/// producer can stream straight into the archive (records route to the log
/// of the node they carry), making "materialize everything" just one sink
/// choice among several.
class CampaignArchive final : public RecordSink {
 public:
  explicit CampaignArchive(CampaignWindow window = CampaignWindow{})
      : window_(window), logs_(static_cast<std::size_t>(cluster::kStudyNodeSlots)) {}

  // RecordSink: adopt the producer's window, append records by node.
  void begin_campaign(const CampaignWindow& window) override { window_ = window; }
  void on_start(const StartRecord& r) override { log(r.node).add_start(r); }
  void on_end(const EndRecord& r) override { log(r.node).add_end(r); }
  void on_alloc_fail(const AllocFailRecord& r) override {
    log(r.node).add_alloc_fail(r);
  }
  void on_error_run(const ErrorRun& r) override { log(r.first.node).add_error_run(r); }
  // Bulk path: splice the node's whole log in one append instead of one
  // virtual call per record.  Leaves wants_encoded_node_log() false — the
  // archive routes records, so the producer never encodes bytes for it.
  void on_node_log(EncodedNodeLog& enc) override {
    log(enc.node()).append(enc.log());
  }

  [[nodiscard]] NodeLog& log(cluster::NodeId id) {
    return logs_[static_cast<std::size_t>(cluster::node_index(id))];
  }
  [[nodiscard]] const NodeLog& log(cluster::NodeId id) const {
    return logs_[static_cast<std::size_t>(cluster::node_index(id))];
  }

  [[nodiscard]] const CampaignWindow& window() const noexcept { return window_; }

  /// Sum of raw ERROR lines across all nodes.
  [[nodiscard]] std::uint64_t total_raw_errors() const noexcept;

  /// Sum of monitored node-hours across all nodes.
  [[nodiscard]] double total_monitored_hours() const noexcept;

  /// Sum of terabyte-hours across all nodes.
  [[nodiscard]] double total_terabyte_hours() const noexcept;

 private:
  CampaignWindow window_;
  std::vector<NodeLog> logs_;
};

}  // namespace unp::telemetry
