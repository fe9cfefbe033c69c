// The campaign-wide archive.
//
// The original tool kept one log file per node; analyses then merged them.
// CampaignArchive owns one NodeLog (telemetry/node_log.hpp) per study node
// plus campaign-level metadata, and is the single input to the whole
// analysis pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "cluster/topology.hpp"
#include "common/civil_time.hpp"
#include "telemetry/node_log.hpp"
#include "telemetry/sink.hpp"

namespace unp::telemetry {

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
