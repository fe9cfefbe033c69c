// Single-pass streaming fault extraction.
//
// extract_faults() needs the whole CampaignArchive materialized; this sink
// performs the same §II-C methodology incrementally while the records are
// being produced (by sim::run_campaign) or replayed (by ArchiveReader), so
// analyses can run without the raw archive ever being resident:
//
//   - START/END/ALLOC-FAIL records pass through with only counters updated;
//   - a bulk node log (on_node_log) is read in place: a node below
//     pathological_min_raw collapses straight from the producer's log via
//     the exact collapse_node_log used by the batch path, and its runs are
//     never copied;
//   - per-record ERROR runs buffer per node (runs, not expanded raw lines);
//     when the node's frame closes, a node below pathological_min_raw
//     collapses and its runs are freed right there, mid-stream;
//   - a filter candidate (raw >= pathological_min_raw) keeps its runs, one
//     bulk copy on the bulk feed, and its collapse waits for finish(): the
//     keep-or-drop decision needs the campaign-wide raw total, and a
//     candidate the filter removes is freed without ever being collapsed
//     (node 21-07 of the study writes >98% of all raw logs);
//   - finish() applies the pathological-node filter, collapses the kept
//     candidates and performs the final deterministic sort.
//
// With a node observer attached nothing is deferred: every node collapses
// at its end_node, where the observer is owed its faults.
//
// The result is bit-identical to extract_faults on the same stream, which
// tests/analysis/streaming_extractor_test.cpp asserts over a full campaign
// through the per-record and bulk feeds.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "analysis/extraction.hpp"
#include "telemetry/sink.hpp"

namespace unp::analysis {

class StreamingExtractor final : public telemetry::RecordSink {
 public:
  explicit StreamingExtractor(ExtractionConfig config = ExtractionConfig{});

  // RecordSink.
  void begin_campaign(const CampaignWindow& window) override;
  void on_start(const telemetry::StartRecord& r) override;
  void on_end(const telemetry::EndRecord& r) override;
  void on_alloc_fail(const telemetry::AllocFailRecord& r) override;
  void on_error_run(const telemetry::ErrorRun& r) override;
  void on_node_log(telemetry::EncodedNodeLog& log) override;
  void end_node(cluster::NodeId node) override;

  /// Observer fired once per node, right after that node's error runs
  /// collapse into independent faults (at end_node, or during finish() for
  /// nodes streamed without a closing frame).  Attaching one turns deferral
  /// off, so filter candidates collapse at their end_node like every other
  /// node.  The span covers the node's newly collapsed faults in collapse
  /// order and is only valid for the duration of the call.  Faults are
  /// delivered BEFORE the campaign-wide pathological filter — that filter
  /// needs the campaign raw total, which no online consumer can know
  /// mid-stream — so incremental consumers (the policy engine) see every
  /// node and reconcile against finish()'s removed_nodes afterwards.
  using NodeFaultObserver =
      std::function<void(cluster::NodeId, std::span<const FaultRecord>)>;
  void set_node_observer(NodeFaultObserver observer) {
    observer_ = std::move(observer);
  }

  /// Apply the pathological filter, collapse the kept filter candidates and
  /// sort; the extractor is spent afterwards.  Call once after the stream
  /// completes.
  [[nodiscard]] ExtractionResult finish();

  /// Records seen so far (raw ERROR lines counted with runs expanded).
  [[nodiscard]] std::uint64_t raw_errors_seen() const noexcept { return raw_total_; }
  [[nodiscard]] std::uint64_t sessions_seen() const noexcept { return sessions_; }

 private:
  /// True when node `index` is a filter candidate whose collapse waits for
  /// finish().
  [[nodiscard]] bool deferred(std::size_t index) const noexcept;
  void collapse_pending(std::size_t index);
  void add_faults(std::size_t index, std::vector<FaultRecord> faults);

  ExtractionConfig config_;
  NodeFaultObserver observer_;
  /// Buffered error runs of open frames and of deferred filter candidates.
  std::vector<telemetry::NodeLog> pending_;
  /// Collapsed per-node faults awaiting the campaign-wide filter.
  std::vector<std::vector<FaultRecord>> collapsed_;
  std::vector<std::uint64_t> raw_per_node_;
  std::uint64_t raw_total_ = 0;
  std::uint64_t sessions_ = 0;
  bool finished_ = false;
};

}  // namespace unp::analysis
