// Streaming record consumers.
//
// The campaign is inherently a stream: 923 node timelines, each producing
// START/END/ALLOC-FAIL/ERROR records in time order, flowing into whatever
// wants them — the in-memory CampaignArchive, an on-disk spill file, or an
// incremental analysis.  RecordSink is that consumer interface; producers
// (sim::run_campaign, ArchiveReader) push records through it node by node
// so no stage needs the whole 13-month archive resident.
//
// Protocol (per producer pass):
//
//   begin_campaign(window)
//   for each node in ascending node_index order:
//     begin_node(id)
//     on_start* on_end* on_alloc_fail* on_error_run*   (each class in time order)
//     end_node(id)
//   end_campaign()
//
// Producers guarantee deterministic ordering: nodes ascend by index and each
// record class is emitted in time order, so any sink sees a bit-reproducible
// stream for a given campaign seed regardless of producer thread count.
//
// Two further guarantees matter to stateful consumers (the streaming
// extractor, the policy engine in src/policy):
//
//   - exactly one begin_node/end_node frame per monitored node per pass —
//     a node's whole timeline arrives contiguously, never interleaved with
//     another node's, so per-node controller state can be finalized at
//     end_node();
//   - the stream is *node-ordered*, not globally time-ordered: records of a
//     later node may predate records of an earlier one.  Controllers that
//     need fleet-wide time order (e.g. cross-node day accounting) must
//     either keep per-node clocks or defer the merge to end_campaign().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/civil_time.hpp"
#include "telemetry/record.hpp"

namespace unp::telemetry {

class NodeLog;
class RecordSink;

namespace kernels {
struct EncodeKernels;
}  // namespace kernels

/// A node's whole log plus its (lazily produced) node-log body encoding.
///
/// The bulk streaming path hands one of these per node to sinks instead of
/// replaying records one virtual call at a time.  Byte-oriented sinks
/// (ArchiveWriter) splice `bytes()` straight into their frame — the body is
/// encoded at most once per node, in the producer worker when the campaign
/// pre-encodes, or not at all when a replay hands over the frame's body as
/// read (drain_frames), and never re-encoded per sink.  Record-oriented
/// sinks (CampaignArchive, the extractors) read `log()`; `bytes()` only
/// encodes on first call, so they pay for encoding only where they ask for
/// bytes (the streaming extractor holding a filter candidate).
class EncodedNodeLog {
 public:
  /// `scratch` is caller-owned storage for the encoded body (an arena slot
  /// reused across nodes); `pre_encoded` asserts it already holds exactly
  /// the body for `log`.
  EncodedNodeLog(cluster::NodeId node, const NodeLog& log, std::string& scratch,
                 bool pre_encoded = false) noexcept
      : node_(node), log_(&log), scratch_(&scratch), encoded_(pre_encoded) {}
  /// The same, for callers that still name the encode set (there is one).
  EncodedNodeLog(cluster::NodeId node, const NodeLog& log, std::string& scratch,
                 const kernels::EncodeKernels& /*encode*/) noexcept
      : EncodedNodeLog(node, log, scratch) {}

  [[nodiscard]] cluster::NodeId node() const noexcept { return node_; }
  [[nodiscard]] const NodeLog& log() const noexcept { return *log_; }

  /// The node-log body (encode_node_log bytes).  Encodes on first call,
  /// then returns the cached bytes.
  [[nodiscard]] const std::string& bytes();

  /// True when the log holds no records (its encoded body would still be the
  /// four zero section counts, but writers skip the frame entirely).
  [[nodiscard]] bool empty() const noexcept;

 private:
  cluster::NodeId node_;
  const NodeLog* log_;
  std::string* scratch_;
  bool encoded_;
};

/// Consumer of a campaign record stream.
class RecordSink {
 public:
  virtual ~RecordSink() = default;

  /// Stream framing; default no-ops so simple sinks only handle records.
  virtual void begin_campaign(const CampaignWindow& /*window*/) {}
  virtual void begin_node(cluster::NodeId /*node*/) {}
  virtual void end_node(cluster::NodeId /*node*/) {}
  virtual void end_campaign() {}

  virtual void on_start(const StartRecord& r) = 0;
  virtual void on_end(const EndRecord& r) = 0;
  virtual void on_alloc_fail(const AllocFailRecord& r) = 0;
  virtual void on_error_run(const ErrorRun& r) = 0;

  /// Bulk path: the producer may deliver a node's whole log between
  /// begin_node and end_node as one call instead of per-record ones.  The
  /// default replays the log through the per-record interface, so existing
  /// sinks see an identical stream; byte-oriented sinks override this (and
  /// wants_encoded_node_log) to consume the encoded body directly.
  virtual void on_node_log(EncodedNodeLog& log);

  /// True when this sink consumes `bytes()` of bulk node logs — a hint that
  /// lets producers pre-encode bodies in parallel workers.
  [[nodiscard]] virtual bool wants_encoded_node_log() const { return false; }
};

/// Broadcast one stream to several sinks (archive + spill file + extractor
/// in a single producer pass).  Does not own the sinks.
class FanOutSink final : public RecordSink {
 public:
  FanOutSink() = default;
  void add(RecordSink& sink) { sinks_.push_back(&sink); }

  void begin_campaign(const CampaignWindow& window) override {
    for (auto* s : sinks_) s->begin_campaign(window);
  }
  void begin_node(cluster::NodeId node) override {
    for (auto* s : sinks_) s->begin_node(node);
  }
  void end_node(cluster::NodeId node) override {
    for (auto* s : sinks_) s->end_node(node);
  }
  void end_campaign() override {
    for (auto* s : sinks_) s->end_campaign();
  }
  void on_start(const StartRecord& r) override {
    for (auto* s : sinks_) s->on_start(r);
  }
  void on_end(const EndRecord& r) override {
    for (auto* s : sinks_) s->on_end(r);
  }
  void on_alloc_fail(const AllocFailRecord& r) override {
    for (auto* s : sinks_) s->on_alloc_fail(r);
  }
  void on_error_run(const ErrorRun& r) override {
    for (auto* s : sinks_) s->on_error_run(r);
  }
  void on_node_log(EncodedNodeLog& log) override {
    for (auto* s : sinks_) s->on_node_log(log);
  }
  [[nodiscard]] bool wants_encoded_node_log() const override {
    for (const auto* s : sinks_)
      if (s->wants_encoded_node_log()) return true;
    return false;
  }

 private:
  std::vector<RecordSink*> sinks_;
};

/// Push every record of `log` through `sink` in the canonical class order
/// (starts, ends, alloc-fails, error runs; each in stored order).  Does NOT
/// emit begin_node/end_node — the caller owns the framing.
void replay_node_log(const NodeLog& log, RecordSink& sink);

}  // namespace unp::telemetry
