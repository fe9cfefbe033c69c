// Streaming record consumers.
//
// The campaign is inherently a stream: 923 node timelines, each producing
// START/END/ALLOC-FAIL/ERROR records in time order, flowing into whatever
// wants them — an on-disk spill file, the streaming extractor, the scan
// profile, the policy engine.  RecordSink is that consumer interface;
// producers (sim::run_campaign_streaming, ArchiveReader) push records
// through it node by node so no stage needs the whole 13-month record set
// resident.
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
#include <memory>
#include <string>
#include <vector>

#include "common/civil_time.hpp"
#include "telemetry/node_log.hpp"
#include "telemetry/record.hpp"

namespace unp::telemetry {

class RecordSink;

/// A node-log body kept past on_node_log (EncodedNodeLog::share_body): the
/// bytes, shared with the frame, and where their run section begins.
struct SharedBody {
  std::shared_ptr<const std::string> bytes;
  std::size_t runs_at = 0;
};

namespace kernels {
struct EncodeKernels;
}  // namespace kernels

/// A node-log body together with what its frame reports without decoding
/// it: the START, END and ALLOCFAIL records, where the run section begins,
/// and the run and raw-line counts.
struct NodeBody {
  std::string bytes;
  NodeLog sessions;
  std::size_t runs_at = 0;
  std::size_t runs = 0;
  std::uint64_t raw = 0;
};

/// One node's frame as the bulk path hands it to sinks: the node's records
/// and its node-log body (encode_node_log bytes), each produced only when a
/// sink asks for it.
///
/// Live frames (the campaign driver, or any caller wrapping a NodeLog it
/// holds) wrap the producer's log; bytes() encodes on first call into the
/// producer's scratch, unless a worker already did.  Owned-body frames hold
/// a NodeBody: the campaign's costliest node when some sink wants bytes,
/// which its workers then simulate and encode in session ranges
/// (sim::NodeSplit) and never hold as one NodeLog, and every replayed frame (ArchiveReader::drain,
/// ShardMergeReader::drain).  A replayed body is validated before it
/// becomes a frame: the START/END/ALLOCFAIL sections are decoded and the
/// run section walked once, counting runs and raw lines under every check
/// decode_node_log makes.  A corrupt body therefore throws DecodeError
/// before any sink sees the frame, and log() on a frame that was delivered
/// cannot fail.
///
/// What each accessor decodes:
///   - sessions(), raw_error_count(), error_run_count(), empty(): nothing
///     beyond construction;
///   - log(): the run section, on an owned-body frame's first call only, so
///     a node whose runs no sink reads (the filter candidate the streaming
///     extractor drops: node 21-07 holds ~2.3 M runs) is never unpacked;
///   - bytes(): nothing on an owned-body frame; the encode on a live
///     frame's first call.
///
/// Who may keep the body: a sink that needs it past on_node_log (the
/// streaming extractor holding a filter candidate) takes share_body(), a
/// shared buffer that costs no copy when the frame owns the body (every
/// owned-body frame, and a live frame whose producer called adopt_body()),
/// plus the offset of its run section, so the keeper decodes the runs
/// alone.  Everything else is valid only during the on_node_log call.
class EncodedNodeLog {
 public:
  /// A live frame over `log`.  `scratch` is caller-owned storage for the
  /// encoded body (an arena slot reused across nodes).
  EncodedNodeLog(cluster::NodeId node, const NodeLog& log,
                 std::string& scratch) noexcept
      : node_(node), live_(&log), scratch_(&scratch) {}
  /// The same, for callers that still name the encode set (there is one).
  EncodedNodeLog(cluster::NodeId node, const NodeLog& log, std::string& scratch,
                 const kernels::EncodeKernels& /*encode*/) noexcept
      : EncodedNodeLog(node, log, scratch) {}

  /// A frame owning `body`, which the producer vouches for: its counts and
  /// sessions are taken as given.
  EncodedNodeLog(cluster::NodeId node, NodeBody body);
  /// A replayed frame owning `body`, validated first: throws DecodeError
  /// with body-relative offsets exactly where decode_node_log (plus the
  /// whole-body size check) would.
  EncodedNodeLog(cluster::NodeId node, std::string body);

  [[nodiscard]] cluster::NodeId node() const noexcept { return node_; }

  /// A log holding at least the node's START, END and ALLOCFAIL records
  /// (for_each_session, monitored_hours).  Whether it also holds the error
  /// runs depends on the producer: read runs through log().
  [[nodiscard]] const NodeLog& sessions() const noexcept {
    return live_ != nullptr ? *live_ : own_;
  }

  /// Raw ERROR lines of the node (runs expanded).
  [[nodiscard]] std::uint64_t raw_error_count() const noexcept {
    return raw_known_ ? raw_ : live_->raw_error_count();
  }
  [[nodiscard]] std::size_t error_run_count() const noexcept {
    return live_ != nullptr ? live_->error_runs().size() : runs_;
  }

  /// The whole log.  An owned-body frame decodes its runs on the first
  /// call.
  [[nodiscard]] const NodeLog& log();
  /// True once an owned-body frame's runs were decoded (always false live).
  [[nodiscard]] bool runs_decoded() const noexcept { return runs_decoded_; }

  /// The node-log body.  Encodes a live frame's on first call, then returns
  /// the cached bytes.
  [[nodiscard]] const std::string& bytes();
  /// bytes() as a buffer a sink may keep past the call (see above).
  [[nodiscard]] SharedBody share_body();

  /// True when the log holds no records (its encoded body would still be the
  /// four zero section counts, but writers skip the frame entirely).
  [[nodiscard]] bool empty() const noexcept {
    return sessions().empty() && error_run_count() == 0;
  }

  /// Producer hints for a live frame, set before delivery.  The node's raw
  /// total when the producer already has it (the campaign sums it in the
  /// simulation worker), so raw_error_count() need not walk the runs.
  void set_raw_error_count(std::uint64_t raw) noexcept {
    raw_ = raw;
    raw_known_ = true;
  }
  /// `scratch` already holds exactly the body for the log (a worker
  /// encoded it), its run section at `runs_at` (encode_node_log_into's
  /// result).
  void set_encoded(std::size_t runs_at) noexcept {
    runs_at_ = runs_at;
    encoded_ = true;
  }
  /// Move the scratch body into the frame, for a producer that frees the
  /// log right after delivery anyway: a sink may then keep the body without
  /// a copy.  Leaves `scratch` empty.
  void adopt_body();

 private:
  cluster::NodeId node_;
  const NodeLog* live_ = nullptr;  ///< the producer's log (live frames)
  NodeLog own_;  ///< owned-body frames: the sessions, then the runs once decoded
  std::string* scratch_ = nullptr;     ///< where bytes() lives
  std::shared_ptr<std::string> body_;  ///< the body, when the frame owns it
  std::size_t runs_at_ = 0;  ///< offset of the body's run section, once known
  std::size_t runs_ = 0;     ///< owned-body frames: run count
  std::uint64_t raw_ = 0;
  bool raw_known_ = false;
  bool encoded_ = false;
  bool runs_decoded_ = false;
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

/// Broadcast one stream to several sinks (spill file + extractor + scan
/// profile in a single producer pass).  Does not own the sinks.
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
