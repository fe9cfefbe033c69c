// Streaming on-disk archive format.
//
// binary_codec.hpp serializes a fully materialized CampaignArchive in one
// shot; this header is the streaming counterpart.  ArchiveWriter is a
// RecordSink that spills each node's block to an ostream the moment the
// node's frame closes, so a 13-month campaign can be written while it is
// being simulated, with only one node's records buffered at a time.
// ArchiveReader walks the stream node by node, either handing out NodeLogs
// or pushing records into another RecordSink — which is how benches reload
// a cached campaign without re-simulating and how analyses consume spilled
// telemetry without a resident archive.
//
// Format (little-endian, varint = LEB128, reusing the binary_codec record
// encoding):
//
//   stream := magic "UNPS" u8 version
//             varint zigzag(window.start) varint zigzag(window.end)
//             node_frame* end_frame
//   node_frame := varint node_index        (< kStudyNodeSlots, ascending)
//                 varint body_size body    (body = encode_node_log)
//   end_frame  := varint kStudyNodeSlots varint frame_count
//
// The trailing frame count lets the reader reject streams truncated at a
// frame boundary (mid-frame truncation already fails the body decode).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "telemetry/archive.hpp"
#include "telemetry/sink.hpp"

namespace unp::telemetry {

/// RecordSink spilling the stream to disk as framed binary node blocks.
/// Drive it through the sink protocol (begin_campaign .. end_campaign); the
/// stream is complete once end_campaign (or finish()) has run.
class ArchiveWriter final : public RecordSink {
 public:
  /// Writes to `os` (binary mode), starting at its current position.
  /// `encode` selects the encode kernel set (byte-identical output across
  /// sets); defaults to the process-wide active set.
  explicit ArchiveWriter(std::ostream& os,
                         const kernels::EncodeKernels* encode = nullptr);

  void begin_campaign(const CampaignWindow& window) override;
  void begin_node(cluster::NodeId node) override;
  void on_start(const StartRecord& r) override;
  void on_end(const EndRecord& r) override;
  void on_alloc_fail(const AllocFailRecord& r) override;
  void on_error_run(const ErrorRun& r) override;
  void end_node(cluster::NodeId node) override;
  void end_campaign() override { finish(); }

  /// Bulk path: the frame body is spliced from the already-encoded node log
  /// (encoded at most once per node, possibly in a producer worker thread),
  /// skipping the per-record collection into pending_ entirely.
  void on_node_log(EncodedNodeLog& log) override;
  [[nodiscard]] bool wants_encoded_node_log() const override { return true; }

  /// Write the end frame.  Idempotent; called by end_campaign.
  void finish();

  [[nodiscard]] std::uint64_t frames_written() const noexcept { return frames_; }

 private:
  std::ostream* os_;
  const kernels::EncodeKernels* encode_;
  NodeLog pending_;      ///< records of the currently open node frame
  std::string body_;     ///< reused frame-body encode buffer
  EncodeArena arena_;    ///< reused gather scratch for batch kernels
  bool node_open_ = false;
  bool bulk_ = false;    ///< current frame arrived via on_node_log
  bool header_written_ = false;
  bool finished_ = false;
  std::uint64_t frames_ = 0;
};

/// Incremental reader over a stream produced by ArchiveWriter.
class ArchiveReader {
 public:
  /// Parses the stream header from `is` (binary mode, current position).
  /// Throws telemetry::DecodeError (a ContractViolation carrying the byte
  /// offset) on bad magic/version.
  explicit ArchiveReader(std::istream& is);

  [[nodiscard]] const CampaignWindow& window() const noexcept { return window_; }

  /// Read the next node frame into (node, log).  Returns false once the end
  /// frame is reached (after validating the frame count).  Throws
  /// telemetry::DecodeError with byte-offset context on corrupt or
  /// truncated input, including a frame whose node index does not ascend
  /// (duplicated or out of order).
  [[nodiscard]] bool next(cluster::NodeId& node, NodeLog& log);

  /// Push the remaining stream through `sink` with full framing
  /// (begin_campaign .. end_campaign), one bulk on_node_log per frame.
  void drain(RecordSink& sink);

  [[nodiscard]] std::uint64_t frames_read() const noexcept { return frames_; }

 private:
  std::istream* is_;
  CampaignWindow window_;
  std::uint64_t frames_ = 0;
  std::uint64_t last_index_ = 0;  ///< node index of the last frame read
  bool done_ = false;
};

/// Push the frames `next` yields through `sink` with full framing
/// (begin_campaign .. end_campaign), one bulk on_node_log per frame: the
/// delivery loop of ArchiveReader::drain and ShardMergeReader::drain.
void drain_frames(const CampaignWindow& window, RecordSink& sink,
                  const std::function<bool(cluster::NodeId&, NodeLog&)>& next);

/// Spill a materialized archive through ArchiveWriter (binary file mode).
void save_archive_stream(const CampaignArchive& archive, const std::string& path);

/// Load a whole stream file into a materialized archive.
[[nodiscard]] CampaignArchive load_archive_stream(const std::string& path);

}  // namespace unp::telemetry
