// The on-disk telemetry stream format (UNPS) and its one reader and writer.
//
// ArchiveWriter is a RecordSink that spills each node's block to an ostream
// the moment the node's frame closes, so a 13-month campaign can be written
// while it is being simulated, with only one node's records buffered at a
// time.  ArchiveReader walks the stream node by node, either handing out
// NodeLogs, raw frame bodies, or pushing records into another RecordSink —
// which is how benches reload a cached campaign without re-simulating and
// how analyses consume spilled telemetry without a resident archive.  Every
// other format that carries a UNPS payload (the UNPC campaign cache, the
// UNPH shard archives, the merged stream) reads and writes it through these
// two classes.
//
// Format (little-endian, varint = LEB128, node-log bodies from
// binary_codec's encode_node_log):
//
//   stream := magic "UNPS" u8 version
//             varint zigzag(window.start) varint zigzag(window.end)
//             node_frame* end_frame
//   node_frame := varint node_index        (< kStudyNodeSlots, ascending)
//                 varint body_size body    (body = encode_node_log)
//   end_frame  := varint kStudyNodeSlots varint frame_count
//
// The trailing frame count lets the reader reject streams truncated at a
// frame boundary (mid-frame truncation already fails the body read).  The
// reader sizes a body buffer by the bytes the stream holds, not by
// body_size, so a corrupt body_size costs at most the bytes actually present
// (plus one bounded step) before it ends in DecodeError.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>

#include "telemetry/archive.hpp"
#include "telemetry/sink.hpp"

namespace unp::telemetry {

/// Stream forms of put_varint / get_varint, shared by the stream formats
/// (UNPS here, the UNPH shard prefix).  read_varint throws DecodeError at
/// the varint's stream offset on truncation or overflow.
void write_varint(std::ostream& os, std::uint64_t value);
[[nodiscard]] std::uint64_t read_varint(std::istream& is);

/// Current read offset for DecodeError context; 0 when the stream cannot
/// tell (already failed, or not seekable).
[[nodiscard]] std::uint64_t stream_offset(std::istream& is);

/// RecordSink spilling the stream to disk as framed binary node blocks.
/// Drive it through the sink protocol (begin_campaign .. end_campaign); the
/// stream is complete once end_campaign (or finish()) has run.
class ArchiveWriter final : public RecordSink {
 public:
  /// Writes to `os` (binary mode), starting at its current position.
  explicit ArchiveWriter(std::ostream& os) : os_(&os) {}

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

  /// Append one node frame whose body is already encoded (empty bodies are
  /// written as given; the sink path elides empty logs before calling).
  /// The one frame emitter: on_node_log, end_node and the shard merge's
  /// verbatim body copy all go through it.  Requires the header written
  /// and the end frame not yet written.
  void write_frame(std::uint64_t node_index, std::string_view body);

  [[nodiscard]] std::uint64_t frames_written() const noexcept { return frames_; }

 private:
  std::ostream* os_;
  NodeLog pending_;      ///< records of the currently open node frame
  std::string body_;     ///< reused frame-body encode buffer
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

  /// Read the next node frame's index and undecoded body into `body`
  /// (replacing its buffer).  Returns false once the end frame is reached
  /// (after validating the frame count).  Throws telemetry::DecodeError
  /// with byte-offset context on corrupt or truncated framing: node index
  /// out of range or not ascending (duplicated or out of order), a body
  /// shorter than its declared size, or a wrong end-frame count.
  [[nodiscard]] bool next_raw(std::uint64_t& node_index, std::string& body);

  /// Decode a body the last next_raw call returned for `node`; a
  /// DecodeError carries the stream offset of the failing byte.
  [[nodiscard]] NodeLog decode_body(cluster::NodeId node,
                                    const std::string& body) const;

  /// next_raw + decode_body into (node, log).
  [[nodiscard]] bool next(cluster::NodeId& node, NodeLog& log);

  /// Push the remaining stream through `sink` with full framing
  /// (begin_campaign .. end_campaign), one bulk on_node_log per frame.
  void drain(RecordSink& sink);

  [[nodiscard]] std::uint64_t frames_read() const noexcept { return frames_; }

  /// Stream offset of the frame the last next_raw call returned.
  [[nodiscard]] std::uint64_t frame_offset() const noexcept {
    return frame_offset_;
  }

 private:
  std::istream* is_;
  CampaignWindow window_;
  std::uint64_t frames_ = 0;
  std::uint64_t last_index_ = 0;    ///< node index of the last frame read
  std::uint64_t frame_offset_ = 0;  ///< stream offset of that frame
  std::uint64_t body_offset_ = 0;   ///< stream offset of its body
  bool done_ = false;
};

/// Push the frames `next` yields through `sink` with full framing
/// (begin_campaign .. end_campaign), one bulk on_node_log per frame: the
/// delivery loop of ArchiveReader::drain and ShardMergeReader::drain.
void drain_frames(const CampaignWindow& window, RecordSink& sink,
                  const std::function<bool(cluster::NodeId&, NodeLog&)>& next);

/// Spill a materialized archive as one UNPS stream to `os` (binary mode).
void save_archive_stream(const CampaignArchive& archive, std::ostream& os);

/// Load a whole stream file into a materialized archive.
[[nodiscard]] CampaignArchive load_archive_stream(const std::string& path);

}  // namespace unp::telemetry
