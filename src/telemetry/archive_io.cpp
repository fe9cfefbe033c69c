#include "telemetry/archive_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#include "common/require.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {

namespace {

constexpr char kStreamMagic[4] = {'U', 'N', 'P', 'S'};
constexpr std::uint8_t kStreamVersion = 1;
/// Node-index sentinel opening the end frame (no valid node carries it).
constexpr std::uint64_t kEndFrame =
    static_cast<std::uint64_t>(cluster::kStudyNodeSlots);

/// Read exactly `size` bytes.  The buffer grows only by what the stream
/// reports present (in_avail, a lower bound) or by kReadStep, so a lying
/// length costs at most the bytes present plus one step, never the declared
/// size.  Files and strings report up to their end, so an honest body is
/// read in at most two pieces.
std::string read_exact(std::istream& is, std::uint64_t size) {
  constexpr std::uint64_t kReadStep = std::uint64_t{1} << 20;
  const std::uint64_t start = stream_offset(is);
  std::string out;
  while (out.size() < size) {
    const std::size_t have = out.size();
    const std::streamsize avail = is.rdbuf()->in_avail();
    const auto want = static_cast<std::size_t>(std::min<std::uint64_t>(
        size - have,
        std::max<std::uint64_t>(
            kReadStep, avail > 0 ? static_cast<std::uint64_t>(avail) : 0)));
    out.resize(have + want);
    is.read(out.data() + have, static_cast<std::streamsize>(want));
    const auto got = static_cast<std::size_t>(is.gcount());
    if (got != want)
      throw DecodeError("truncated block (wanted " + std::to_string(size) +
                            " bytes, got " + std::to_string(have + got) + ")",
                        start);
  }
  return out;
}

}  // namespace

void write_varint(std::ostream& os, std::uint64_t value) {
  std::string buf;
  put_varint(buf, value);
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  UNP_REQUIRE(os.good());
}

std::uint64_t stream_offset(std::istream& is) {
  const std::streamoff off = is.rdstate() ? -1 : std::streamoff(is.tellg());
  return off < 0 ? 0 : static_cast<std::uint64_t>(off);
}

std::uint64_t read_varint(std::istream& is) {
  const std::uint64_t start = stream_offset(is);
  std::uint64_t value = 0;
  int shift = 0;
  for (;;) {
    const int c = is.get();
    if (c == std::char_traits<char>::eof())
      throw DecodeError("truncated varint", start);
    if (shift >= 64)
      throw DecodeError("varint overflow (> 10 bytes)", start);
    if (shift == 63 && (c & 0x7E) != 0)
      throw DecodeError("varint overflow (bits beyond 64)", start);
    value |= static_cast<std::uint64_t>(c & 0x7F) << shift;
    if ((c & 0x80) == 0) return value;
    shift += 7;
  }
}

void ArchiveWriter::begin_campaign(const CampaignWindow& window) {
  UNP_REQUIRE(!header_written_);
  os_->write(kStreamMagic, sizeof kStreamMagic);
  os_->put(static_cast<char>(kStreamVersion));
  write_varint(*os_, zigzag_encode(window.start));
  write_varint(*os_, zigzag_encode(window.end));
  UNP_REQUIRE(os_->good());
  header_written_ = true;
}

void ArchiveWriter::begin_node(cluster::NodeId node) {
  UNP_REQUIRE(header_written_ && !finished_ && !node_open_);
  (void)node;
  pending_.clear();  // keep capacity across frames
  bulk_ = false;
  node_open_ = true;
}

void ArchiveWriter::on_start(const StartRecord& r) {
  UNP_REQUIRE(node_open_);
  pending_.add_start(r);
}

void ArchiveWriter::on_end(const EndRecord& r) {
  UNP_REQUIRE(node_open_);
  pending_.add_end(r);
}

void ArchiveWriter::on_alloc_fail(const AllocFailRecord& r) {
  UNP_REQUIRE(node_open_);
  pending_.add_alloc_fail(r);
}

void ArchiveWriter::on_error_run(const ErrorRun& r) {
  UNP_REQUIRE(node_open_);
  pending_.add_error_run(r);
}

void ArchiveWriter::on_node_log(EncodedNodeLog& log) {
  // A bulk frame replaces the per-record collection: no records may have
  // been pushed into this frame already, and none may follow.
  UNP_REQUIRE(node_open_ && pending_.empty());
  bulk_ = true;
  if (log.empty()) return;  // empty frames are elided
  write_frame(static_cast<std::uint64_t>(cluster::node_index(log.node())),
              log.bytes());
}

void ArchiveWriter::end_node(cluster::NodeId node) {
  UNP_REQUIRE(node_open_);
  node_open_ = false;
  if (bulk_) {  // frame already written (or elided) by on_node_log
    bulk_ = false;
    return;
  }
  if (pending_.empty()) return;  // empty frames are elided
  body_.clear();
  encode_node_log_into(pending_, body_);
  write_frame(static_cast<std::uint64_t>(cluster::node_index(node)), body_);
  pending_.clear();
}

void ArchiveWriter::write_frame(std::uint64_t node_index,
                                std::string_view body) {
  UNP_REQUIRE(header_written_ && !finished_ && node_index < kEndFrame);
  write_varint(*os_, node_index);
  write_varint(*os_, body.size());
  os_->write(body.data(), static_cast<std::streamsize>(body.size()));
  UNP_REQUIRE(os_->good());
  ++frames_;
}

void ArchiveWriter::finish() {
  if (finished_) return;
  UNP_REQUIRE(header_written_ && !node_open_);
  write_varint(*os_, kEndFrame);
  write_varint(*os_, frames_);
  os_->flush();
  UNP_REQUIRE(os_->good());
  finished_ = true;
}

ArchiveReader::ArchiveReader(std::istream& is) : is_(&is) {
  const std::uint64_t start = stream_offset(is);
  const std::string magic = read_exact(is, sizeof kStreamMagic);
  if (std::memcmp(magic.data(), kStreamMagic, sizeof kStreamMagic) != 0)
    throw DecodeError("bad UNPS magic", start);
  const int version = is.get();
  if (version != kStreamVersion)
    throw DecodeError("unsupported UNPS version " + std::to_string(version),
                      start + sizeof kStreamMagic);
  window_.start = zigzag_decode(read_varint(is));
  window_.end = zigzag_decode(read_varint(is));
}

bool ArchiveReader::next_raw(std::uint64_t& node_index, std::string& body) {
  if (done_) return false;
  const std::uint64_t frame_offset = stream_offset(*is_);
  const std::uint64_t index = read_varint(*is_);
  if (index == kEndFrame) {
    const std::uint64_t declared = read_varint(*is_);
    if (declared != frames_)
      throw DecodeError("frame count mismatch (declared " +
                            std::to_string(declared) + ", read " +
                            std::to_string(frames_) + ")",
                        frame_offset);
    done_ = true;
    return false;
  }
  if (index > kEndFrame)
    throw DecodeError("node index out of range", frame_offset);
  // One frame per node, ascending: a duplicated or descending frame would
  // reach sinks as a second frame for one node.
  if (frames_ > 0 && index <= last_index_)
    throw DecodeError("node index " + std::to_string(index) +
                          " not ascending (previous frame " +
                          std::to_string(last_index_) + ")",
                      frame_offset);
  const std::uint64_t size = read_varint(*is_);
  body_offset_ = stream_offset(*is_);
  body = read_exact(*is_, size);
  last_index_ = index;
  frame_offset_ = frame_offset;
  node_index = index;
  ++frames_;
  return true;
}

NodeLog ArchiveReader::decode_body(cluster::NodeId node,
                                   const std::string& body) const {
  std::size_t pos = 0;
  NodeLog log;
  try {
    log = decode_node_log(body, pos, node);
  } catch (const DecodeError& e) {
    // Re-anchor the body-relative offset to the stream position.
    throw DecodeError("node frame for " + cluster::node_name(node) + ": " +
                          e.detail(),
                      body_offset_ + e.byte_offset());
  }
  if (pos != body.size())
    throw DecodeError("node frame body size mismatch", body_offset_ + pos);
  return log;
}

bool ArchiveReader::next(cluster::NodeId& node, NodeLog& log) {
  // A fresh body per frame: a buffer kept across frames would hold the
  // largest body's bytes while sinks consume its decoded log.
  std::uint64_t index = 0;
  std::string body;
  if (!next_raw(index, body)) return false;
  node = cluster::node_from_index(static_cast<int>(index));
  log = decode_body(node, body);
  return true;
}

void ArchiveReader::drain(RecordSink& sink) {
  drain_frames(window_, sink,
               [this](cluster::NodeId& node, NodeLog& log) {
                 return next(node, log);
               });
}

void drain_frames(
    const CampaignWindow& window, RecordSink& sink,
    const std::function<bool(cluster::NodeId&, NodeLog&)>& next) {
  sink.begin_campaign(window);
  cluster::NodeId node;
  NodeLog log;
  std::string scratch;
  while (next(node, log)) {
    sink.begin_node(node);
    // Bulk delivery: record-oriented sinks read the decoded log in place
    // (or replay it), byte-oriented sinks re-encode once into the reused
    // scratch buffer.
    EncodedNodeLog enc(node, log, scratch);
    sink.on_node_log(enc);
    sink.end_node(node);
  }
  sink.end_campaign();
}

void save_archive_stream(const CampaignArchive& archive, std::ostream& os) {
  ArchiveWriter writer(os);
  writer.begin_campaign(archive.window());
  std::string scratch;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    writer.begin_node(node);
    EncodedNodeLog enc(node, archive.log(node), scratch);
    writer.on_node_log(enc);
    writer.end_node(node);
  }
  writer.finish();
}

CampaignArchive load_archive_stream(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  UNP_REQUIRE(is.good());
  ArchiveReader reader(is);
  CampaignArchive archive(reader.window());
  // Decoded logs are moved in whole; replaying record-by-record through the
  // sink interface would double the work.
  cluster::NodeId node{};
  NodeLog log;
  while (reader.next(node, log)) archive.log(node) = std::move(log);
  return archive;
}

}  // namespace unp::telemetry
