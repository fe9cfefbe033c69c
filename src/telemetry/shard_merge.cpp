#include "telemetry/shard_merge.hpp"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "common/require.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {

namespace {

// The UNPS stream constants, mirrored from archive_io.cpp (the framing is
// that file's contract; the merge re-emits it verbatim).
constexpr char kStreamMagic[4] = {'U', 'N', 'P', 'S'};
constexpr std::uint8_t kStreamVersion = 1;
constexpr std::uint64_t kEndFrame =
    static_cast<std::uint64_t>(cluster::kStudyNodeSlots);

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

std::uint64_t read_varint_at(std::istream& is, std::uint64_t start) {
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

std::string read_exact_at(std::istream& is, std::uint64_t size,
                          std::uint64_t start) {
  std::string body(size, '\0');
  is.read(body.data(), static_cast<std::streamsize>(size));
  if (static_cast<std::uint64_t>(is.gcount()) != size)
    throw DecodeError("truncated block (wanted " + std::to_string(size) +
                          " bytes, got " + std::to_string(is.gcount()) + ")",
                      start);
  return body;
}

}  // namespace

void write_shard_header(std::ostream& os, const ShardHeader& header) {
  UNP_REQUIRE(header.shard_count >= 1);
  UNP_REQUIRE(header.shard_index < header.shard_count);
  os.write(kShardMagic, sizeof kShardMagic);
  os.put(static_cast<char>(kShardVersion));
  write_varint(os, header.shard_count);
  write_varint(os, header.shard_index);
  for (int i = 0; i < 8; ++i)
    os.put(static_cast<char>((header.fingerprint >> (8 * i)) & 0xFF));
  UNP_REQUIRE(os.good());
}

ShardHeader read_shard_header(std::istream& is) {
  char magic[sizeof kShardMagic];
  is.read(magic, sizeof magic);
  if (static_cast<std::size_t>(is.gcount()) != sizeof magic)
    throw DecodeError("truncated shard header", 0);
  if (std::memcmp(magic, kShardMagic, sizeof kShardMagic) != 0)
    throw DecodeError("bad UNPH magic", 0);
  const int version = is.get();
  if (version != kShardVersion)
    throw DecodeError("unsupported UNPH version " + std::to_string(version),
                      sizeof kShardMagic);
  ShardHeader header;
  std::uint64_t offset = stream_offset(is);
  const std::uint64_t count = read_varint_at(is, offset);
  offset = stream_offset(is);
  const std::uint64_t index = read_varint_at(is, offset);
  if (count < 1 || count > 1u << 20)
    throw DecodeError("shard count out of range", offset);
  if (index >= count)
    throw DecodeError("shard index " + std::to_string(index) +
                          " out of range for count " + std::to_string(count),
                      offset);
  header.shard_count = static_cast<std::uint32_t>(count);
  header.shard_index = static_cast<std::uint32_t>(index);
  offset = stream_offset(is);
  header.fingerprint = 0;
  for (int i = 0; i < 8; ++i) {
    const int c = is.get();
    if (c == std::char_traits<char>::eof())
      throw DecodeError("truncated shard fingerprint", offset);
    header.fingerprint |= static_cast<std::uint64_t>(c & 0xFF) << (8 * i);
  }
  return header;
}

void ShardMergeReader::open_shards(const std::vector<std::string>& paths) {
  UNP_REQUIRE(!paths.empty());
  shards_.resize(paths.size());
  std::vector<bool> seen(paths.size(), false);
  for (const auto& path : paths) {
    std::ifstream file(path, std::ios::binary);
    if (!file.good())
      throw ContractViolation("cannot open shard archive " + path);
    ShardHeader header;
    CampaignWindow window;
    try {
      header = read_shard_header(file);
      // UNPS payload header (magic, version, window), via ArchiveReader's
      // own parser so the two formats cannot drift.
      char magic[sizeof kStreamMagic];
      file.read(magic, sizeof magic);
      if (static_cast<std::size_t>(file.gcount()) != sizeof magic)
        throw DecodeError("truncated UNPS header", stream_offset(file));
      if (std::memcmp(magic, kStreamMagic, sizeof kStreamMagic) != 0)
        throw DecodeError("bad UNPS magic in shard payload",
                          stream_offset(file));
      const int version = file.get();
      if (version != kStreamVersion)
        throw DecodeError("unsupported UNPS version " + std::to_string(version),
                          stream_offset(file));
      window.start = zigzag_decode(read_varint_at(file, stream_offset(file)));
      window.end = zigzag_decode(read_varint_at(file, stream_offset(file)));
    } catch (const DecodeError& e) {
      throw DecodeError("shard archive " + path + ": " + e.detail(),
                        e.byte_offset());
    }
    if (header.shard_count != paths.size())
      throw ContractViolation(
          "shard archive " + path + " declares " +
          std::to_string(header.shard_count) + " shards, got " +
          std::to_string(paths.size()) + " files");
    const std::size_t idx = header.shard_index;
    if (seen[idx])
      throw ContractViolation("duplicate shard index " + std::to_string(idx) +
                              " (" + path + ")");
    seen[idx] = true;
    Shard& shard = shards_[idx];
    shard.path = path;
    shard.file = std::move(file);
    shard.header = header;
    shard.window = window;
    shard.offset = stream_offset(shard.file);
  }
  // Every index 0..K-1 seen exactly once (count/file-count equality above
  // makes this a completeness check), and all self-descriptions agree.
  for (const auto& shard : shards_) {
    if (shard.header.fingerprint != shards_[0].header.fingerprint)
      throw ContractViolation("shard fingerprint mismatch in " + shard.path);
    if (shard.window.start != shards_[0].window.start ||
        shard.window.end != shards_[0].window.end)
      throw ContractViolation("shard campaign window mismatch in " +
                              shard.path);
  }
  window_ = shards_[0].window;
  fingerprint_ = shards_[0].header.fingerprint;
}

ShardMergeReader::ShardMergeReader(const std::vector<std::string>& paths) {
  open_shards(paths);
  for (auto& shard : shards_) fill_head(shard);
}

ShardMergeReader::ShardMergeReader(const std::vector<std::string>& paths,
                                   const std::vector<ShardCursor>& cursors) {
  open_shards(paths);
  UNP_REQUIRE(cursors.size() == shards_.size());
  for (const auto& cursor : cursors) {
    UNP_REQUIRE(cursor.shard_index < shards_.size());
    Shard& shard = shards_[cursor.shard_index];
    UNP_REQUIRE(cursor.byte_offset >= shard.offset);
    shard.file.seekg(static_cast<std::streamoff>(cursor.byte_offset));
    if (!shard.file.good())
      throw ContractViolation("cannot seek shard " +
                              std::to_string(cursor.shard_index) + " to byte " +
                              std::to_string(cursor.byte_offset));
    shard.offset = cursor.byte_offset;
    shard.frames_read = cursor.frames_read;
  }
  for (auto& shard : shards_) fill_head(shard);
}

void ShardMergeReader::fill_head(Shard& shard) {
  if (shard.has_head || shard.done) return;
  const std::uint64_t start = shard.offset;
  const auto rethrow = [&](const DecodeError& e) {
    throw DecodeError("shard " + std::to_string(shard.header.shard_index) +
                          ": " + e.detail(),
                      e.byte_offset());
  };
  try {
    const std::uint64_t index = read_varint_at(shard.file, start);
    if (index == kEndFrame) {
      const std::uint64_t declared =
          read_varint_at(shard.file, stream_offset(shard.file));
      if (declared != shard.frames_read)
        throw DecodeError("frame count mismatch (declared " +
                              std::to_string(declared) + ", read " +
                              std::to_string(shard.frames_read) + ")",
                          start);
      shard.done = true;
      shard.end_offset = start;
      shard.offset = stream_offset(shard.file);
      return;
    }
    if (index > kEndFrame)
      throw DecodeError("node index out of range", start);
    // Frames ascend within a shard.  After a resume last_index is 0, which
    // still only rejects frames no valid resumed stream can hold.
    if (shard.frames_read > 0 && index <= shard.last_index)
      throw DecodeError("node index " + std::to_string(index) +
                            " not ascending",
                        start);
    shard.last_index = index;
    const std::uint64_t size =
        read_varint_at(shard.file, stream_offset(shard.file));
    const std::uint64_t body_start = stream_offset(shard.file);
    shard.head_body = read_exact_at(shard.file, size, body_start);
    shard.head_index = index;
    shard.head_offset = start;
    shard.has_head = true;
    shard.offset = stream_offset(shard.file);
  } catch (const DecodeError& e) {
    rethrow(e);
  }
}

ShardMergeReader::Shard* ShardMergeReader::min_head() {
  Shard* best = nullptr;
  for (auto& shard : shards_) {
    if (!shard.has_head) continue;
    if (best == nullptr || shard.head_index < best->head_index) {
      best = &shard;
    } else if (shard.head_index == best->head_index) {
      throw DecodeError(
          "node frame " + std::to_string(shard.head_index) +
              " appears in shard " +
              std::to_string(best->header.shard_index) + " and shard " +
              std::to_string(shard.header.shard_index) +
              " (overlapping partition)",
          shard.head_offset);
    }
  }
  return best;
}

bool ShardMergeReader::next_raw(std::uint64_t& node_index, std::string& body) {
  Shard* shard = min_head();
  if (shard == nullptr) return false;
  node_index = shard->head_index;
  body = std::move(shard->head_body);
  shard->head_body.clear();
  shard->has_head = false;
  ++shard->frames_read;
  ++merged_;
  fill_head(*shard);
  return true;
}

bool ShardMergeReader::next(cluster::NodeId& node, NodeLog& log) {
  Shard* shard = min_head();
  if (shard == nullptr) return false;
  const std::uint64_t index = shard->head_index;
  node = cluster::node_from_index(static_cast<int>(index));
  std::size_t pos = 0;
  try {
    log = decode_node_log(shard->head_body, pos, node);
    if (pos != shard->head_body.size())
      throw DecodeError("node frame body size mismatch", pos);
  } catch (const DecodeError& e) {
    // Re-anchor the body-relative offset to the shard file position.
    throw DecodeError("shard " + std::to_string(shard->header.shard_index) +
                          ": node frame for " + cluster::node_name(node) +
                          ": " + e.detail(),
                      shard->head_offset + e.byte_offset());
  }
  shard->head_body.clear();
  shard->has_head = false;
  ++shard->frames_read;
  ++merged_;
  fill_head(*shard);
  return true;
}

void ShardMergeReader::drain(RecordSink& sink) {
  drain_frames(window_, sink, [this](cluster::NodeId& node, NodeLog& log) {
    return next(node, log);
  });
}

std::vector<ShardCursor> ShardMergeReader::cursors() const {
  std::vector<ShardCursor> result;
  result.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardCursor cursor;
    cursor.shard_index = shard.header.shard_index;
    cursor.byte_offset = shard.has_head ? shard.head_offset
                         : shard.done   ? shard.end_offset
                                        : shard.offset;
    cursor.frames_read = shard.frames_read;
    result.push_back(cursor);
  }
  return result;
}

void merge_shard_archives(const std::vector<std::string>& paths,
                          std::ostream& os) {
  ShardMergeReader reader(paths);
  os.write(kStreamMagic, sizeof kStreamMagic);
  os.put(static_cast<char>(kStreamVersion));
  write_varint(os, zigzag_encode(reader.window().start));
  write_varint(os, zigzag_encode(reader.window().end));
  std::uint64_t node_index = 0;
  std::string body;
  std::uint64_t frames = 0;
  while (reader.next_raw(node_index, body)) {
    write_varint(os, node_index);
    write_varint(os, body.size());
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
    UNP_REQUIRE(os.good());
    ++frames;
  }
  write_varint(os, kEndFrame);
  write_varint(os, frames);
  os.flush();
  UNP_REQUIRE(os.good());
}

}  // namespace unp::telemetry
