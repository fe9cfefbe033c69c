#include "telemetry/shard_merge.hpp"

#include <cstring>
#include <ostream>

#include "common/require.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {

namespace {

DecodeError in_shard(std::uint32_t shard_index, const DecodeError& e) {
  return DecodeError("shard " + std::to_string(shard_index) + ": " + e.detail(),
                     e.byte_offset());
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
  const std::uint64_t count = read_varint(is);
  std::uint64_t offset = stream_offset(is);
  const std::uint64_t index = read_varint(is);
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

ShardMergeReader::ShardMergeReader(const std::vector<std::string>& paths) {
  UNP_REQUIRE(!paths.empty());
  shards_.resize(paths.size());
  for (const auto& path : paths) {
    auto shard = std::make_unique<Shard>();
    shard->path = path;
    shard->file.open(path, std::ios::binary);
    if (!shard->file.good())
      throw ContractViolation("cannot open shard archive " + path);
    try {
      shard->header = read_shard_header(shard->file);
      shard->reader.emplace(shard->file);
    } catch (const DecodeError& e) {
      throw DecodeError("shard archive " + path + ": " + e.detail(),
                        e.byte_offset());
    }
    if (shard->header.shard_count != paths.size())
      throw ContractViolation(
          "shard archive " + path + " declares " +
          std::to_string(shard->header.shard_count) + " shards, got " +
          std::to_string(paths.size()) + " files");
    const std::size_t idx = shard->header.shard_index;
    if (shards_[idx])
      throw ContractViolation("duplicate shard index " + std::to_string(idx) +
                              " (" + path + ")");
    shards_[idx] = std::move(shard);
  }
  // Every index 0..K-1 seen exactly once (count/file-count equality above
  // makes this a completeness check), and all self-descriptions agree.
  const Shard& first = *shards_[0];
  for (const auto& shard : shards_) {
    if (shard->header.fingerprint != first.header.fingerprint)
      throw ContractViolation("shard fingerprint mismatch in " + shard->path);
    if (shard->reader->window().start != first.reader->window().start ||
        shard->reader->window().end != first.reader->window().end)
      throw ContractViolation("shard campaign window mismatch in " +
                              shard->path);
  }
  window_ = first.reader->window();
  fingerprint_ = first.header.fingerprint;
  for (auto& shard : shards_) fill_head(*shard);
}

void ShardMergeReader::fill_head(Shard& shard) {
  try {
    shard.has_head = shard.reader->next_raw(shard.head_index, shard.head_body);
  } catch (const DecodeError& e) {
    throw in_shard(shard.header.shard_index, e);
  }
}

ShardMergeReader::Shard* ShardMergeReader::min_head() {
  Shard* best = nullptr;
  for (auto& shard : shards_) {
    if (!shard->has_head) continue;
    if (best == nullptr || shard->head_index < best->head_index) {
      best = shard.get();
    } else if (shard->head_index == best->head_index) {
      throw DecodeError(
          "node frame " + std::to_string(shard->head_index) +
              " appears in shard " +
              std::to_string(best->header.shard_index) + " and shard " +
              std::to_string(shard->header.shard_index) +
              " (overlapping partition)",
          shard->reader->frame_offset());
    }
  }
  return best;
}

bool ShardMergeReader::next_raw(std::uint64_t& node_index, std::string& body) {
  Shard* shard = min_head();
  if (shard == nullptr) return false;
  node_index = shard->head_index;
  body.swap(shard->head_body);
  ++merged_;
  fill_head(*shard);
  return true;
}

bool ShardMergeReader::next(cluster::NodeId& node, NodeLog& log) {
  Shard* shard = min_head();
  if (shard == nullptr) return false;
  node = cluster::node_from_index(static_cast<int>(shard->head_index));
  try {
    log = shard->reader->decode_body(node, shard->head_body);
  } catch (const DecodeError& e) {
    throw in_shard(shard->header.shard_index, e);
  }
  ++merged_;
  fill_head(*shard);
  return true;
}

void ShardMergeReader::drain(RecordSink& sink) {
  drain_frames(window_, sink, [this](cluster::NodeId& node, NodeLog& log) {
    return next(node, log);
  });
}

void merge_shard_archives(const std::vector<std::string>& paths,
                          std::ostream& os) {
  ShardMergeReader reader(paths);
  ArchiveWriter writer(os);
  writer.begin_campaign(reader.window());
  std::uint64_t node_index = 0;
  std::string body;
  while (reader.next_raw(node_index, body)) writer.write_frame(node_index, body);
  writer.finish();
}

}  // namespace unp::telemetry
