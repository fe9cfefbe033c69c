// Streaming K-way merge over shard archives: the second stage of the
// sharded campaign fabric.
//
// A shard archive is a self-describing file:
//
//   shard file := magic "UNPH" u8 version
//                 varint shard_count varint shard_index
//                 u64 fingerprint          (campaign cache key; 0 = unknown)
//                 <UNPS record stream>     (telemetry/archive_io framing)
//
// The UNPS payload is written by the ordinary ArchiveWriter, so a shard
// holds exactly the frames its owned nodes would occupy in the monolithic
// stream — ascending node index, empty frames elided, end frame carrying
// the shard's frame count.
//
// ShardMergeReader opens the K files of one partition and merges them on
// the canonical sort key of the stream: the node index.  Each shard is
// node-ascending and the partition is disjoint, so the merge is a plain
// "pop the smallest head" loop — constant memory per shard (one buffered
// frame), no global sort, no materialized archive.  The merged sequence is
// byte-identical to the monolithic stream: `merge_shard_archives` copies
// the winning frame bodies verbatim into a single UNPS file, and `drain`
// replays the merged frames through any RecordSink (StreamingExtractor,
// the policy engine, StoreBuilder) with full framing.
//
// The merge is resumable: `cursors()` snapshots each shard's byte offset
// and frame count after any number of `next()` calls, and the
// cursor-taking constructor re-opens the files and seeks back to exactly
// that state.
//
// Decode failures are re-anchored to the failing shard: every DecodeError
// carries "shard I" plus the byte offset within that shard's file.
#pragma once

#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/archive_io.hpp"

namespace unp::telemetry {

inline constexpr char kShardMagic[4] = {'U', 'N', 'P', 'H'};
inline constexpr std::uint8_t kShardVersion = 1;

/// Self-description prefix of one shard archive.
struct ShardHeader {
  std::uint32_t shard_count = 1;
  std::uint32_t shard_index = 0;
  std::uint64_t fingerprint = 0;  ///< campaign cache key; 0 when unknown

  friend bool operator==(const ShardHeader&, const ShardHeader&) = default;
};

/// Write the shard prefix; the caller then attaches an ArchiveWriter to the
/// same stream for the UNPS payload.
void write_shard_header(std::ostream& os, const ShardHeader& header);

/// Read and validate the shard prefix, leaving the stream positioned at the
/// UNPS payload.  Throws DecodeError on malformed input.
[[nodiscard]] ShardHeader read_shard_header(std::istream& is);

/// Resume point of one shard within a merge: the byte offset of the next
/// unread frame and the number of frames already consumed.
struct ShardCursor {
  std::uint32_t shard_index = 0;
  std::uint64_t byte_offset = 0;  ///< into the shard file
  std::uint64_t frames_read = 0;

  friend bool operator==(const ShardCursor&, const ShardCursor&) = default;
};

/// Bounded-memory K-way merge over one partition's shard archives.
class ShardMergeReader {
 public:
  /// Open `paths` (any order), validate that they form one complete
  /// partition: K distinct shard indices 0..K-1 with equal shard_count,
  /// fingerprint and campaign window.  Throws DecodeError / ContractViolation
  /// on malformed or mismatched inputs.
  explicit ShardMergeReader(const std::vector<std::string>& paths);

  /// Re-open `paths` and resume from a `cursors()` snapshot (one cursor per
  /// shard, any order).
  ShardMergeReader(const std::vector<std::string>& paths,
                   const std::vector<ShardCursor>& cursors);

  [[nodiscard]] const CampaignWindow& window() const noexcept { return window_; }
  [[nodiscard]] std::uint64_t fingerprint() const noexcept { return fingerprint_; }
  [[nodiscard]] int shard_count() const noexcept {
    return static_cast<int>(shards_.size());
  }
  /// Frames merged out so far.
  [[nodiscard]] std::uint64_t frames_merged() const noexcept { return merged_; }

  /// Next merged frame in ascending node-index order; false at end of all
  /// shards (validates every shard's declared frame count).
  bool next(cluster::NodeId& node, NodeLog& log);

  /// Raw-frame variant of next(): hands out the winning frame's encoded
  /// body without decoding it.  merge_shard_archives uses this to copy
  /// bodies verbatim, making the merged UNPS byte-identical to a
  /// monolithic spill.
  bool next_raw(std::uint64_t& node_index, std::string& body);

  /// Push the whole (remaining) merged stream through `sink` with full
  /// RecordSink framing, one bulk on_node_log per frame.
  void drain(RecordSink& sink);

  /// Resume snapshot: the position of every shard, ascending shard index.
  [[nodiscard]] std::vector<ShardCursor> cursors() const;

 private:
  struct Shard {
    std::string path;
    std::ifstream file;
    ShardHeader header;
    CampaignWindow window{};
    std::uint64_t offset = 0;       ///< bytes consumed of the file
    std::uint64_t frames_read = 0;  ///< frames consumed (excl. end frame)
    // One buffered frame (constant memory per shard).
    bool has_head = false;
    bool done = false;
    std::uint64_t head_index = 0;
    std::uint64_t last_index = 0;   ///< node index of the last frame read
    std::uint64_t head_offset = 0;  ///< file offset of the buffered frame
    std::uint64_t end_offset = 0;   ///< file offset of the end frame
    std::string head_body;
  };

  void open_shards(const std::vector<std::string>& paths);
  void fill_head(Shard& shard);
  /// Shard holding the smallest head node index, or nullptr when drained.
  Shard* min_head();

  std::vector<Shard> shards_;  ///< ascending shard index
  CampaignWindow window_{};
  std::uint64_t fingerprint_ = 0;
  std::uint64_t merged_ = 0;
};

/// Merge shard archives into one monolithic UNPS stream, byte-identical to
/// the stream a monolithic campaign run would spill: frame bodies are
/// copied verbatim in merged order under a fresh header/end-frame.
void merge_shard_archives(const std::vector<std::string>& paths,
                          std::ostream& os);

}  // namespace unp::telemetry
