// UNPF: persistent columnar store for extracted faults ("write once from the
// streaming pipeline, query many times without re-simulation").
//
// The live pipeline answers every question by re-simulating or re-scanning
// the flat UNPS record stream; the fault population it distills (tens of
// thousands of FaultRecords out of >25M raw logs) is tiny by comparison and
// gets interrogated over and over (Figs 1-13, Tables I-II, policy sweeps).
// UNPF stores that population column-major with per-column compression and
// per-segment zone maps, so repeated queries pay only for the columns and
// segments they touch.
//
// File layout (little-endian, varint = LEB128 via telemetry/binary_codec):
//
//   file    := magic "UNPF" u8 version
//              u64 fingerprint            (campaign cache key; provenance)
//              varint zigzag(window.start) varint zigzag(window.end)
//              scan_profile extraction_meta
//              varint segment_count directory data
//   directory := segment_count * zone_entry   (offsets relative to data)
//   data    := concatenated segment bodies
//
//   segment := varint row_count column*       (fixed column order)
//   column  := varint byte_len bytes          (skippable without decoding)
//
// Column encodings (faults arrive in canonical (time, node, address) order):
//
//   node        dictionary: ascending distinct dense node indices, then one
//               bit-packed dictionary index per row (width = bits needed for
//               the dictionary size; 0 bits when a segment holds one node)
//   first_seen  zigzag delta varints (monotone non-decreasing per stream,
//               restarted per segment so segments decode independently)
//   last_seen   varint (last_seen - first_seen) per row (always >= 0)
//   raw_logs    varint per row
//   address     zigzag delta varints (addresses cluster per node)
//   expected    varint per row        } the corruption pattern pair
//   actual      varint per row        }
//   temperature presence bitmap (1 bit per row; 0 = exact kNoTemperature),
//               then raw f64 bits for each present row
//   class       bit-packed 2-bit FaultClass per row (redundant with the
//               pattern pair, but lets multiplicity predicates run without
//               decoding two full varint columns)
//
// Every zone entry stores min/max per filterable column, enabling segment
// pruning (predicate pushdown) before any row is decoded.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/extraction.hpp"
#include "common/civil_time.hpp"
#include "common/histogram.hpp"
#include "store/kernels/kernels.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::store {

using telemetry::DecodeError;

inline constexpr char kStoreMagic[4] = {'U', 'N', 'P', 'F'};
inline constexpr std::uint8_t kStoreVersion = 1;

/// Default rows per segment.  Small enough that selective predicates prune
/// most of the campaign's segments, large enough that per-segment overhead
/// (dictionary, zone entry) stays negligible.
inline constexpr std::size_t kDefaultSegmentRows = 1024;

/// Coarse corruption-multiplicity class, bit-packed two bits per row.
enum class FaultClass : std::uint8_t {
  kSingleBit = 0,  ///< exactly 1 flipped bit
  kDoubleBit = 1,  ///< exactly 2
  kFewBit = 2,     ///< 3..8
  kManyBit = 3,    ///< > 8
};

[[nodiscard]] constexpr FaultClass classify_bits(int flipped_bits) noexcept {
  if (flipped_bits <= 1) return FaultClass::kSingleBit;
  if (flipped_bits == 2) return FaultClass::kDoubleBit;
  if (flipped_bits <= 8) return FaultClass::kFewBit;
  return FaultClass::kManyBit;
}

[[nodiscard]] const char* to_string(FaultClass c) noexcept;

/// Which columns a scan must materialize.  kColPattern covers the
/// expected/actual pair (they are only meaningful together).
enum Column : std::uint32_t {
  kColNode = 1u << 0,
  kColFirstSeen = 1u << 1,
  kColLastSeen = 1u << 2,
  kColRawLogs = 1u << 3,
  kColAddress = 1u << 4,
  kColPattern = 1u << 5,
  kColTemperature = 1u << 6,
  kColClass = 1u << 7,
};
inline constexpr std::uint32_t kAllColumns = 0xFF;

/// Zone map + location of one segment: min/max per filterable column, used
/// to skip whole segments before decoding a single row.
struct SegmentZone {
  std::uint64_t offset = 0;  ///< body start, relative to the data section
  std::uint64_t size = 0;    ///< body size in bytes
  std::uint32_t rows = 0;
  TimePoint time_min = 0, time_max = 0;          ///< first_seen
  std::uint32_t node_min = 0, node_max = 0;      ///< dense node index
  std::uint64_t addr_min = 0, addr_max = 0;      ///< virtual address
  std::uint8_t bits_min = 0, bits_max = 0;       ///< flipped-bit count
};

/// Decoded columns of one segment; vectors are empty unless requested.
struct SegmentColumns {
  std::vector<std::uint32_t> node_index;
  std::vector<TimePoint> first_seen;
  std::vector<TimePoint> last_seen;
  std::vector<std::uint64_t> raw_logs;
  std::vector<std::uint64_t> address;
  std::vector<Word> expected;
  std::vector<Word> actual;
  std::vector<double> temperature;
  std::vector<std::uint8_t> fault_class;  ///< FaultClass codes
};

// --- bit packing (LSB first) ---------------------------------------------

/// Append values packed `width` bits each (0 <= width <= 64).  A width of 0
/// writes nothing (all values must then be 0).
void pack_bits(std::string& out, std::span<const std::uint64_t> values, int width);

/// Inverse of pack_bits: read `count` values of `width` bits from
/// [pos, end); throws DecodeError when the packed block is short.  Runs on
/// the process-wide kernel set (byte-identical on every ISA).
void unpack_bits(std::string_view in, std::size_t pos, std::size_t end,
                 std::size_t count, int width, std::vector<std::uint64_t>& out);

// --- segment codec --------------------------------------------------------

/// Reusable scratch for segment encoding: the gathered column values and
/// the per-column body buffer.  One arena per builder; capacity persists
/// across segments.
struct SegmentScratch {
  std::vector<std::uint64_t> values;  ///< gathered column values
  std::vector<std::uint32_t> dict;    ///< node dictionary scratch
  std::string column;                 ///< reused column-body buffer
};

/// Encode `rows` (non-empty, canonical order) into a segment body and fill
/// `zone` (offset/size are left to the directory writer).
[[nodiscard]] std::string encode_segment(
    std::span<const analysis::FaultRecord> rows, SegmentZone& zone);

/// Hot-path form of encode_segment: append the segment body to `out`
/// directly (no body string to copy).  Sets zone.size to the body length;
/// zone.offset is left to the caller.  Output is byte-identical to
/// encode_segment.
void encode_segment_into(std::span<const analysis::FaultRecord> rows,
                         SegmentZone& zone, std::string& out,
                         SegmentScratch& arena);

/// Decode the columns selected by `columns` from the segment body at
/// [pos, pos + zone.size) of `bytes`.  Unselected columns are skipped via
/// their length prefix and left empty in `out`.  Throws DecodeError (with
/// offsets relative to `bytes`) on corrupt input.  The kernel-taking
/// overload runs the column loops on an explicit set (the perf gate
/// measures scalar vs vector through it); the other uses the process-wide
/// set.  All sets decode byte-identically.
void decode_segment(std::string_view bytes, std::size_t pos,
                    const SegmentZone& zone, std::uint32_t columns,
                    SegmentColumns& out, const kernels::StoreKernels& k);
void decode_segment(std::string_view bytes, std::size_t pos,
                    const SegmentZone& zone, std::uint32_t columns,
                    SegmentColumns& out);

/// Zone directory entry codec (offsets relative to the file's data section).
void encode_zone(std::string& out, const SegmentZone& zone);
[[nodiscard]] SegmentZone decode_zone(std::string_view in, std::size_t& pos);

// --- campaign-level metadata sections -------------------------------------

/// Scan-session metadata the figure renderers need besides the faults
/// themselves (Figs 1/2/9 and the headline are scan-side products).  Stored
/// with raw f64 bits so a store-backed report is byte-identical to the live
/// pipeline's.
struct StoredScanProfile {
  int monitored_nodes = 0;
  Grid2D hours{cluster::kStudyBlades, cluster::kSocsPerBlade};
  Grid2D terabyte_hours{cluster::kStudyBlades, cluster::kSocsPerBlade};
  std::vector<double> daily_terabyte_hours;
  double total_hours = 0.0;
  double total_terabyte_hours = 0.0;
};

/// Extraction accounting carried alongside the fault columns so headline
/// statistics (removed fraction, raw totals) replay without the raw stream.
struct StoredExtractionMeta {
  std::vector<cluster::NodeId> removed_nodes;
  std::uint64_t total_raw_logs = 0;
  std::uint64_t removed_raw_logs = 0;
};

void encode_scan_profile(std::string& out, const StoredScanProfile& profile);
[[nodiscard]] StoredScanProfile decode_scan_profile(std::string_view in,
                                                    std::size_t& pos);

void encode_extraction_meta(std::string& out, const StoredExtractionMeta& meta);
[[nodiscard]] StoredExtractionMeta decode_extraction_meta(std::string_view in,
                                                          std::size_t& pos);

}  // namespace unp::store
