// Compact binary encoding of one node's telemetry, plus the varint / f64 /
// zigzag primitives every binary format here is built from.
//
// The text codec is the human-facing format; a 13-month campaign serialized
// as text runs to hundreds of MB.  The node-log body stores the same records
// with varint + delta encoding (timestamps are monotone within a record
// class, addresses cluster), so a whole campaign fits in tens of MB.  The
// body carries no node index or length: the stream format that frames it
// (UNPS, telemetry/archive_io) supplies both.
//
// Format (little-endian, varint = LEB128):
//
//   node_log := section(START) section(END) section(ALLOCFAIL) section(RUNS)
//   section  := varint count { record } *
//
// Timestamps are delta-encoded within each section; temperatures are raw
// f64 bits (kNoTemperature encodes the missing reading, as in the structs).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/require.hpp"
#include "telemetry/archive.hpp"

namespace unp::telemetry {

/// Typed decode failure carrying the byte offset where the input stopped
/// making sense.  Derives from ContractViolation so existing recovery sites
/// (the bench cache's fall-back-to-simulation path) keep working, while
/// front ends can report "corrupt input at byte N" instead of a bare
/// contract trace.  `detail()` is the message without the offset suffix.
class DecodeError : public ContractViolation {
 public:
  DecodeError(const std::string& detail, std::uint64_t byte_offset)
      : ContractViolation(detail + " at byte " + std::to_string(byte_offset)),
        detail_(detail),
        byte_offset_(byte_offset) {}

  [[nodiscard]] const std::string& detail() const noexcept { return detail_; }
  [[nodiscard]] std::uint64_t byte_offset() const noexcept { return byte_offset_; }

 private:
  std::string detail_;
  std::uint64_t byte_offset_;
};

/// Append a LEB128 varint to `out` (exposed for tests).
void put_varint(std::string& out, std::uint64_t value);

/// Read a LEB128 varint; throws DecodeError on truncation, on an encoding
/// longer than 10 bytes, and on a 10-byte encoding whose final group carries
/// bits beyond the 64th (a silent-overflow input no canonical encoder emits).
/// Takes a view so decoders can run directly over mmap-backed store bytes.
[[nodiscard]] std::uint64_t get_varint(std::string_view in, std::size_t& pos);

/// Raw little-endian f64 bits (used by derived formats such as the bench
/// campaign cache that need to serialize doubles exactly).
void put_f64(std::string& out, double value);
[[nodiscard]] double get_f64(std::string_view in, std::size_t& pos);

/// ZigZag signed mapping (for timestamp deltas which may regress across
/// merged sources).
[[nodiscard]] constexpr std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
[[nodiscard]] constexpr std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>(v >> 1) ^ -static_cast<std::int64_t>(v & 1);
}

/// `a + b` in wraparound arithmetic: decoders sum deltas read from
/// untrusted bytes, where a signed add could overflow.
[[nodiscard]] constexpr std::int64_t add_wrapping(std::int64_t a,
                                                  std::int64_t b) noexcept {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

/// Tight upper bound on encode_node_log's output size, from record counts
/// alone (every field is at most a 10-byte varint or a 9-byte temperature).
/// Buffers reserved to this bound never reallocate mid-encode.
[[nodiscard]] std::size_t node_log_encoded_bound(const NodeLog& log) noexcept;

/// Serialize one node log (without the node index framing).
[[nodiscard]] std::string encode_node_log(const NodeLog& log);

/// Append encode_node_log's bytes to `out` — the hot-path form: the caller
/// reuses `out` across nodes.
void encode_node_log_into(const NodeLog& log, std::string& out);

/// Inverse of encode_node_log.
[[nodiscard]] NodeLog decode_node_log(const std::string& bytes, std::size_t& pos,
                                      cluster::NodeId node);

}  // namespace unp::telemetry
