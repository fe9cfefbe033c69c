// The telemetry varint encoder: one scalar LEB128 loop behind the
// block-buffered VarintWriter.
//
// Every binary format here (UNPS node-log bodies, the UNPC tail, UNPF store
// columns) writes its integers as LEB128 varints, most of them
// zigzag-delta chains.  encode_varint is the one loop that produces those
// bytes; put_varint appends through it, and VarintWriter batches its
// output into one append per ~half-KiB block instead of one push_back per
// byte.  There is no per-ISA encode set: vector payload expansion (pdep,
// SWAR) measured no end-to-end gain over this loop (DESIGN.md §16), so
// UNP_KERNEL steers only the scanner and store kernel families.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace unp::telemetry::kernels {

/// Encode one LEB128 varint at `dst` and return its length (1..10 bytes).
/// `dst` must have 10 writable bytes.
[[nodiscard]] inline std::size_t encode_varint(std::uint64_t value,
                                               char* dst) noexcept {
  std::size_t n = 0;
  while (value >= 0x80) {
    dst[n++] = static_cast<char>((value & 0x7F) | 0x80);
    value >>= 7;
  }
  dst[n++] = static_cast<char>(value);
  return n;
}

/// Append `count` LEB128 varints to `out`.
void encode_varints(const std::uint64_t* values, std::size_t count,
                    std::string& out);

/// Fused delta+zigzag+varint encode of a run: append, for each i,
/// varint(zigzag(values[i] - prev)) with prev starting at `base`, in
/// wraparound u64 arithmetic — the same bits as the signed
/// zigzag_encode(int64 delta) without the signed-overflow UB.  This is the
/// encoder of the UNPF first_seen / address columns.
void encode_zigzag_deltas(const std::uint64_t* values, std::size_t count,
                          std::uint64_t base, std::string& out);

/// The encoder's entry points as one value, for callers that name the set.
struct EncodeKernels {
  std::size_t (*encode_varint)(std::uint64_t, char*) noexcept = nullptr;
  void (*encode_varints)(const std::uint64_t*, std::size_t,
                         std::string&) = nullptr;
  void (*encode_zigzag_deltas)(const std::uint64_t*, std::size_t,
                               std::uint64_t, std::string&) = nullptr;
};

/// The one encode set.
[[nodiscard]] const EncodeKernels& active_encode_kernels() noexcept;

/// Block-buffered writer for interleaved sections (the node-log body codec
/// mixes timestamps, varint fields and raw f64 temperature bytes per
/// record): one append per ~half-KiB block instead of one push_back per
/// byte.  Call flush() (or destroy the writer) before touching `out`
/// directly.
class VarintWriter {
 public:
  explicit VarintWriter(std::string& out) noexcept : out_(&out) {}
  VarintWriter(const VarintWriter&) = delete;
  VarintWriter& operator=(const VarintWriter&) = delete;
  ~VarintWriter() { flush(); }

  void varint(std::uint64_t value) {
    ensure(10);
    used_ += encode_varint(value, buffer_ + used_);
  }
  void byte(char c) {
    ensure(1);
    buffer_[used_++] = c;
  }
  void f64(double value);

  /// Spill the buffered bytes to the destination string.
  void flush();

 private:
  void ensure(std::size_t need) {
    if (kBuffer - used_ < need) flush();
  }

  static constexpr std::size_t kBuffer = 512;
  std::string* out_;
  std::size_t used_ = 0;
  char buffer_[kBuffer];
};

}  // namespace unp::telemetry::kernels
