// SIMD batched encode kernels for the telemetry hot path.
//
// Campaign generation spends its producer time in the inverse of the store's
// decode loops: LEB128 varint *encoding* of record fields and zigzag-delta
// timestamp/address runs, one byte-at-a-time push_back per group in the
// original put_varint loop.  This module lifts that loop into per-ISA kernel
// sets mirroring src/store/kernels (scalar / sse2 / avx2 / neon) under the
// same resolution machinery (common/simd_dispatch): one process-wide ISA
// decision, the same UNP_KERNEL override, the same fallback warnings.
//
// The encode fast path is the decoder's pext trick run backwards: a value
// of at most 56 significant bits has length ceil(bit_width / 7), its payload
// spreads into 7-bit groups with one pdep (AVX2 tier, -mbmi2) or three SWAR
// expansion steps (sse2/neon tiers), and the continuation bits are a single
// mask OR'd in — one unaligned 8-byte store instead of up to eight
// data-dependent push_backs.  Values needing 9-10 bytes take the scalar
// loop.  Because the fast path emits exactly the canonical LEB128 group
// sequence, every tier's output is byte-identical to put_varint BY
// CONSTRUCTION — the scalar set IS the put_varint loop, and the vector sets
// produce the same bytes faster.  Batch kernels additionally pack runs of
// eight single-byte values with one 8-byte store.
//
// All kernel appends funnel through kernel_append, which counts destination
// reallocation into a process-wide debug counter so tests can assert that
// pre-sized encode buffers (node_log_encoded_bound, segment bounds) never
// grow mid-encode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/simd_dispatch.hpp"

namespace unp::telemetry::kernels {

/// Shared ISA vocabulary (detection, UNP_KERNEL, active_isa latch).
using Isa = simd::Isa;

/// Encode one LEB128 varint at `dst` and return its length (1..10 bytes).
/// `dst` must have at least 16 writable bytes: the fast path stores a full
/// 8-byte block and lets the next value overwrite the slack.
using EncodeVarintFn = std::size_t (*)(std::uint64_t value, char* dst);

/// Append `count` LEB128 varints to `out` (byte-identical to a put_varint
/// loop over the same values).
using EncodeVarintsFn = void (*)(const std::uint64_t* values, std::size_t count,
                                 std::string& out);

/// Fused delta+zigzag+varint encode of a run: append, for each i,
/// varint(zigzag(values[i] - prev)) with prev starting at `base`, in
/// wraparound u64 arithmetic — the same bits as the signed
/// zigzag_encode(int64 delta) the scalar writers computed.  This is the
/// encoder of the node-log body timestamp sections and the UNPF first_seen /
/// address columns.
using EncodeZigzagDeltasFn = void (*)(const std::uint64_t* values,
                                      std::size_t count, std::uint64_t base,
                                      std::string& out);

/// One ISA's encode kernel set.  All sets emit byte-identical output; only
/// throughput differs.
struct EncodeKernels {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  EncodeVarintFn encode_varint = nullptr;
  EncodeVarintsFn encode_varints = nullptr;
  EncodeZigzagDeltasFn encode_zigzag_deltas = nullptr;
};

/// Kernel set for `isa`; requires simd::is_supported(isa).
[[nodiscard]] const EncodeKernels& encode_kernels_for(Isa isa);

/// The process-wide set: resolved once alongside the scanner's and the
/// store's from cpuid/HWCAP and the UNP_KERNEL override.
[[nodiscard]] const EncodeKernels& active_encode_kernels();

/// Append through the growth-counting choke point: bumps the debug counter
/// when the append must reallocate `out`.  Every kernel byte lands here.
void kernel_append(std::string& out, const char* data, std::size_t size);

/// Number of kernel_append calls that reallocated their destination since
/// the last reset.  Debug instrumentation for the pre-sizing contract
/// (buffers reserved from node_log_encoded_bound must never grow).
[[nodiscard]] std::uint64_t encode_growth_count() noexcept;
void reset_encode_growth_count() noexcept;

/// Block-buffered single-value writer for interleaved sections (the
/// node-log body codec mixes timestamps, varint fields, and raw f64
/// temperature bytes per record, so batch kernels cannot run; this writer
/// gives those sections the branch-free encode_varint fast path plus one
/// append per ~half-KiB block instead of one push_back per byte).  Call flush() (or
/// destroy the writer) before touching `out` directly.
class VarintWriter {
 public:
  VarintWriter(std::string& out, const EncodeKernels& kernels) noexcept
      : out_(&out), kernels_(&kernels) {}
  VarintWriter(const VarintWriter&) = delete;
  VarintWriter& operator=(const VarintWriter&) = delete;
  ~VarintWriter() { flush(); }

  void varint(std::uint64_t value) {
    ensure(10);
    used_ += kernels_->encode_varint(value, buffer_ + used_);
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
    if (kBuffer - used_ < need + 8) flush();
  }

  static constexpr std::size_t kBuffer = 512;
  std::string* out_;
  const EncodeKernels* kernels_;
  std::size_t used_ = 0;
  char buffer_[kBuffer + 16];
};

}  // namespace unp::telemetry::kernels
