// Internal: what the per-ISA store kernel translation units share.  Each
// defines its set (kernel_set, kernels.hpp) behind an architecture guard.
#pragma once

#include <bit>
#include <cstring>

#if defined(__BMI2__)
#include <immintrin.h>
#endif

#include "store/kernels/kernels.hpp"

namespace unp::store::kernels {

// Scalar building blocks the vector TUs reuse for tails and mixed blocks.
// decode_varints_scalar IS telemetry::get_varint in a loop, so it defines
// the error contract every other path must reproduce.
[[nodiscard]] std::size_t decode_varints_scalar(std::string_view in,
                                                std::size_t pos,
                                                std::size_t count,
                                                std::uint64_t* out);
void unpack_bits_scalar(const unsigned char* base, std::size_t count,
                        int width, std::uint64_t* out);
[[nodiscard]] std::size_t decode_zigzag_deltas_scalar(std::string_view in,
                                                      std::size_t pos,
                                                      std::size_t count,
                                                      std::uint64_t base,
                                                      std::uint64_t* out);

/// zigzag_decode in wraparound u64 arithmetic: the same bits as the signed
/// form without the signed-overflow UB an accumulating loop would risk.
[[nodiscard]] inline std::uint64_t zigzag_delta_u64(std::uint64_t v) {
  return (v >> 1) ^ (std::uint64_t{0} - (v & 1));
}

/// Decode every whole varint in the first kWindow-8 bytes of a block from
/// its continuation mask alone — value j's byte length is the run of set
/// continuation bits at its offset, plus one.  Each value is one unaligned
/// 8-byte load masked to its length, then three SWAR steps compacting the
/// 7-bit payload groups: no per-value reload, no per-byte loop, and — the
/// property that matters on mixed 1-/2-byte streams — no data-dependent
/// branch for the length, which would mispredict on nearly every value.
/// Handles values up to 8 bytes (56 payload bits); longer values and the
/// window tail are left to the caller.  The block's first value exceeding
/// 8 bytes is the one case that consumes nothing; callers must then funnel
/// that value through the scalar oracle (telemetry::get_varint) for
/// progress and identical DecodeError offsets.  Advances *i (and, for the
/// zigzag-prefix variant, *prev) as it emits; returns the bytes consumed.
template <bool kZigzagPrefix, int kWindow>
inline std::size_t decode_varint_window(const unsigned char* p,
                                        std::uint32_t cont, std::size_t limit,
                                        std::size_t* i, std::uint64_t* prev,
                                        std::uint64_t* out) {
  static_assert(kWindow == 16 || kWindow == 32);
  std::size_t n = *i;
  std::uint64_t acc = *prev;
  // A clear continuation bit marks the *final* byte of a value, so the set
  // bits of ~cont are the value boundaries; walking them with countr_zero +
  // clear-lowest-bit pipelines across values, where a running shift+count
  // of cont itself would serialize on every value's length.
  std::uint32_t ends = static_cast<std::uint32_t>(~cont) &
                       (kWindow == 32 ? 0xffffffffu : 0xffffu);
  std::size_t start = 0;
  while (ends != 0 && n < limit) {
    const auto end = static_cast<std::size_t>(std::countr_zero(ends));
    const std::size_t len = end + 1 - start;
    // start + 8 <= kWindow keeps the wide load inside the caller's block.
    if (len > 8 || start + 8 > static_cast<std::size_t>(kWindow)) break;
    std::uint64_t x;
    std::memcpy(&x, p + start, 8);  // little-endian: byte j at bits 8j
    const std::uint64_t payload =
        0x7f7f7f7f7f7f7f7full & (~std::uint64_t{0} >> ((8 - len) * 8));
#if defined(__BMI2__)
    // TUs built with -mbmi2 (the avx2 set; dispatch checks the cpuid bit):
    // one pext concatenates the 7-bit payload groups.
    x = _pext_u64(x, payload);
#else
    x &= payload;
    x = ((x & 0x7f007f007f007f00ull) >> 1) | (x & 0x007f007f007f007full);
    x = ((x & 0x3fff00003fff0000ull) >> 2) | (x & 0x00003fff00003fffull);
    x = ((x & 0x0fffffff00000000ull) >> 4) | (x & 0x000000000fffffffull);
#endif
    if constexpr (kZigzagPrefix) {
      acc += zigzag_delta_u64(x);
      out[n++] = acc;
    } else {
      out[n++] = x;
    }
    start = end + 1;
    ends &= ends - 1;
  }
  *i = n;
  *prev = acc;
  return start;
}

}  // namespace unp::store::kernels
