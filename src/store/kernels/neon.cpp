// NEON store kernels (AArch64; Advanced SIMD is architectural there).
//
// Same structure as the SSE2 set: vmaxv over the continuation bits
// classifies 16 varint bytes at once; all-clear blocks widen to u64 lanes
// with vmovl chains, mixed blocks funnel through the scalar oracle.
#if defined(__aarch64__)

#include <arm_neon.h>

#include "store/kernels/kernel_table.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::store::kernels {
namespace {

/// Widen 16 bytes to 16 u64 lanes (zero-extended).
inline void widen16(uint8x16_t block, std::uint64_t* out) {
  const uint16x8_t w0 = vmovl_u8(vget_low_u8(block));
  const uint16x8_t w1 = vmovl_u8(vget_high_u8(block));
  const uint32x4_t d0 = vmovl_u16(vget_low_u16(w0));
  const uint32x4_t d1 = vmovl_u16(vget_high_u16(w0));
  const uint32x4_t d2 = vmovl_u16(vget_low_u16(w1));
  const uint32x4_t d3 = vmovl_u16(vget_high_u16(w1));
  vst1q_u64(out + 0, vmovl_u32(vget_low_u32(d0)));
  vst1q_u64(out + 2, vmovl_u32(vget_high_u32(d0)));
  vst1q_u64(out + 4, vmovl_u32(vget_low_u32(d1)));
  vst1q_u64(out + 6, vmovl_u32(vget_high_u32(d1)));
  vst1q_u64(out + 8, vmovl_u32(vget_low_u32(d2)));
  vst1q_u64(out + 10, vmovl_u32(vget_high_u32(d2)));
  vst1q_u64(out + 12, vmovl_u32(vget_low_u32(d3)));
  vst1q_u64(out + 14, vmovl_u32(vget_high_u32(d3)));
}

std::size_t decode_varints_neon(std::string_view in, std::size_t pos,
                                std::size_t count, std::uint64_t* out) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(in.data());
  std::size_t i = 0;
  while (i < count) {
    if (count - i >= 16 && pos + 16 <= in.size()) {
      const uint8x16_t block = vld1q_u8(bytes + pos);
      if (vmaxvq_u8(block) < 0x80) {  // no continuation bit anywhere
        widen16(block, out + i);
        pos += 16;
        i += 16;
        continue;
      }
      // Widen the leading single-byte run, then let the oracle take the
      // first multi-byte value (identical DecodeError behaviour).
      while (bytes[pos] < 0x80) {
        out[i++] = bytes[pos++];
      }
      out[i++] = telemetry::get_varint(in, pos);
      continue;
    }
    out[i++] = telemetry::get_varint(in, pos);
  }
  return pos;
}

std::size_t decode_zigzag_deltas_neon(std::string_view in, std::size_t pos,
                                      std::size_t count, std::uint64_t base,
                                      std::uint64_t* out) {
  // Chunk through the vector varint decoder, then zigzag-accumulate in
  // place; composition keeps the DecodeError contract of the decode path.
  std::uint64_t prev = base;
  std::size_t i = 0;
  while (i < count) {
    const std::size_t chunk =
        count - i < std::size_t{256} ? count - i : std::size_t{256};
    pos = decode_varints_neon(in, pos, chunk, out + i);
    for (std::size_t j = 0; j < chunk; ++j) {
      prev += zigzag_delta_u64(out[i + j]);
      out[i + j] = prev;
    }
    i += chunk;
  }
  return pos;
}

void unpack_bits_neon(const unsigned char* base, std::size_t count, int width,
                      std::uint64_t* out) {
  std::size_t i = 0;
  switch (width) {
    case 1:
      for (; i + 8 <= count; i += 8) {
        const unsigned b = base[i >> 3];
        for (int j = 0; j < 8; ++j) out[i + static_cast<std::size_t>(j)] =
            (b >> j) & 1u;
      }
      break;
    case 2:
      for (; i + 4 <= count; i += 4) {
        const unsigned b = base[i >> 2];
        out[i] = b & 3u;
        out[i + 1] = (b >> 2) & 3u;
        out[i + 2] = (b >> 4) & 3u;
        out[i + 3] = (b >> 6) & 3u;
      }
      break;
    case 4:
      for (; i + 2 <= count; i += 2) {
        const unsigned b = base[i >> 1];
        out[i] = b & 15u;
        out[i + 1] = (b >> 4) & 15u;
      }
      break;
    case 8:
      for (; i + 16 <= count; i += 16) widen16(vld1q_u8(base + i), out + i);
      break;
    default:
      break;
  }
  if (i < count) {
    const std::size_t bits = i * static_cast<std::size_t>(width);
    unpack_bits_scalar(base + (bits >> 3), count - i, width, out + i);
  }
}

void mask_range_u32_neon(const std::uint32_t* v, std::size_t n,
                         std::uint32_t lo, std::uint32_t hi,
                         std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>(lo <= v[i] && v[i] <= hi);
}

void mask_range_i64_neon(const std::int64_t* v, std::size_t n, std::int64_t lo,
                         std::int64_t hi, std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>(lo <= v[i] && v[i] <= hi);
}

void mask_class_neon(const std::uint8_t* codes, std::size_t n,
                     std::uint8_t allowed, std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>((allowed >> codes[i]) & 1);
}

}  // namespace

const StoreKernels& kernel_set(
    simd::KernelTag<StoreKernels, Isa::kNeon>) noexcept {
  static constexpr StoreKernels kSet{
      Isa::kNeon,          "neon",
      decode_varints_neon, unpack_bits_neon,
      mask_range_u32_neon, mask_range_i64_neon,
      mask_class_neon,     decode_zigzag_deltas_neon,
  };
  return kSet;
}

}  // namespace unp::store::kernels

#endif  // __aarch64__
