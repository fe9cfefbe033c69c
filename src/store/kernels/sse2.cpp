// SSE2 store kernels (x86-64 baseline: always compiled in, always runnable).
//
// The varint fast path classifies 16 input bytes with one movemask: a zero
// mask means 16 single-byte values, widened to u64 lanes with unpack
// chains; otherwise the leading single-byte run is widened and the first
// multi-byte value goes through the scalar oracle (identical DecodeError
// behaviour by construction).
#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <bit>

#include "store/kernels/kernel_table.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::store::kernels {
namespace {

/// Widen 16 bytes to 16 u64 lanes (zero-extended).
inline void widen16(__m128i block, std::uint64_t* out) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i w0 = _mm_unpacklo_epi8(block, zero);  // bytes 0..7  as u16
  const __m128i w1 = _mm_unpackhi_epi8(block, zero);  // bytes 8..15 as u16
  const __m128i d0 = _mm_unpacklo_epi16(w0, zero);    // bytes 0..3  as u32
  const __m128i d1 = _mm_unpackhi_epi16(w0, zero);
  const __m128i d2 = _mm_unpacklo_epi16(w1, zero);
  const __m128i d3 = _mm_unpackhi_epi16(w1, zero);
  auto* o = reinterpret_cast<__m128i*>(out);
  _mm_storeu_si128(o + 0, _mm_unpacklo_epi32(d0, zero));
  _mm_storeu_si128(o + 1, _mm_unpackhi_epi32(d0, zero));
  _mm_storeu_si128(o + 2, _mm_unpacklo_epi32(d1, zero));
  _mm_storeu_si128(o + 3, _mm_unpackhi_epi32(d1, zero));
  _mm_storeu_si128(o + 4, _mm_unpacklo_epi32(d2, zero));
  _mm_storeu_si128(o + 5, _mm_unpackhi_epi32(d2, zero));
  _mm_storeu_si128(o + 6, _mm_unpacklo_epi32(d3, zero));
  _mm_storeu_si128(o + 7, _mm_unpackhi_epi32(d3, zero));
}

std::size_t decode_varints_sse2(std::string_view in, std::size_t pos,
                                std::size_t count, std::uint64_t* out) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(in.data());
  std::size_t i = 0;
  while (i < count) {
    if (count - i >= 16 && pos + 16 <= in.size()) {
      const __m128i block =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + pos));
      const unsigned cont =
          static_cast<unsigned>(_mm_movemask_epi8(block));  // continuation bits
      if (cont == 0) {
        widen16(block, out + i);
        pos += 16;
        i += 16;
        continue;
      }
      std::uint64_t unused = 0;
      pos += decode_varint_window<false, 16>(bytes + pos, cont, count, &i,
                                             &unused, out);
      if (i < count && std::countr_one(cont) + 1 > 8)
        out[i++] = telemetry::get_varint(in, pos);  // oversized first value
      continue;
    }
    out[i++] = telemetry::get_varint(in, pos);
  }
  return pos;
}

std::size_t decode_zigzag_deltas_sse2(std::string_view in, std::size_t pos,
                                      std::size_t count, std::uint64_t base,
                                      std::uint64_t* out) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(in.data());
  std::uint64_t prev = base;
  std::size_t i = 0;
  while (i < count) {
    if (count - i >= 16 && pos + 16 <= in.size()) {
      const __m128i block =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(bytes + pos));
      const auto cont = static_cast<std::uint32_t>(_mm_movemask_epi8(block));
      pos += decode_varint_window<true, 16>(bytes + pos, cont, count, &i,
                                            &prev, out);
      if (i < count && std::countr_one(cont) + 1 > 8) {
        prev += zigzag_delta_u64(telemetry::get_varint(in, pos));
        out[i++] = prev;
      }
      continue;
    }
    prev += zigzag_delta_u64(telemetry::get_varint(in, pos));
    out[i++] = prev;
  }
  return pos;
}

void unpack_bits_sse2(const unsigned char* base, std::size_t count, int width,
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
      for (; i + 16 <= count; i += 16)
        widen16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(base + i)),
                out + i);
      break;
    default:
      break;
  }
  if (i < count) {
    // Tail (and every width without a fast path) via the bit-cursor oracle,
    // restarted at the current bit offset — which is byte-aligned for every
    // fast-path width, so handing it `base + bytes consumed` is exact.
    const std::size_t bits = i * static_cast<std::size_t>(width);
    unpack_bits_scalar(base + (bits >> 3), count - i, width, out + i);
  }
}

void mask_range_u32_sse2(const std::uint32_t* v, std::size_t n,
                         std::uint32_t lo, std::uint32_t hi,
                         std::uint8_t* mask) {
  const __m128i bias = _mm_set1_epi32(static_cast<int>(0x80000000u));
  const __m128i vlo = _mm_set1_epi32(static_cast<int>(lo ^ 0x80000000u));
  const __m128i vhi = _mm_set1_epi32(static_cast<int>(hi ^ 0x80000000u));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i x = _mm_xor_si128(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(v + i)), bias);
    const __m128i below = _mm_cmpgt_epi32(vlo, x);
    const __m128i above = _mm_cmpgt_epi32(x, vhi);
    const __m128i out_of_range = _mm_or_si128(below, above);
    const unsigned bits = static_cast<unsigned>(
        _mm_movemask_ps(_mm_castsi128_ps(out_of_range)));
    for (int j = 0; j < 4; ++j) mask[i + static_cast<std::size_t>(j)] &=
        static_cast<std::uint8_t>(((bits >> j) & 1u) ^ 1u);
  }
  for (; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>(lo <= v[i] && v[i] <= hi);
}

void mask_range_i64_sse2(const std::int64_t* v, std::size_t n, std::int64_t lo,
                         std::int64_t hi, std::uint8_t* mask) {
  // SSE2 has no 64-bit compare; the scalar form is branch-free already.
  for (std::size_t i = 0; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>(lo <= v[i] && v[i] <= hi);
}

void mask_class_sse2(const std::uint8_t* codes, std::size_t n,
                     std::uint8_t allowed, std::uint8_t* mask) {
  for (std::size_t i = 0; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>((allowed >> codes[i]) & 1);
}

}  // namespace

const StoreKernels& kernel_set(
    simd::KernelTag<StoreKernels, Isa::kSse2>) noexcept {
  static constexpr StoreKernels kSet{
      Isa::kSse2,          "sse2",
      decode_varints_sse2, unpack_bits_sse2,
      mask_range_u32_sse2, mask_range_i64_sse2,
      mask_class_sse2,     decode_zigzag_deltas_sse2,
  };
  return kSet;
}

}  // namespace unp::store::kernels

#endif  // x86-64
