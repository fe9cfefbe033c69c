// AVX2 store kernels.  Compiled with -mavx2 (see CMakeLists) and reached
// only through the dispatcher's runtime cpuid check.
//
// Same structure as the SSE2 set with 32-byte blocks: one 256-bit movemask
// classifies 32 varint bytes at once, and vpmovzxbq widens four bytes to
// four u64 lanes per step.  Mixed blocks funnel through the scalar oracle
// so DecodeError offsets stay identical.
#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <bit>
#include <cstring>

#include "store/kernels/kernel_table.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::store::kernels {
namespace {

/// Widen 4 bytes at `p` to 4 u64 lanes.
inline __m256i widen4(const unsigned char* p) {
  std::uint32_t quad;
  std::memcpy(&quad, p, sizeof quad);
  return _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(quad)));
}

inline void widen32(const unsigned char* p, std::uint64_t* out) {
  auto* o = reinterpret_cast<__m256i*>(out);
  for (int g = 0; g < 8; ++g)
    _mm256_storeu_si256(o + g, widen4(p + 4 * g));
}

/// Zigzag-decode 4 u64 lanes: (v >> 1) ^ -(v & 1).
inline __m256i zigzag4(__m256i v) {
  const __m256i sign = _mm256_sub_epi64(
      _mm256_setzero_si256(),
      _mm256_and_si256(v, _mm256_set1_epi64x(1)));
  return _mm256_xor_si256(_mm256_srli_epi64(v, 1), sign);
}

std::size_t decode_zigzag_deltas_avx2(std::string_view in, std::size_t pos,
                                      std::size_t count, std::uint64_t base,
                                      std::uint64_t* out) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(in.data());
  std::uint64_t prev = base;
  std::size_t i = 0;
  while (i < count) {
    if (count - i >= 32 && pos + 32 <= in.size()) {
      const __m256i block = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bytes + pos));
      const auto cont =
          static_cast<std::uint32_t>(_mm256_movemask_epi8(block));
      if (cont == 0) {
        // 32 single-byte deltas: widen + zigzag vectorized, then one
        // unrolled accumulate — no scratch buffer, no second pass.
        alignas(32) std::uint64_t z[32];
        auto* zo = reinterpret_cast<__m256i*>(z);
        for (int g = 0; g < 8; ++g)
          _mm256_store_si256(zo + g, zigzag4(widen4(bytes + pos + 4 * g)));
        for (int j = 0; j < 32; ++j) {
          prev += z[j];
          out[i + static_cast<std::size_t>(j)] = prev;
        }
        pos += 32;
        i += 32;
        continue;
      }
      pos += decode_varint_window<true, 32>(bytes + pos, cont, count, &i,
                                            &prev, out);
      if (i < count && std::countr_one(cont) + 1 > 8) {
        // Oversized first value: the oracle decodes it (or throws the
        // oracle's DecodeError) and guarantees forward progress.
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

std::size_t decode_varints_avx2(std::string_view in, std::size_t pos,
                                std::size_t count, std::uint64_t* out) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(in.data());
  std::size_t i = 0;
  while (i < count) {
    if (count - i >= 32 && pos + 32 <= in.size()) {
      const __m256i block = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(bytes + pos));
      const auto cont = static_cast<std::uint32_t>(
          _mm256_movemask_epi8(block));  // continuation bits, one per byte
      if (cont == 0) {
        widen32(bytes + pos, out + i);
        pos += 32;
        i += 32;
        continue;
      }
      std::uint64_t unused = 0;
      pos += decode_varint_window<false, 32>(bytes + pos, cont, count, &i,
                                             &unused, out);
      if (i < count && std::countr_one(cont) + 1 > 8)
        out[i++] = telemetry::get_varint(in, pos);  // oversized first value
      continue;
    }
    out[i++] = telemetry::get_varint(in, pos);
  }
  return pos;
}

void unpack_bits_avx2(const unsigned char* base, std::size_t count, int width,
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
    case 2: {
      // One byte -> four u64 lanes via a per-lane variable shift.
      const __m256i shifts = _mm256_set_epi64x(6, 4, 2, 0);
      const __m256i three = _mm256_set1_epi64x(3);
      for (; i + 4 <= count; i += 4) {
        const __m256i b =
            _mm256_set1_epi64x(static_cast<long long>(base[i >> 2]));
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(out + i),
            _mm256_and_si256(_mm256_srlv_epi64(b, shifts), three));
      }
      break;
    }
    case 4:
      for (; i + 2 <= count; i += 2) {
        const unsigned b = base[i >> 1];
        out[i] = b & 15u;
        out[i + 1] = (b >> 4) & 15u;
      }
      break;
    case 8:
      for (; i + 32 <= count; i += 32) widen32(base + i, out + i);
      break;
    default:
      break;
  }
  if (i < count) {
    const std::size_t bits = i * static_cast<std::size_t>(width);
    unpack_bits_scalar(base + (bits >> 3), count - i, width, out + i);
  }
}

void mask_range_u32_avx2(const std::uint32_t* v, std::size_t n,
                         std::uint32_t lo, std::uint32_t hi,
                         std::uint8_t* mask) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo ^ 0x80000000u));
  const __m256i vhi = _mm256_set1_epi32(static_cast<int>(hi ^ 0x80000000u));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i)), bias);
    const __m256i below = _mm256_cmpgt_epi32(vlo, x);
    const __m256i above = _mm256_cmpgt_epi32(x, vhi);
    const unsigned bits = static_cast<unsigned>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_or_si256(below, above))));
    for (int j = 0; j < 8; ++j) mask[i + static_cast<std::size_t>(j)] &=
        static_cast<std::uint8_t>(((bits >> j) & 1u) ^ 1u);
  }
  for (; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>(lo <= v[i] && v[i] <= hi);
}

void mask_range_i64_avx2(const std::int64_t* v, std::size_t n, std::int64_t lo,
                         std::int64_t hi, std::uint8_t* mask) {
  const __m256i vlo = _mm256_set1_epi64x(lo);
  const __m256i vhi = _mm256_set1_epi64x(hi);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i below = _mm256_cmpgt_epi64(vlo, x);
    const __m256i above = _mm256_cmpgt_epi64(x, vhi);
    const unsigned bits = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_or_si256(below, above))));
    for (int j = 0; j < 4; ++j) mask[i + static_cast<std::size_t>(j)] &=
        static_cast<std::uint8_t>(((bits >> j) & 1u) ^ 1u);
  }
  for (; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>(lo <= v[i] && v[i] <= hi);
}

void mask_class_avx2(const std::uint8_t* codes, std::size_t n,
                     std::uint8_t allowed, std::uint8_t* mask) {
  // Codes are 2-bit values, so a 16-entry pshufb table holds the whole
  // allowed-set membership function; 32 rows per AND step.
  alignas(32) std::uint8_t lut[32];
  for (int b = 0; b < 16; ++b) {
    lut[b] = static_cast<std::uint8_t>((allowed >> (b & 7)) & 1);
    lut[16 + b] = lut[b];
  }
  const __m256i table = _mm256_load_si256(reinterpret_cast<__m256i*>(lut));
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i c = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(codes + i));
    const __m256i m = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(mask + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mask + i),
                        _mm256_and_si256(m, _mm256_shuffle_epi8(table, c)));
  }
  for (; i < n; ++i)
    mask[i] &= static_cast<std::uint8_t>((allowed >> codes[i]) & 1);
}

}  // namespace

const StoreKernels& kernel_set(
    simd::KernelTag<StoreKernels, Isa::kAvx2>) noexcept {
  static constexpr StoreKernels kSet{
      Isa::kAvx2,          "avx2",
      decode_varints_avx2, unpack_bits_avx2,
      mask_range_u32_avx2, mask_range_i64_avx2,
      mask_class_avx2,     decode_zigzag_deltas_avx2,
  };
  return kSet;
}

}  // namespace unp::store::kernels

#endif  // x86-64
