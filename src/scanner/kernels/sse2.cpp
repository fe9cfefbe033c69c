// SSE2 kernels: 16-byte vectors, part of the x86-64 baseline so always
// available there.  The hot loop loads a cache line (four vectors), folds
// the four compare masks into one, and only on a mismatch — never on the
// healthy path — spills the loaded registers to re-check lane by lane.
// Mismatch reports therefore stay in ascending address order and carry the
// pre-overwrite values, exactly like the scalar oracle.
#include "scanner/kernels/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <emmintrin.h>

#include <cstdint>

namespace unp::scanner::kernels {

namespace {

constexpr std::size_t kLaneWords = 4;   // words per __m128i
constexpr std::size_t kBlockWords = 16; // one cache line per loop iteration

[[nodiscard]] bool aligned16(const Word* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & 15u) == 0;
}

void fill_sse2(Word* data, std::size_t n, Word value, bool nontemporal) {
  std::size_t i = 0;
  while (i < n && !aligned16(data + i)) data[i++] = value;
  const __m128i v = _mm_set1_epi32(static_cast<int>(value));
  if (nontemporal) {
    for (; i + kBlockWords <= n; i += kBlockWords) {
      auto* p = reinterpret_cast<__m128i*>(data + i);
      _mm_stream_si128(p + 0, v);
      _mm_stream_si128(p + 1, v);
      _mm_stream_si128(p + 2, v);
      _mm_stream_si128(p + 3, v);
    }
    _mm_sfence();
  } else {
    for (; i + kBlockWords <= n; i += kBlockWords) {
      auto* p = reinterpret_cast<__m128i*>(data + i);
      _mm_store_si128(p + 0, v);
      _mm_store_si128(p + 1, v);
      _mm_store_si128(p + 2, v);
      _mm_store_si128(p + 3, v);
    }
  }
  for (; i < n; ++i) data[i] = value;
}

void verify_sse2(Word* data, std::size_t n, std::uint64_t base_index,
                 Word expected, Word next, bool nontemporal,
                 std::vector<Hit>& out) {
  std::size_t i = 0;
  // Unaligned head: scalar words up to the first 16-byte boundary.
  while (i < n && !aligned16(data + i)) {
    const Word a = data[i];
    if (a != expected) out.push_back({base_index + i, a});
    data[i] = next;
    ++i;
  }
  const __m128i vexp = _mm_set1_epi32(static_cast<int>(expected));
  const __m128i vnext = _mm_set1_epi32(static_cast<int>(next));
  for (; i + kBlockWords <= n; i += kBlockWords) {
    auto* p = reinterpret_cast<__m128i*>(data + i);
    const __m128i v0 = _mm_load_si128(p + 0);
    const __m128i v1 = _mm_load_si128(p + 1);
    const __m128i v2 = _mm_load_si128(p + 2);
    const __m128i v3 = _mm_load_si128(p + 3);
    const __m128i eq =
        _mm_and_si128(_mm_and_si128(_mm_cmpeq_epi32(v0, vexp),
                                    _mm_cmpeq_epi32(v1, vexp)),
                      _mm_and_si128(_mm_cmpeq_epi32(v2, vexp),
                                    _mm_cmpeq_epi32(v3, vexp)));
    if (_mm_movemask_epi8(eq) != 0xFFFF) {
      alignas(16) Word lanes[kBlockWords];
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 0 * kLaneWords), v0);
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 1 * kLaneWords), v1);
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 2 * kLaneWords), v2);
      _mm_store_si128(reinterpret_cast<__m128i*>(lanes + 3 * kLaneWords), v3);
      for (std::size_t j = 0; j < kBlockWords; ++j) {
        if (lanes[j] != expected) out.push_back({base_index + i + j, lanes[j]});
      }
    }
    if (nontemporal) {
      _mm_stream_si128(p + 0, vnext);
      _mm_stream_si128(p + 1, vnext);
      _mm_stream_si128(p + 2, vnext);
      _mm_stream_si128(p + 3, vnext);
    } else {
      _mm_store_si128(p + 0, vnext);
      _mm_store_si128(p + 1, vnext);
      _mm_store_si128(p + 2, vnext);
      _mm_store_si128(p + 3, vnext);
    }
  }
  if (nontemporal) _mm_sfence();
  // Tail: fewer than 16 words left.
  for (; i < n; ++i) {
    const Word a = data[i];
    if (a != expected) out.push_back({base_index + i, a});
    data[i] = next;
  }
}

}  // namespace

const Kernels& kernel_set(simd::KernelTag<Kernels, Isa::kSse2>) noexcept {
  static const Kernels k{Isa::kSse2, "sse2", &fill_sse2, &verify_sse2};
  return k;
}

}  // namespace unp::scanner::kernels

#endif  // x86-64
