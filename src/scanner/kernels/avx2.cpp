// AVX2 kernels: 32-byte vectors, selected at runtime via cpuid.  This
// translation unit alone is compiled with -mavx2 (see scanner/CMakeLists),
// so nothing outside it may call these functions without the dispatcher's
// is_supported() check.  Structure mirrors the SSE2 path: one cache line
// (two vectors) per iteration, register spill only on the rare mismatch.
#include "scanner/kernels/kernels.hpp"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

#include <cstdint>

namespace unp::scanner::kernels {

namespace {

constexpr std::size_t kLaneWords = 8;   // words per __m256i
constexpr std::size_t kBlockWords = 16; // one cache line per loop iteration

[[nodiscard]] bool aligned32(const Word* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & 31u) == 0;
}

void fill_avx2(Word* data, std::size_t n, Word value, bool nontemporal) {
  std::size_t i = 0;
  while (i < n && !aligned32(data + i)) data[i++] = value;
  const __m256i v = _mm256_set1_epi32(static_cast<int>(value));
  if (nontemporal) {
    for (; i + kBlockWords <= n; i += kBlockWords) {
      auto* p = reinterpret_cast<__m256i*>(data + i);
      _mm256_stream_si256(p + 0, v);
      _mm256_stream_si256(p + 1, v);
    }
    _mm_sfence();
  } else {
    for (; i + kBlockWords <= n; i += kBlockWords) {
      auto* p = reinterpret_cast<__m256i*>(data + i);
      _mm256_store_si256(p + 0, v);
      _mm256_store_si256(p + 1, v);
    }
  }
  for (; i < n; ++i) data[i] = value;
}

void verify_avx2(Word* data, std::size_t n, std::uint64_t base_index,
                 Word expected, Word next, bool nontemporal,
                 std::vector<Hit>& out) {
  std::size_t i = 0;
  // Unaligned head: scalar words up to the first 32-byte boundary.
  while (i < n && !aligned32(data + i)) {
    const Word a = data[i];
    if (a != expected) out.push_back({base_index + i, a});
    data[i] = next;
    ++i;
  }
  const __m256i vexp = _mm256_set1_epi32(static_cast<int>(expected));
  const __m256i vnext = _mm256_set1_epi32(static_cast<int>(next));
  for (; i + kBlockWords <= n; i += kBlockWords) {
    auto* p = reinterpret_cast<__m256i*>(data + i);
    const __m256i v0 = _mm256_load_si256(p + 0);
    const __m256i v1 = _mm256_load_si256(p + 1);
    const __m256i eq = _mm256_and_si256(_mm256_cmpeq_epi32(v0, vexp),
                                        _mm256_cmpeq_epi32(v1, vexp));
    if (_mm256_movemask_epi8(eq) != -1) {
      alignas(32) Word lanes[kBlockWords];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 0 * kLaneWords),
                         v0);
      _mm256_store_si256(reinterpret_cast<__m256i*>(lanes + 1 * kLaneWords),
                         v1);
      for (std::size_t j = 0; j < kBlockWords; ++j) {
        if (lanes[j] != expected) out.push_back({base_index + i + j, lanes[j]});
      }
    }
    if (nontemporal) {
      _mm256_stream_si256(p + 0, vnext);
      _mm256_stream_si256(p + 1, vnext);
    } else {
      _mm256_store_si256(p + 0, vnext);
      _mm256_store_si256(p + 1, vnext);
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

const Kernels& kernel_set(simd::KernelTag<Kernels, Isa::kAvx2>) noexcept {
  static const Kernels k{Isa::kAvx2, "avx2", &fill_avx2, &verify_avx2};
  return k;
}

}  // namespace unp::scanner::kernels

#endif  // x86-64
