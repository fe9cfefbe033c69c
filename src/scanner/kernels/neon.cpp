// NEON kernels: 16-byte vectors.  Advanced SIMD is architectural on
// AArch64, so runtime support is unconditional there.  AArch64 has no
// non-temporal word store exposed through NEON intrinsics (STNP is a pair
// store the compiler may or may not emit), so the nontemporal hint is
// accepted and ignored — the contract allows that.
#include "scanner/kernels/kernels.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <cstdint>

namespace unp::scanner::kernels {

namespace {

constexpr std::size_t kLaneWords = 4;   // words per uint32x4_t
constexpr std::size_t kBlockWords = 16; // one cache line per loop iteration

void fill_neon(Word* data, std::size_t n, Word value, bool /*nontemporal*/) {
  std::size_t i = 0;
  const uint32x4_t v = vdupq_n_u32(value);
  for (; i + kBlockWords <= n; i += kBlockWords) {
    vst1q_u32(data + i + 0 * kLaneWords, v);
    vst1q_u32(data + i + 1 * kLaneWords, v);
    vst1q_u32(data + i + 2 * kLaneWords, v);
    vst1q_u32(data + i + 3 * kLaneWords, v);
  }
  for (; i < n; ++i) data[i] = value;
}

void verify_neon(Word* data, std::size_t n, std::uint64_t base_index,
                 Word expected, Word next, bool /*nontemporal*/,
                 std::vector<Hit>& out) {
  std::size_t i = 0;
  const uint32x4_t vexp = vdupq_n_u32(expected);
  const uint32x4_t vnext = vdupq_n_u32(next);
  for (; i + kBlockWords <= n; i += kBlockWords) {
    const uint32x4_t v0 = vld1q_u32(data + i + 0 * kLaneWords);
    const uint32x4_t v1 = vld1q_u32(data + i + 1 * kLaneWords);
    const uint32x4_t v2 = vld1q_u32(data + i + 2 * kLaneWords);
    const uint32x4_t v3 = vld1q_u32(data + i + 3 * kLaneWords);
    const uint32x4_t eq = vandq_u32(vandq_u32(vceqq_u32(v0, vexp),
                                              vceqq_u32(v1, vexp)),
                                    vandq_u32(vceqq_u32(v2, vexp),
                                              vceqq_u32(v3, vexp)));
    // All lanes equal <=> the lane-wise minimum of the mask is all-ones.
    if (vminvq_u32(eq) != 0xFFFFFFFFu) {
      Word lanes[kBlockWords];
      vst1q_u32(lanes + 0 * kLaneWords, v0);
      vst1q_u32(lanes + 1 * kLaneWords, v1);
      vst1q_u32(lanes + 2 * kLaneWords, v2);
      vst1q_u32(lanes + 3 * kLaneWords, v3);
      for (std::size_t j = 0; j < kBlockWords; ++j) {
        if (lanes[j] != expected) out.push_back({base_index + i + j, lanes[j]});
      }
    }
    vst1q_u32(data + i + 0 * kLaneWords, vnext);
    vst1q_u32(data + i + 1 * kLaneWords, vnext);
    vst1q_u32(data + i + 2 * kLaneWords, vnext);
    vst1q_u32(data + i + 3 * kLaneWords, vnext);
  }
  // Tail: fewer than 16 words left.
  for (; i < n; ++i) {
    const Word a = data[i];
    if (a != expected) out.push_back({base_index + i, a});
    data[i] = next;
  }
}

}  // namespace

const Kernels& kernel_set(simd::KernelTag<Kernels, Isa::kNeon>) noexcept {
  static const Kernels k{Isa::kNeon, "neon", &fill_neon, &verify_neon};
  return k;
}

}  // namespace unp::scanner::kernels

#endif  // __aarch64__
