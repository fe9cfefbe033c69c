// SIMD scan kernels for the memory-sweep hot path.
//
// The original tool's duty cycle is one fused operation repeated over 3 GB:
// "check every 32-bit word against the previous write, then store the next
// value".  Its pass rate bounds the detection latency of every fault in the
// study, so this loop should run at memory bandwidth.  This module provides
// that loop (plus the session-start fill) as data-parallel kernels:
//
//   - scalar  : portable unrolled loop; the correctness oracle and the
//               fallback on architectures without a vector path
//   - sse2    : 16-byte vectors (x86-64 baseline, always available there)
//   - avx2    : 32-byte vectors (runtime cpuid check)
//   - neon    : 16-byte vectors (AArch64; Advanced SIMD is architectural)
//
// Dispatch is resolved once at startup: the best ISA the CPU supports, or
// the `UNP_KERNEL=scalar|sse2|avx2|neon` environment override (testing/CI;
// an unsupported request falls back to the best path with a warning).  Every
// kernel handles unaligned head/tail words internally and reports mismatches
// in ascending address order, so scanner output is byte-identical no matter
// which path runs.  For buffers larger than the last-level cache the
// kernels can use non-temporal stores: a sweep touches every line exactly
// once, so there is nothing worth caching.
//
// The masked sweep honours the page-retirement interval map (retired pages
// are unmapped from the scan space: neither read, written, nor reported).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bitops.hpp"
#include "common/simd_dispatch.hpp"
#include "scanner/kernels/interval_set.hpp"

namespace unp::scanner::kernels {

/// Instruction-set architectures a kernel set can be built for.  Detection
/// and the UNP_KERNEL override live in the shared dispatch home
/// (common/simd_dispatch) so the store's column-decode kernels resolve the
/// same ISA; the aliases below keep this header the scanner-facing API.
using Isa = simd::Isa;

using simd::to_string;

/// One mismatching word: absolute word index and the value actually stored.
struct Hit {
  std::uint64_t index = 0;
  Word actual = 0;

  friend bool operator==(const Hit&, const Hit&) = default;
};

/// Store `value` into data[0, n).  `nontemporal` requests streaming stores
/// (honoured where the ISA has them; a hint, never a semantic change).
using FillFn = void (*)(Word* data, std::size_t n, Word value,
                        bool nontemporal);

/// The fused sweep: for i in [0, n) ascending, append {base_index + i,
/// data[i]} to `out` when data[i] != expected, then store `next` to data[i].
using VerifyFn = void (*)(Word* data, std::size_t n, std::uint64_t base_index,
                          Word expected, Word next, bool nontemporal,
                          std::vector<Hit>& out);

/// One ISA's kernel set.  All sets are observationally identical; only the
/// throughput differs.
struct Kernels {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  FillFn fill = nullptr;
  VerifyFn verify_and_write = nullptr;
};

using simd::best_supported_isa;
using simd::is_supported;
using simd::parse_isa;
using simd::resolve_isa;
using simd::supported_isas;

// Each ISA's set, defined in that ISA's translation unit (which preprocesses
// to nothing off its architecture); reached only through simd::select_kernels.
[[nodiscard]] const Kernels& kernel_set(
    simd::KernelTag<Kernels, Isa::kScalar>) noexcept;
[[nodiscard]] const Kernels& kernel_set(
    simd::KernelTag<Kernels, Isa::kSse2>) noexcept;
[[nodiscard]] const Kernels& kernel_set(
    simd::KernelTag<Kernels, Isa::kAvx2>) noexcept;
[[nodiscard]] const Kernels& kernel_set(
    simd::KernelTag<Kernels, Isa::kNeon>) noexcept;

/// Kernel set for `isa`; requires is_supported(isa).
[[nodiscard]] inline const Kernels& kernels_for(Isa isa) {
  return simd::select_kernels<Kernels>(isa);
}

/// The process-wide kernel set: resolved once from cpuid/HWCAP and the
/// UNP_KERNEL override on first use (a fallback warning goes to stderr).
[[nodiscard]] inline const Kernels& active_kernels() {
  return simd::latched_kernels<Kernels>();
}

/// Buffers larger than this benefit from non-temporal stores: a sweep
/// touches every line exactly once, so caching the buffer only evicts
/// everything else.  Derived from the last-level cache size when the OS
/// reports it, with a conservative default otherwise.
[[nodiscard]] std::size_t nontemporal_threshold_bytes() noexcept;

/// Masked sweep: verify_and_write over the absolute word range
/// [base_index, base_index + n) minus the `masked` intervals (absolute word
/// indices).  Masked words are unmapped: neither read, written, nor
/// reported.  `data` points at the word with absolute index `base_index`.
void masked_verify_and_write(const Kernels& k, Word* data, std::size_t n,
                             std::uint64_t base_index, Word expected,
                             Word next, bool nontemporal,
                             const IntervalSet& masked, std::vector<Hit>& out);

/// Masked fill: `fill` over the same gap decomposition.
void masked_fill(const Kernels& k, Word* data, std::size_t n,
                 std::uint64_t base_index, Word value, bool nontemporal,
                 const IntervalSet& masked);

}  // namespace unp::scanner::kernels
