// SIMD column-decode and predicate kernels for the UNPF store hot path.
//
// A served query spends nearly all of its time in two loops: LEB128 varint
// decode (six of the nine stored columns) and bit unpacking (node indices,
// the temperature presence bitmap, the 2-bit class codes), followed by the
// row-predicate filter.  This module lifts those loops into per-ISA kernel
// sets mirroring the scanner's (scalar / sse2 / avx2 / neon), sharing the
// same resolution machinery (common/simd_dispatch): one process-wide ISA
// decision, the same UNP_KERNEL override, the same fallback warnings.
//
// The varint fast path exploits the dominant shape of store bytes: most
// encoded values (time deltas, raw-log counts, dictionary indices) fit one
// byte, i.e. their continuation bit is clear.  A vector load plus a
// movemask-style reduction classifies a whole block at once; an all-clear
// block widens straight to u64 lanes, a mixed block decodes scalar up to
// the first multi-byte value and retries.  Every path funnels malformed
// input through the scalar routine, so DecodeError offsets and messages are
// identical no matter which ISA runs — the scalar set is the oracle, the
// vector sets are observationally equal and merely faster.
//
// Predicate kernels evaluate the range-expressible query shape (time
// window, contiguous node-index run, class-aligned bit bounds) as AND-into
// byte masks; the reader falls back to its scalar row loop for shapes a
// range cannot express (a SoC selector without a blade, exact bit counts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "common/simd_dispatch.hpp"

namespace unp::store::kernels {

/// Shared ISA vocabulary (detection, UNP_KERNEL, active_isa latch).
using Isa = simd::Isa;

/// Decode `count` LEB128 varints from `in` starting at `pos` into `out`.
/// Returns the position one past the last encoded byte.  The bound is the
/// whole buffer (exactly like telemetry::get_varint, which decode_segment
/// calls today), so truncation/overflow throw telemetry::DecodeError with
/// byte offsets identical to the scalar loop's.
using DecodeVarintsFn = std::size_t (*)(std::string_view in, std::size_t pos,
                                        std::size_t count, std::uint64_t* out);

/// Unpack `count` LSB-first values of `width` bits (1 <= width <= 64) from
/// `base` into `out`.  The caller has already validated that the packed
/// block — ceil(count * width / 8) bytes — is in bounds; kernels must not
/// read past it.
using UnpackBitsFn = void (*)(const unsigned char* base, std::size_t count,
                              int width, std::uint64_t* out);

/// mask[i] &= (lo <= v[i] && v[i] <= hi), i in [0, n).
using MaskRangeU32Fn = void (*)(const std::uint32_t* v, std::size_t n,
                                std::uint32_t lo, std::uint32_t hi,
                                std::uint8_t* mask);
using MaskRangeI64Fn = void (*)(const std::int64_t* v, std::size_t n,
                                std::int64_t lo, std::int64_t hi,
                                std::uint8_t* mask);

/// mask[i] &= (allowed >> codes[i]) & 1; codes are 2-bit flip-class
/// codes (kFlipClasses indices).
using MaskClassFn = void (*)(const std::uint8_t* codes, std::size_t n,
                             std::uint8_t allowed, std::uint8_t* mask);

/// Fused decode for the store's zigzag-delta columns (first_seen, address):
/// decode `count` varints, zigzag-decode each, and emit the running prefix
/// sum starting from `base` — out[i] = base + sum of deltas 0..i, in
/// wraparound u64 arithmetic (bit-identical to the old signed accumulation).
/// Fusing kills the scratch round-trip a separate decode-then-undelta pass
/// pays per column.  Same bound and DecodeError contract as decode_varints.
using DecodeZigzagDeltasFn = std::size_t (*)(std::string_view in,
                                             std::size_t pos,
                                             std::size_t count,
                                             std::uint64_t base,
                                             std::uint64_t* out);

/// One ISA's store kernel set.  All sets are observationally identical
/// (same outputs, same DecodeError offsets); only throughput differs.
struct StoreKernels {
  Isa isa = Isa::kScalar;
  const char* name = "scalar";
  DecodeVarintsFn decode_varints = nullptr;
  UnpackBitsFn unpack_bits = nullptr;
  MaskRangeU32Fn mask_range_u32 = nullptr;
  MaskRangeI64Fn mask_range_i64 = nullptr;
  MaskClassFn mask_class = nullptr;
  DecodeZigzagDeltasFn decode_zigzag_deltas = nullptr;
};

// Each ISA's set, defined in that ISA's translation unit (which preprocesses
// to nothing off its architecture); reached only through simd::select_kernels.
[[nodiscard]] const StoreKernels& kernel_set(
    simd::KernelTag<StoreKernels, Isa::kScalar>) noexcept;
[[nodiscard]] const StoreKernels& kernel_set(
    simd::KernelTag<StoreKernels, Isa::kSse2>) noexcept;
[[nodiscard]] const StoreKernels& kernel_set(
    simd::KernelTag<StoreKernels, Isa::kAvx2>) noexcept;
[[nodiscard]] const StoreKernels& kernel_set(
    simd::KernelTag<StoreKernels, Isa::kNeon>) noexcept;

/// Kernel set for `isa`; requires simd::is_supported(isa).
[[nodiscard]] inline const StoreKernels& store_kernels_for(Isa isa) {
  return simd::select_kernels<StoreKernels>(isa);
}

/// The process-wide set: resolved once alongside the scanner's from
/// cpuid/HWCAP and the UNP_KERNEL override.
[[nodiscard]] inline const StoreKernels& active_store_kernels() {
  return simd::latched_kernels<StoreKernels>();
}

}  // namespace unp::store::kernels
