// Shared runtime SIMD dispatch: which instruction set the process uses.
//
// Exactly two kernel families carry per-ISA sets — the scanner's
// memory-sweep kernels (src/scanner/kernels) and the store's column-decode
// kernels (src/store/kernels).  The telemetry varint encoder is one scalar
// loop and never consults this module.  Both families must agree on the
// answer to "which ISA runs here?", honour the same
// UNP_KERNEL=scalar|sse2|avx2|neon override, and latch the decision
// exactly once per process, so the detection and resolution logic lives in
// this dependency-free home rather than being duplicated per family.
//
// Kernel *sets* stay with their subsystems; this module only answers the
// ISA question:
//
//   - is_supported(isa)      can this CPU execute isa's instructions?
//   - best_supported_isa()   fastest ISA the CPU reports (avx2 > sse2 >
//                            scalar on x86-64, neon > scalar on AArch64)
//   - resolve_isa(env, w)    dispatch decision given an UNP_KERNEL value
//   - active_isa()           the process-wide decision, resolved once from
//                            the environment on first use
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace unp::simd {

/// Instruction-set architectures a kernel set can be built for.
enum class Isa : std::uint8_t { kScalar, kSse2, kAvx2, kNeon };

[[nodiscard]] const char* to_string(Isa isa) noexcept;

/// True when this CPU can execute `isa`'s kernels.
[[nodiscard]] bool is_supported(Isa isa) noexcept;

/// Fastest ISA this CPU supports.
[[nodiscard]] Isa best_supported_isa() noexcept;

/// Every ISA this CPU supports, scalar first (test iteration order).
[[nodiscard]] std::vector<Isa> supported_isas();

/// Parse an UNP_KERNEL value ("scalar", "sse2", "avx2", "neon").
/// Returns true and sets `out` on success.
[[nodiscard]] bool parse_isa(std::string_view name, Isa& out) noexcept;

/// Dispatch decision given an UNP_KERNEL value (nullptr = unset): the
/// requested ISA when recognised and supported, else best_supported_isa().
/// On fallback, `warning` (if non-null) receives a one-line explanation.
[[nodiscard]] Isa resolve_isa(const char* env_value, std::string* warning);

/// The process-wide dispatch decision: resolved once from cpuid/HWCAP and
/// the UNP_KERNEL override on first use (a fallback warning goes to stderr
/// exactly once, no matter how many kernel families consult it).
[[nodiscard]] Isa active_isa();

}  // namespace unp::simd
