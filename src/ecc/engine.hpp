// ECC evaluation drivers (ROADMAP item 1).
//
// Two ways to feed error patterns through a Code:
//
//   * evaluate_exhaustive — every C(n,k) k-bit upset for k <= max_weight.
//     Patterns are totally ordered by the combinatorial number system
//     (lexicographic combination rank), the rank space is cut into
//     contiguous stripes, and each ThreadPool worker unranks its stripe's
//     first combination once then walks successors.  Tallies are additive
//     u64 counters merged in stripe order, so the result is bit-identical
//     for ANY thread count — the invariance the perf gate and the
//     kernel-identity test group enforce.
//
//   * evaluate_population — replay the study's extracted fault masks
//     (32-bit scanner words, embedded at codeword position 0 upward)
//     through the code, tallied per corruption-multiplicity class
//     (common/bitops.hpp's kFlipClasses, the same classes the store packs).
//     Every Code is linear, so a verdict depends on the mask alone: the
//     population arrives as a MaskCensus of distinct masks with counts,
//     and each distinct mask is decoded once per code.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/thread_pool.hpp"
#include "ecc/code.hpp"

namespace unp::ecc {

// ---------------------------------------------------------------------------
// Combinatorics (exposed for tests and for the CLI's workload estimates).

/// C(n, k), saturating at UINT64_MAX on overflow.
[[nodiscard]] std::uint64_t binomial(int n, int k) noexcept;

/// Lexicographic unranking: the `rank`-th (0-based) ascending k-combination
/// of {0..n-1} into `out` (size k).  rank must be < C(n, k).
void unrank_combination(std::uint64_t rank, int n, int k, std::span<int> out);

/// Advance `combo` (ascending k-combination of {0..n-1}) to its
/// lexicographic successor; false when it was the last one.
bool next_combination(std::span<int> combo, int n) noexcept;

// ---------------------------------------------------------------------------
// Exhaustive multi-bit-upset enumeration.

struct ExhaustiveWeightResult {
  int weight = 0;
  std::uint64_t patterns = 0;  ///< C(codeword_bits, weight)
  VerdictCounts counts;

  friend bool operator==(const ExhaustiveWeightResult&,
                         const ExhaustiveWeightResult&) = default;
};

struct ExhaustiveResult {
  std::string code;       ///< Code::name() of the evaluated code
  int codeword_bits = 0;
  int max_weight = 0;
  std::vector<ExhaustiveWeightResult> weights;  ///< weight 1..max_weight

  [[nodiscard]] VerdictCounts total() const noexcept;
  [[nodiscard]] std::uint64_t total_patterns() const noexcept;
};

/// Evaluate every error pattern of weight 1..max_weight over the code's
/// codeword.  Requires the per-weight pattern counts to fit u64 (the CLI
/// refuses earlier with a workload estimate).  Deterministic for any pool.
[[nodiscard]] ExhaustiveResult evaluate_exhaustive(const Code& code,
                                                   int max_weight,
                                                   ThreadPool& pool);

// ---------------------------------------------------------------------------
// Population replay.

/// One distinct nonzero flip mask and the number of faults carrying it.
struct MaskCount {
  Word mask = 0;
  std::uint64_t count = 0;
};

/// A fault population reduced to its distinct flip masks: (mask, count)
/// pairs in ascending mask order, zero masks (no corruption) dropped.
/// Build it once per population and pass it to every code.
using MaskCensus = std::vector<MaskCount>;

[[nodiscard]] MaskCensus mask_census(std::span<const Word> masks);

struct PopulationResult {
  std::string code;
  std::uint64_t faults = 0;  ///< faults in the census (nonzero masks)
  /// Indexed by flip-class code (kFlipClasses).
  std::array<VerdictCounts, kFlipClassCount> by_class;

  [[nodiscard]] VerdictCounts total() const noexcept;
  /// Fraction of faults that would reach the application silently wrong.
  [[nodiscard]] double silent_fraction() const noexcept;

  friend bool operator==(const PopulationResult&,
                         const PopulationResult&) = default;
};

/// Replay a fault population's flip masks through the code: each census
/// entry is decoded once and its count added to its class's tally.  Masks
/// embed at codeword bit 0 upward (the scanner-word convention of
/// code.hpp).
[[nodiscard]] PopulationResult evaluate_population(const Code& code,
                                                   const MaskCensus& census);

}  // namespace unp::ecc
