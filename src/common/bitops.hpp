// Bit-level helpers for corruption analysis.  The study characterizes each
// fault by which bits of a 32-bit memory word flipped, in which direction
// (1->0 vs 0->1), whether flipped bits are adjacent, and the gaps between
// them (Table I and Section III-C).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace unp {

/// Word size of the prototype's scanner (the tool compares 32-bit words).
using Word = std::uint32_t;

/// Positions (0 = LSB) of the set bits of `mask`, ascending.
[[nodiscard]] inline std::vector<int> set_bit_positions(Word mask) {
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(std::popcount(mask)));
  while (mask != 0) {
    const int b = std::countr_zero(mask);
    out.push_back(b);
    mask &= mask - 1;
  }
  return out;
}

/// Number of bits that differ between expected and observed word.
[[nodiscard]] inline int flipped_bit_count(Word expected, Word observed) noexcept {
  return std::popcount(expected ^ observed);
}

/// One corruption-multiplicity class: faults whose flipped-bit count lies
/// in [min_bits, max_bits].  The UNPF store packs a fault's class index two
/// bits per row and the ECC population replay tallies verdicts per class,
/// so kFlipClasses is the one place the 1 | 2 | 3-8 | 9+ boundaries live.
struct FlipClass {
  const char* name;
  int min_bits;
  int max_bits;
};

/// Indexed by class code (0..3, the stored 2-bit value); ascending,
/// contiguous, covering 1..32.
inline constexpr FlipClass kFlipClasses[] = {
    {"single", 1, 1}, {"double", 2, 2}, {"few", 3, 8}, {"many", 9, 32}};
inline constexpr int kFlipClassCount = sizeof kFlipClasses / sizeof kFlipClasses[0];

/// Class code of a fault with `flipped_bits` flips (0 counts as single).
[[nodiscard]] constexpr int flip_class_of(int flipped_bits) noexcept {
  int c = 0;
  while (c + 1 < kFlipClassCount && flipped_bits > kFlipClasses[c].max_bits) ++c;
  return c;
}

/// Bits that flipped from 1 to 0 (cell lost charge).
[[nodiscard]] inline Word one_to_zero_mask(Word expected, Word observed) noexcept {
  return expected & ~observed;
}

/// Bits that flipped from 0 to 1 (cell gained charge).
[[nodiscard]] inline Word zero_to_one_mask(Word expected, Word observed) noexcept {
  return ~expected & observed;
}

/// True when every pair of neighbouring flipped bits is exactly adjacent
/// (distance 1).  Single-bit masks count as adjacent, matching the paper's
/// "Consecutive" column which is only meaningful for >= 2 bits.
[[nodiscard]] inline bool flipped_bits_adjacent(Word flip_mask) noexcept {
  if (flip_mask == 0) return true;
  const int lo = std::countr_zero(flip_mask);
  const int hi = 31 - std::countl_zero(flip_mask);
  // Contiguous run <=> the mask equals the full span between lo and hi.
  const Word span =
      (hi - lo == 31) ? ~Word{0} : (((Word{1} << (hi - lo + 1)) - 1) << lo);
  return flip_mask == span;
}

/// Gaps between successive flipped bits (bit-position differences).
/// Empty for masks with fewer than two set bits.
[[nodiscard]] inline std::vector<int> flipped_bit_gaps(Word flip_mask) {
  const std::vector<int> pos = set_bit_positions(flip_mask);
  std::vector<int> gaps;
  if (pos.size() < 2) return gaps;
  gaps.reserve(pos.size() - 1);
  for (std::size_t i = 1; i < pos.size(); ++i) gaps.push_back(pos[i] - pos[i - 1]);
  return gaps;
}

/// Maximum number of untouched bits strictly between two successive flipped
/// bits (the paper reports up to 11).  0 for adjacent or single-bit masks.
[[nodiscard]] inline int max_gap_between_flipped_bits(Word flip_mask) {
  int max_gap = 0;
  for (int g : flipped_bit_gaps(flip_mask)) max_gap = g - 1 > max_gap ? g - 1 : max_gap;
  return max_gap;
}

/// Mean distance (bit-position difference) between successive flipped bits;
/// the paper reports an average of ~3.  0 when fewer than two bits flipped.
[[nodiscard]] inline double mean_distance_between_flipped_bits(Word flip_mask) {
  const std::vector<int> gaps = flipped_bit_gaps(flip_mask);
  if (gaps.empty()) return 0.0;
  double s = 0.0;
  for (int g : gaps) s += g;
  return s / static_cast<double>(gaps.size());
}

}  // namespace unp
