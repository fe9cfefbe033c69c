#include "ecc/chipkill.hpp"

#include <bit>
#include <cstdint>

namespace unp::ecc {

CodeGeometry ChipkillCode::geometry() const noexcept {
  CodeGeometry g;
  g.data_bits = 64;
  g.check_bits = 2 * kSymbolBits;
  g.codeword_bits = g.data_bits + g.check_bits;
  g.guaranteed_correct = kSymbolBits;  // one whole symbol
  g.guaranteed_detect = 2;  // any two-symbol pattern is detected
  return g;
}

Verdict ChipkillCode::evaluate(std::span<const int> error_bits) const {
  std::uint32_t symbols = 0;
  bool data_hit = false;
  for (const int p : error_bits) {
    symbols |= std::uint32_t{1} << (p / kSymbolBits);
    data_hit = data_hit || p < 64;
  }
  const int touched = std::popcount(symbols);
  if (touched <= 1) return Verdict::kCorrect;
  if (touched == 2) return Verdict::kDetectOnly;
  // Beyond SSC-DSD's guarantee: modeled as undetected, silent only if data
  // was hit.
  return data_hit ? Verdict::kSdc : Verdict::kCorrect;
}

}  // namespace unp::ecc
