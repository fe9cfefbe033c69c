// Chipkill-style symbol-correcting code (SSC-DSD) over x4 devices.
//
// The related work the paper cites (Sridharan & Liberty) measured chipkill
// to be ~42x more reliable than SECDED because DRAM faults cluster inside
// one device: a whole-chip failure corrupts one b-bit *symbol* of the ECC
// word, which a single-symbol-correct / double-symbol-detect code repairs.
//
// The codeword is 16 data symbols (64 bits) plus 2 check symbols, 4 bits
// each.  Over the symbols an error pattern touches:
//   - one symbol        -> corrected
//   - two symbols       -> detected, uncorrectable
//   - three or more     -> beyond the code's guarantee; modelled as
//     undetected (worst case for the SDC analysis, and stated as such), so
//     silent iff a data bit was hit.
//
// This is an outcome model, not a Reed-Solomon implementation: the analyses
// only consume the verdict.
#pragma once

#include "ecc/code.hpp"

namespace unp::ecc {

class ChipkillCode final : public Code {
 public:
  static constexpr int kSymbolBits = 4;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "chipkill";
  }
  [[nodiscard]] CodeGeometry geometry() const noexcept override;
  [[nodiscard]] Verdict evaluate(
      std::span<const int> error_bits) const override;
};

}  // namespace unp::ecc
