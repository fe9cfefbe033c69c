// Generalized odd-weight-column (Hsiao) SEC-DED code, Hsiao(d/k).
//
// The study's canonical SECDED(72,64) (registry spec `secded72`) is the
// d=64, k=8 instance of this family.  The d data columns of the
// parity-check matrix are the numerically smallest distinct
// odd-weight-(>=3) k-bit vectors enumerated in (weight, value) order, the
// k check columns are the unit vectors.  The enumeration order is pinned so
// every evaluation result is reproducible across builds (the exhaustive
// census is pinned in tests/ecc/codes_test.cpp).
//
// Properties (any d, k): single-bit errors give an odd-weight syndrome
// equal to their column (corrected); double-bit errors give a non-zero
// even-weight syndrome (detected); wider errors alias columns
// (miscorrection) or cancel entirely (SDC).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ecc/code.hpp"

namespace unp::ecc {

class HsiaoCode final : public Code {
 public:
  /// `check_bits == 0` auto-sizes: the smallest k whose odd-weight-(>=3)
  /// column pool covers `data_bits`.  Throws ContractViolation when the
  /// requested k cannot accommodate d (pool exhausted) or k > 20.  An empty
  /// `name` defaults to the spec string "hsiao:D/K".
  explicit HsiaoCode(int data_bits, int check_bits = 0, std::string name = {});

  /// Smallest k with 2^(k-1) - k >= d odd-weight non-unit columns.
  [[nodiscard]] static int min_check_bits(int data_bits) noexcept;

  [[nodiscard]] std::string_view name() const noexcept override {
    return name_;
  }
  [[nodiscard]] CodeGeometry geometry() const noexcept override;
  [[nodiscard]] Verdict evaluate(
      std::span<const int> error_bits) const override;

  /// Parity-check column of data bit `i` (testing hook).
  [[nodiscard]] std::uint32_t data_column(int i) const noexcept {
    return columns_[static_cast<std::size_t>(i)];
  }

 private:
  std::string name_;
  int data_bits_ = 0;
  int check_bits_ = 0;
  std::vector<std::uint32_t> columns_;  ///< data-bit H columns
  std::vector<std::int32_t> col_index_; ///< syndrome -> data bit (or -1)
};

}  // namespace unp::ecc
