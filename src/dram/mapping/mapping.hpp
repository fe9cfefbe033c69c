// Physical-address -> DRAM-coordinate mapping model.
//
// Memory controllers spread consecutive physical addresses across channels,
// ranks and banks with XOR-folded selection functions (parity of a subset
// of address bits), keeping a contiguous column range for row-buffer
// locality.  This module models that mapping explicitly so access-dependent
// fault mechanisms (Rowhammer) can reason about physical adjacency, and so
// the solver in solver.hpp can demonstrate recovering the mapping from
// timing alone - the DRAMA / zenhammer technique, run against our own
// synthetic oracle.
//
// Invertibility by construction: each bank-level function owns one
// *dedicated select bit* that appears in no other function and in neither
// the row nor the column mask; the rest of the function is a fold mask over
// row/column bits.  Given (bank, row, column) the dedicated bit of every
// function is then uniquely determined, which is what makes encode() exact.
//
// Addresses are in units of 32-bit scan words (the granularity of the whole
// telemetry pipeline), so `word_index` from a FaultEvent/ErrorRecord can be
// decoded directly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace unp::dram::mapping {

/// One XOR-folded bank/rank/channel selection function.
struct BankFunction {
  int select_bit = 0;            ///< dedicated physical bit (unique to this fn)
  std::uint64_t fold_mask = 0;   ///< extra XOR taps (subset of row|column bits)

  /// Full parity mask of the function.
  [[nodiscard]] std::uint64_t mask() const noexcept {
    return (std::uint64_t{1} << select_bit) | fold_mask;
  }

  friend bool operator==(const BankFunction&, const BankFunction&) = default;
};

struct MappingConfig {
  std::string name;
  int address_bits = 0;          ///< physical word-address width
  std::uint64_t column_mask = 0;
  std::uint64_t row_mask = 0;
  std::vector<BankFunction> bank_functions;  ///< channel+rank+bank selects

  friend bool operator==(const MappingConfig&, const MappingConfig&) = default;
};

/// One maximal run of consecutive set bits of a row or column mask.
/// Coordinate bits [b, b + width) live at address bits [b + shift,
/// b + shift + width), so a run moves as one shift-and-mask.
struct BitRun {
  std::uint64_t mask = 0;  ///< the run's bits, at their address positions
  int shift = 0;           ///< address bit position - coordinate bit position
};

/// DRAM coordinates of one word.  `bank` is the combined
/// channel/rank/bank-group/bank ordinal (bit k = value of bank function k).
struct DramCoordinate {
  std::uint32_t bank = 0;
  std::uint64_t row = 0;
  std::uint64_t column = 0;

  friend bool operator==(const DramCoordinate&, const DramCoordinate&) = default;
};

class DramMapping {
 public:
  /// Validates the config (masks partition the address bits, select bits
  /// dedicated, folds confined to row|column); throws ContractViolation on
  /// an ill-formed config.  Precomputes the row/column masks' bit runs and
  /// the bank parity masks, so decode and encode cost one shift-and-mask
  /// per run (one each for the contiguous menu geometries) plus one parity
  /// per bank function.
  explicit DramMapping(MappingConfig config);

  [[nodiscard]] DramCoordinate decode(std::uint64_t word_addr) const noexcept;
  [[nodiscard]] std::uint64_t encode(const DramCoordinate& c) const noexcept;

  [[nodiscard]] std::uint64_t total_words() const noexcept {
    return std::uint64_t{1} << config_.address_bits;
  }
  [[nodiscard]] std::uint32_t banks() const noexcept {
    return std::uint32_t{1} << config_.bank_functions.size();
  }
  [[nodiscard]] std::uint64_t rows() const noexcept;
  [[nodiscard]] std::uint64_t columns() const noexcept;

  [[nodiscard]] const MappingConfig& config() const noexcept { return config_; }

  /// Canonical (RREF) basis of the bank-function span: the
  /// representation-independent identity of the bank addressing scheme,
  /// directly comparable with a MappingSolver result.
  [[nodiscard]] std::vector<std::uint64_t> canonical_bank_functions() const;

 private:
  MappingConfig config_;
  std::vector<BitRun> row_runs_;
  std::vector<BitRun> column_runs_;
  std::vector<std::uint64_t> bank_masks_;  ///< BankFunction::mask(), by k
};

/// Names of the built-in geometry menu.
[[nodiscard]] const std::vector<std::string>& mapping_menu();

/// Look up a menu geometry by name.  Throws ContractViolation for names not
/// in mapping_menu().
[[nodiscard]] MappingConfig make_mapping_config(std::string_view name);

}  // namespace unp::dram::mapping
