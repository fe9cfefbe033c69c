// DramMapping: encode/decode inversion, menu well-formedness, GF(2) helper
// algebra, and the physical-adjacency guarantees the hammer model leans on.
#include "dram/mapping/mapping.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "dram/mapping/gf2.hpp"

namespace unp::dram::mapping {
namespace {

TEST(Gf2, RrefIsCanonicalBasisOfRowSpace) {
  // Two generating sets of the same space reduce to the same basis.
  const std::vector<std::uint64_t> a = {0b1100, 0b0110, 0b1010};
  const std::vector<std::uint64_t> b = {0b0110, 0b1100};
  EXPECT_EQ(gf2_rref(a), gf2_rref(b));
  EXPECT_EQ(gf2_rank(a), 2);

  // Pivots are lowest set bits and appear in exactly one basis vector.
  const auto basis = gf2_rref(a);
  std::uint64_t pivots = 0;
  for (const std::uint64_t v : basis) {
    const std::uint64_t pivot = v & (~v + 1);
    EXPECT_EQ(pivots & pivot, 0u);
    pivots |= pivot;
    for (const std::uint64_t other : basis) {
      if (other != v) {
        EXPECT_EQ(other & pivot, 0u);
      }
    }
  }
  EXPECT_EQ(pivots, gf2_pivot_mask(basis));
}

TEST(Gf2, NullspaceIsOrthogonalComplement) {
  const std::vector<std::uint64_t> rows = {0b100101, 0b010011};
  const int n = 6;
  const auto null = gf2_nullspace(rows, n);
  EXPECT_EQ(static_cast<int>(null.size()), n - gf2_rank(rows));
  for (const std::uint64_t v : null) {
    for (const std::uint64_t r : rows) {
      EXPECT_EQ(gf2_dot(v, r), 0);
    }
  }
  // Free-variable form: one vector per non-pivot bit.
  const std::uint64_t pivots = gf2_pivot_mask(gf2_rref(rows));
  std::set<std::uint64_t> free_bits;
  for (const std::uint64_t v : null) {
    EXPECT_TRUE(free_bits.insert(v & ~pivots).second);
    EXPECT_EQ(std::popcount(v & ~pivots), 1);
  }
}

TEST(Mapping, MenuConfigsAreWellFormed) {
  for (const std::string& name : mapping_menu()) {
    SCOPED_TRACE(name);
    const DramMapping mapping{make_mapping_config(name)};
    EXPECT_EQ(mapping.config().name, name);
    EXPECT_EQ(mapping.total_words(),
              mapping.banks() * mapping.rows() * mapping.columns());
  }
  EXPECT_THROW((void)make_mapping_config("ddr9:7ch"), ContractViolation);
}

/// Per-bit decode: walk the address bits low to high, packing row and
/// column bits densely in that order; bank bit k is function k's parity.
DramCoordinate reference_decode(const MappingConfig& config,
                                std::uint64_t addr) {
  DramCoordinate c;
  int row_bit = 0;
  int column_bit = 0;
  for (int b = 0; b < config.address_bits; ++b) {
    const std::uint64_t bit = (addr >> b) & 1;
    if ((config.row_mask >> b) & 1) c.row |= bit << row_bit++;
    if ((config.column_mask >> b) & 1) c.column |= bit << column_bit++;
  }
  for (std::size_t k = 0; k < config.bank_functions.size(); ++k) {
    const int parity =
        std::popcount(addr & config.bank_functions[k].mask()) & 1;
    c.bank |= static_cast<std::uint32_t>(parity) << k;
  }
  return c;
}

/// Row and column masks split into several runs each, with select bits
/// wedged between them.
MappingConfig scattered_config() {
  MappingConfig c;
  c.name = "test:scattered";
  c.address_bits = 24;
  c.column_mask = 0b111 | (0b11 << 5) | (1 << 9);           // 0-2, 5-6, 9
  c.row_mask = (1 << 7) | (0b11 << 10) | (0x7FFull << 13);  // 7, 10-11, 13-23
  c.bank_functions = {{3, (1 << 7) | (1 << 20)},
                      {4, 1 << 9},
                      {8, (1 << 10) | (1 << 13)},
                      {12, 0}};
  return c;
}

TEST(Mapping, DecodeMatchesPerBitReferenceAndEncodeInvertsIt) {
  std::vector<MappingConfig> configs;
  for (const std::string& name : mapping_menu()) {
    configs.push_back(make_mapping_config(name));
  }
  configs.push_back(scattered_config());
  RngStream rng(7);
  for (const MappingConfig& config : configs) {
    SCOPED_TRACE(config.name);
    const DramMapping mapping{config};
    std::vector<std::uint64_t> words = {0, mapping.total_words() - 1};
    for (int i = 0; i < 2000; ++i) {
      words.push_back(rng.uniform_u64(mapping.total_words()));
    }
    for (const std::uint64_t addr : words) {
      const DramCoordinate c = mapping.decode(addr);
      EXPECT_EQ(c, reference_decode(config, addr)) << addr;
      EXPECT_LT(c.bank, mapping.banks());
      EXPECT_LT(c.row, mapping.rows());
      EXPECT_LT(c.column, mapping.columns());
      EXPECT_EQ(mapping.encode(c), addr);
    }
    for (int i = 0; i < 2000; ++i) {
      DramCoordinate c;
      c.bank = static_cast<std::uint32_t>(rng.uniform_u64(mapping.banks()));
      c.row = rng.uniform_u64(mapping.rows());
      c.column = rng.uniform_u64(mapping.columns());
      EXPECT_EQ(mapping.decode(mapping.encode(c)), c);
    }
  }
}

TEST(Mapping, AdjacentRowsShareBankAndDifferOnlyInRow) {
  // The hammer victim model flips rows +-1 around an aggressor within the
  // same bank; encode must honor that adjacency for every geometry.
  RngStream rng(11);
  for (const std::string& name : mapping_menu()) {
    SCOPED_TRACE(name);
    const DramMapping mapping{make_mapping_config(name)};
    for (int i = 0; i < 500; ++i) {
      DramCoordinate c;
      c.bank = static_cast<std::uint32_t>(rng.uniform_u64(mapping.banks()));
      c.row = 1 + rng.uniform_u64(mapping.rows() - 2);
      c.column = rng.uniform_u64(mapping.columns());
      for (const std::int64_t delta : {-1, +1}) {
        DramCoordinate v = c;
        v.row = c.row + static_cast<std::uint64_t>(delta);
        const DramCoordinate back = mapping.decode(mapping.encode(v));
        EXPECT_EQ(back.bank, c.bank);
        EXPECT_EQ(back.row, c.row + static_cast<std::uint64_t>(delta));
        EXPECT_EQ(back.column, c.column);
      }
    }
  }
}

TEST(Mapping, CanonicalBankFunctionsAreStableUnderRowMixing) {
  // Replacing one function with its XOR against another changes the
  // representation but not the addressing scheme; the canonical basis
  // must not change.
  MappingConfig config = make_mapping_config("ddr3:1ch");
  const DramMapping original{config};
  MappingConfig mixed = config;
  // fn0 ^= fn1's fold (select bits must stay dedicated, so mix fold masks
  // and express the same span by folding fn1's taps into fn0)...
  mixed.bank_functions[0].fold_mask ^=
      mixed.bank_functions[1].fold_mask |
      (std::uint64_t{1} << mixed.bank_functions[1].select_bit);
  // ...which is no longer a valid *config* (fold touches a select bit), so
  // compare spans directly at the GF(2) level instead of constructing it.
  std::vector<std::uint64_t> masks;
  for (const BankFunction& fn : mixed.bank_functions) masks.push_back(fn.mask());
  EXPECT_EQ(gf2_rref(masks), original.canonical_bank_functions());
}

TEST(Mapping, RejectsIllFormedConfigs) {
  MappingConfig config = make_mapping_config("ddr3:1ch");
  config.row_mask |= config.column_mask & 1;  // overlap
  EXPECT_THROW(DramMapping{config}, ContractViolation);

  config = make_mapping_config("ddr3:1ch");
  config.bank_functions[0].select_bit = config.bank_functions[1].select_bit;
  EXPECT_THROW(DramMapping{config}, ContractViolation);

  config = make_mapping_config("ddr3:1ch");
  config.bank_functions[0].fold_mask =
      std::uint64_t{1} << config.bank_functions[1].select_bit;
  EXPECT_THROW(DramMapping{config}, ContractViolation);

  config = make_mapping_config("ddr3:1ch");
  config.row_mask &= ~(config.row_mask & (~config.row_mask + 1));  // gap
  EXPECT_THROW(DramMapping{config}, ContractViolation);
}

}  // namespace
}  // namespace unp::dram::mapping
