// The pluggable codes against ground truth: exhaustive guarantees per
// family, a pinned miscorrection census for 3-/4-bit upsets, the Hsiao
// parity-check columns, chipkill's symbol rules, the large-codeword EDC fast
// path and its CRC-aliasing SDC window, and the registry's malformed-spec
// contract.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "ecc/chipkill.hpp"
#include "ecc/engine.hpp"
#include "ecc/hsiao.hpp"
#include "ecc/large.hpp"
#include "ecc/registry.hpp"

namespace unp::ecc {
namespace {

ExhaustiveResult sweep(const std::string& spec, int max_weight) {
  const auto code = make_code(spec);
  EXPECT_NE(code, nullptr) << spec;
  ThreadPool pool(4);
  return evaluate_exhaustive(*code, max_weight, pool);
}

// --- per-family guarantees over every 1- and 2-bit pattern ----------------

TEST(CodesTest, EveryDefaultCodeCorrectsAllSingleBitUpsets) {
  for (const std::string& spec : default_code_specs()) {
    const auto code = make_code(spec);
    ASSERT_NE(code, nullptr) << spec;
    const CodeGeometry g = code->geometry();
    EXPECT_GE(g.guaranteed_correct, 1) << spec;
    for (int b = 0; b < g.codeword_bits; ++b) {
      const int bits[] = {b};
      ASSERT_EQ(code->evaluate(bits), Verdict::kCorrect)
          << spec << " bit " << b;
    }
    EXPECT_EQ(code->evaluate({}), Verdict::kCorrect) << spec;
  }
}

TEST(CodesTest, SecdedFamiliesDetectEveryDoubleBitUpset) {
  for (const char* spec : {"secded72", "hsiao:64/8", "hamming:64"}) {
    const ExhaustiveResult r = sweep(spec, 2);
    ASSERT_EQ(r.weights.size(), 2u) << spec;
    EXPECT_EQ(r.weights[1].counts.detect_only, r.weights[1].patterns) << spec;
    EXPECT_EQ(r.weights[1].counts.silent(), 0u) << spec;
  }
}

TEST(CodesTest, Bch2CorrectsEveryDoubleBitUpset) {
  const ExhaustiveResult r = sweep("bch:64/2", 2);
  EXPECT_EQ(r.codeword_bits, 78);
  EXPECT_EQ(r.weights[0].counts.correct, 78u);
  EXPECT_EQ(r.weights[1].counts.correct, 3003u);  // C(78,2)
  EXPECT_EQ(r.total().silent(), 0u);
}

// --- pinned miscorrection census for 3-/4-bit upsets ----------------------
//
// These exact tallies are the contract the report section, the CLI, and
// the policy cost menu quote.  A change here is a decoder change.

TEST(CodesTest, PinnedCensusSecded72) {
  const ExhaustiveResult r = sweep("secded72", 4);
  EXPECT_EQ(r.weights[2].patterns, 59640u);  // C(72,3)
  EXPECT_EQ(r.weights[2].counts.miscorrect, 34164u);
  EXPECT_EQ(r.weights[2].counts.detect_only, 25476u);
  EXPECT_EQ(r.weights[2].counts.sdc, 0u);
  EXPECT_EQ(r.weights[3].patterns, 1028790u);  // C(72,4)
  EXPECT_EQ(r.weights[3].counts.detect_only, 1020249u);
  EXPECT_EQ(r.weights[3].counts.sdc, 8541u);
  EXPECT_EQ(r.weights[3].counts.miscorrect, 0u);
}

TEST(CodesTest, HsiaoAutoSizedMatchesCanonicalSecded72Exactly) {
  // `secded72` is the odd-weight-column construction at (64, 8) under the
  // study's name: the two specs must agree outcome-for-outcome.
  const ExhaustiveResult hsiao = sweep("hsiao:64/8", 4);
  const ExhaustiveResult secded = sweep("secded72", 4);
  ASSERT_EQ(hsiao.weights.size(), secded.weights.size());
  for (std::size_t w = 0; w < hsiao.weights.size(); ++w)
    EXPECT_EQ(hsiao.weights[w], secded.weights[w]) << "weight " << (w + 1);
}

TEST(CodesTest, PinnedCensusHamming64) {
  const ExhaustiveResult r = sweep("hamming:64", 4);
  EXPECT_EQ(r.weights[2].counts.miscorrect, 45304u);
  EXPECT_EQ(r.weights[2].counts.detect_only, 14336u);
  EXPECT_EQ(r.weights[3].counts.detect_only, 1017464u);
  EXPECT_EQ(r.weights[3].counts.sdc, 11326u);
}

TEST(CodesTest, PinnedCensusBch64T2) {
  const ExhaustiveResult r = sweep("bch:64/2", 4);
  // d_min = 5: no pattern below weight 5 can reach another codeword, so
  // the census shows zero SDC; beyond t the decoder either miscorrects
  // into a radius-2 ball or fails (detected).
  EXPECT_EQ(r.weights[2].counts.miscorrect, 13450u);
  EXPECT_EQ(r.weights[2].counts.detect_only, 62626u);
  EXPECT_EQ(r.weights[2].counts.sdc, 0u);
  EXPECT_EQ(r.weights[3].counts.miscorrect, 247865u);
  EXPECT_EQ(r.weights[3].counts.detect_only, 1178560u);
  EXPECT_EQ(r.weights[3].counts.sdc, 0u);
}

TEST(CodesTest, PinnedCensusChipkill) {
  // Every pattern touching one symbol is corrected, two are detected, and
  // three or more pass silently when a data bit is hit; miscorrection never
  // happens in the outcome model.
  const ExhaustiveResult r = sweep("chipkill", 4);
  ASSERT_EQ(r.codeword_bits, 72);
  const VerdictCounts expected[] = {
      {.correct = 72, .miscorrect = 0, .detect_only = 0, .sdc = 0},
      {.correct = 108, .miscorrect = 0, .detect_only = 2448, .sdc = 0},
      {.correct = 72, .miscorrect = 0, .detect_only = 7344, .sdc = 52224},
      {.correct = 18, .miscorrect = 0, .detect_only = 10404, .sdc = 1018368},
  };
  ASSERT_EQ(r.weights.size(), 4u);
  for (std::size_t w = 0; w < 4; ++w)
    EXPECT_EQ(r.weights[w].counts, expected[w]) << "weight " << (w + 1);
}

// --- Hsiao parity-check columns -------------------------------------------

void expect_distinct_odd_weight_columns(const HsiaoCode& code) {
  const CodeGeometry g = code.geometry();
  std::set<std::uint32_t> seen;
  for (int i = 0; i < g.data_bits; ++i) {
    const std::uint32_t col = code.data_column(i);
    EXPECT_LT(col, std::uint32_t{1} << g.check_bits) << code.name();
    EXPECT_EQ(std::popcount(col) % 2, 1) << code.name() << " bit " << i;
    EXPECT_NE(std::popcount(col), 1)
        << code.name() << ": unit columns are reserved for check bits";
    EXPECT_TRUE(seen.insert(col).second)
        << code.name() << ": duplicate column " << col;
  }
}

TEST(HsiaoTest, ColumnsAreDistinctOddWeight) {
  expect_distinct_odd_weight_columns(HsiaoCode(64, 8));
  const HsiaoCode auto_sized(32);
  EXPECT_EQ(auto_sized.geometry().check_bits, 7);
  expect_distinct_odd_weight_columns(auto_sized);
}

// --- chipkill symbol rules --------------------------------------------------

TEST(ChipkillTest, OneNibbleIsCorrected) {
  const ChipkillCode code;
  EXPECT_EQ(code.evaluate(std::vector<int>{0, 1}), Verdict::kCorrect);
  EXPECT_EQ(code.evaluate(std::vector<int>{4, 5, 6, 7}), Verdict::kCorrect);
  // A whole-nibble flip is beyond SECDED's guarantee: the reliability gap.
  EXPECT_NE(make_code("secded72")->evaluate(std::vector<int>{4, 5, 6, 7}),
            Verdict::kCorrect);
}

TEST(ChipkillTest, TwoSymbolsAreDetectOnly) {
  const ChipkillCode code;
  EXPECT_EQ(code.evaluate(std::vector<int>{3, 4}), Verdict::kDetectOnly);
  EXPECT_EQ(code.evaluate(std::vector<int>{0, 8}), Verdict::kDetectOnly);
  EXPECT_EQ(code.evaluate(std::vector<int>{4, 5, 6, 7, 12, 13, 14, 15}),
            Verdict::kDetectOnly);
}

TEST(ChipkillTest, ThreeOrMoreSymbolsWithDataHitAreSdc) {
  const ChipkillCode code;
  EXPECT_EQ(code.evaluate(std::vector<int>{0, 4, 8}), Verdict::kSdc);
  EXPECT_EQ(code.evaluate(std::vector<int>{0, 64, 68}), Verdict::kSdc);
  std::vector<int> all_data;
  for (int b = 0; b < 64; ++b) all_data.push_back(b);
  EXPECT_EQ(code.evaluate(all_data), Verdict::kSdc);
}

TEST(ChipkillTest, CheckSymbolOnlyDamageIsCorrect) {
  const ChipkillCode code;
  EXPECT_EQ(code.evaluate(std::vector<int>{64, 65, 66, 67}), Verdict::kCorrect);
  EXPECT_EQ(code.evaluate(std::vector<int>{64, 71}), Verdict::kDetectOnly);
}

// --- large-codeword EDC-first behaviour -----------------------------------

TEST(LargeCodeTest, GeometryAndFastPath) {
  const LargeBlockCode code(512, 8);
  const CodeGeometry g = code.geometry();
  EXPECT_EQ(g.data_bits, 4096);
  EXPECT_GT(g.check_bits, LargeBlockCode::kEdcBits);
  // Data damage up to t takes the decode path and is repaired.
  EXPECT_EQ(code.evaluate(std::vector<int>{0}), Verdict::kCorrect);
  EXPECT_EQ(code.evaluate(std::vector<int>{5, 900, 4000}), Verdict::kCorrect);
  // A flipped EDC bit is itself correctable.
  EXPECT_EQ(code.evaluate(std::vector<int>{4096}), Verdict::kCorrect);
  // BCH-parity-only damage is invisible to the CRC: the fast path accepts
  // the (intact) data without running the ECC at all.
  const int parity_bit = g.data_bits + LargeBlockCode::kEdcBits;
  EXPECT_EQ(code.edc_syndrome(std::vector<int>{parity_bit}), 0u);
  EXPECT_EQ(code.evaluate(std::vector<int>{parity_bit}), Verdict::kCorrect);
}

TEST(LargeCodeTest, CrcAliasingPatternIsSilentDespiteCorrectableWeight) {
  // Lay the CRC-32 generator polynomial into the data: the EDC syndrome is
  // exactly zero, so the fast path returns the corrupted block untouched —
  // the SDC window the header documents, even though a weight-15 pattern
  // inside one block is something the t=16 BCH could have repaired.
  const LargeBlockCode code(512, 16);
  constexpr std::uint64_t kPoly = 0x104C11DB7ull;  // x^32 + CRC-32 terms
  const int base = 100;
  std::vector<int> pattern;
  for (int j = 32; j >= 0; --j)
    if ((kPoly >> j) & 1u) pattern.push_back(base - j + 32);
  ASSERT_EQ(pattern.size(), 15u);
  ASSERT_EQ(code.edc_syndrome(pattern), 0u);
  EXPECT_EQ(code.evaluate(pattern), Verdict::kSdc);
}

// --- registry contract ----------------------------------------------------

TEST(RegistryTest, DefaultSpecsAllConstruct) {
  for (const std::string& spec : default_code_specs()) {
    std::string error;
    const auto code = make_code(spec, &error);
    ASSERT_NE(code, nullptr) << spec << ": " << error;
    EXPECT_EQ(code->name(), spec);
    EXPECT_GT(code->geometry().data_bits, 0) << spec;
  }
}

TEST(RegistryTest, MalformedSpecsReturnNullWithDiagnostic) {
  for (const char* spec :
       {"", "bogus", "nosuch:64", "hamming:", "hamming:0", "hamming:abc",
        "bch:64", "bch:64/0", "bch:64/999", "hsiao:64/x", "large:777B/8",
        "large:512B/0", "secded72:1"}) {
    std::string error;
    EXPECT_EQ(make_code(spec, &error), nullptr) << spec;
    EXPECT_FALSE(error.empty()) << spec;
    EXPECT_EQ(make_code(spec), nullptr) << spec;  // error sink optional
  }
}

}  // namespace
}  // namespace unp::ecc
