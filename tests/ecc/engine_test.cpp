// The evaluation drivers: combination ranking, exhaustive enumeration
// totals and thread invariance, the mask census, and population replay
// bucketing — census evaluation must equal decoding every fault.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bitops.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "ecc/engine.hpp"
#include "ecc/registry.hpp"

namespace unp::ecc {
namespace {

// --- combinatorics --------------------------------------------------------

TEST(CombinatoricsTest, BinomialValues) {
  EXPECT_EQ(binomial(0, 0), 1u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(5, 2), 10u);
  EXPECT_EQ(binomial(72, 2), 2556u);
  EXPECT_EQ(binomial(72, 4), 1028790u);
  EXPECT_EQ(binomial(78, 3), 76076u);
  EXPECT_EQ(binomial(4, 5), 0u);  // k > n
  EXPECT_EQ(binomial(60, 10), 75394027566u);
  // Saturation is conservative: it triggers when the intermediate product
  // overflows, even if the true value would fit.  Callers only ever ask
  // "is this enumerable", so UINT64_MAX is the right answer for both.
  EXPECT_EQ(binomial(64, 32), UINT64_MAX);
  EXPECT_EQ(binomial(200, 100), UINT64_MAX);
}

TEST(CombinatoricsTest, UnrankMatchesSuccessorWalk) {
  constexpr int n = 9;
  constexpr int k = 4;
  std::vector<int> combo = {0, 1, 2, 3};  // rank 0
  std::uint64_t rank = 0;
  do {
    std::vector<int> unranked(k);
    unrank_combination(rank, n, k, unranked);
    ASSERT_EQ(unranked, combo) << "rank " << rank;
    ++rank;
  } while (next_combination(combo, n));
  EXPECT_EQ(rank, binomial(n, k));
}

TEST(CombinatoricsTest, SuccessorWalkEndsAtLastCombination) {
  std::vector<int> combo = {3, 4, 5};
  EXPECT_FALSE(next_combination(combo, 6));
  combo = {0, 4, 5};
  EXPECT_TRUE(next_combination(combo, 6));
  EXPECT_EQ(combo, (std::vector<int>{1, 2, 3}));
}

// --- exhaustive enumeration ----------------------------------------------

TEST(ExhaustiveTest, TotalsAreBinomialSums) {
  const auto code = make_code("secded72");
  ThreadPool pool(2);
  const ExhaustiveResult r = evaluate_exhaustive(*code, 3, pool);
  EXPECT_EQ(r.code, "secded72");
  EXPECT_EQ(r.codeword_bits, 72);
  ASSERT_EQ(r.weights.size(), 3u);
  std::uint64_t expected_total = 0;
  for (int w = 1; w <= 3; ++w) {
    const ExhaustiveWeightResult& wr = r.weights[static_cast<std::size_t>(w - 1)];
    EXPECT_EQ(wr.weight, w);
    EXPECT_EQ(wr.patterns, binomial(72, w));
    EXPECT_EQ(wr.counts.total(), wr.patterns);  // every pattern tallied once
    expected_total += wr.patterns;
  }
  EXPECT_EQ(r.total_patterns(), expected_total);
  EXPECT_EQ(r.total().total(), expected_total);
}

TEST(ExhaustiveTest, CountsAreThreadCountInvariant) {
  for (const char* spec : {"secded72", "bch:64/2"}) {
    const auto code = make_code(spec);
    ThreadPool one(1);
    const ExhaustiveResult baseline = evaluate_exhaustive(*code, 3, one);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      ThreadPool pool(threads);
      const ExhaustiveResult r = evaluate_exhaustive(*code, 3, pool);
      ASSERT_EQ(r.weights.size(), baseline.weights.size()) << spec;
      for (std::size_t w = 0; w < r.weights.size(); ++w)
        EXPECT_EQ(r.weights[w], baseline.weights[w])
            << spec << " weight " << (w + 1) << " at " << threads
            << " threads";
    }
  }
}

// --- population replay ----------------------------------------------------

TEST(PopulationTest, MasksLandInTheirMultiplicityBuckets) {
  const MaskCensus census = mask_census(std::vector<Word>{
      0x1FF,       // many (9)
      0x3,         // double
      0x0,         // clean: dropped from the census
      0x80000000,  // single
      0xFF,        // few (8)
      0x1,         // single
      0x80000000,  // the same single again: counted, not re-listed
  });
  ASSERT_EQ(census.size(), 5u);
  EXPECT_EQ(census.front().mask, 0x1u);  // ascending mask order
  EXPECT_EQ(census.back().mask, 0x80000000u);
  EXPECT_EQ(census.back().count, 2u);

  const PopulationResult r = evaluate_population(*make_code("secded72"), census);
  EXPECT_EQ(r.code, "secded72");
  EXPECT_EQ(r.faults, 6u);  // zero mask skipped
  const auto at = [&](int flipped_bits) -> const VerdictCounts& {
    return r.by_class[static_cast<std::size_t>(flip_class_of(flipped_bits))];
  };
  EXPECT_EQ(at(1).total(), 3u);
  EXPECT_EQ(at(2).total(), 1u);
  EXPECT_EQ(at(8).total(), 1u);
  EXPECT_EQ(at(9).total(), 1u);
  // SECDED verdicts per bucket: singles corrected, the double detected.
  EXPECT_EQ(at(1).correct, 3u);
  EXPECT_EQ(at(2).detect_only, 1u);
}

TEST(PopulationTest, SilentFractionCountsMiscorrectAndSdc) {
  PopulationResult r;
  r.faults = 8;
  r.by_class[0].correct = 5;
  r.by_class[2].miscorrect = 2;
  r.by_class[3].sdc = 1;
  EXPECT_DOUBLE_EQ(r.silent_fraction(), 3.0 / 8.0);
}

TEST(PopulationTest, CensusReplayEqualsDecodingEveryFault) {
  // A random multiset: zeros, duplicates (masks drawn from a small pool, as
  // in the study's population) and a >t tail of 9-16 flips that drives the
  // full-decode verdict paths (BCH Berlekamp-Massey/Chien, large-codeword
  // CRC re-check).  The tail is kept short: a locator that splits sends
  // the 4KB code through a Chien search over all 2^16 - 1 field elements.
  RngStream rng(23);
  std::vector<Word> pool(300);
  for (auto& m : pool) {
    const int flips = static_cast<int>(rng.uniform_u64(9));  // incl. zeros
    m = 0;
    for (int f = 0; f < flips; ++f) m |= Word{1} << rng.uniform_u64(32);
  }
  std::vector<Word> masks(3000);
  for (auto& m : masks) m = pool[rng.uniform_u64(pool.size())];
  for (int i = 0; i < 6; ++i) {
    const int flips = 9 + static_cast<int>(rng.uniform_u64(8));
    Word m = 0;
    for (int f = 0; f < flips; ++f) m |= Word{1} << rng.uniform_u64(32);
    masks.push_back(m);
    masks.push_back(m);  // duplicated beyond the guarantee too
  }
  const MaskCensus census = mask_census(masks);
  ASSERT_LT(census.size(), masks.size());

  for (const std::string& spec : default_code_specs()) {
    const auto code = make_code(spec);
    PopulationResult reference;
    reference.code = std::string(code->name());
    for (const Word m : masks) {
      if (m == 0) continue;
      const std::vector<int> bits = set_bit_positions(m);
      reference.by_class[static_cast<std::size_t>(
                             flip_class_of(static_cast<int>(bits.size())))]
          .add(code->evaluate(bits));
      ++reference.faults;
    }
    EXPECT_EQ(evaluate_population(*code, census), reference) << spec;
  }
}

// The default code set is built once per process and shared: the same
// objects on every call and from every thread, in default_code_specs()
// order, and replaying a census through them concurrently gives what a
// freshly built code gives on one thread.
TEST(DefaultCodesTest, OneSharedSetAgreesWithFreshCodesAcrossThreads) {
  const std::vector<std::string>& specs = default_code_specs();
  ASSERT_EQ(default_codes().size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(default_codes()[i]->name(), specs[i]);
    EXPECT_EQ(default_code(specs[i]), default_codes()[i]);
  }
  EXPECT_EQ(default_code("bch:64/3"), nullptr);

  RngStream rng(31);
  std::vector<Word> masks(500);
  for (auto& m : masks) {
    m = 0;
    for (std::uint64_t f = rng.uniform_u64(6); f > 0; --f)
      m |= Word{1} << rng.uniform_u64(32);
  }
  const MaskCensus census = mask_census(masks);
  std::vector<PopulationResult> reference;
  for (const std::string& spec : specs)
    reference.push_back(evaluate_population(*make_code(spec), census));

  ThreadPool pool(4);
  std::vector<std::vector<PopulationResult>> results(8);
  pool.parallel_for(results.size(), [&](std::size_t t) {
    for (const auto& code : default_codes())
      results[t].push_back(evaluate_population(*code, census));
  });
  for (const auto& r : results) EXPECT_EQ(r, reference);
}

}  // namespace
}  // namespace unp::ecc
