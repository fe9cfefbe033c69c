// Page retirement, checkpoint adaptation and the ECC what-if analysis.
#include <gtest/gtest.h>

#include "common/require.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/ecc_whatif.hpp"
#include "resilience/page_retirement.hpp"

namespace unp::resilience {
namespace {

using analysis::FaultRecord;

FaultRecord fault(cluster::NodeId node, TimePoint t, std::uint64_t vaddr,
                  Word expected = 0xFFFFFFFFu, Word actual = 0xFFFFFFFEu) {
  FaultRecord f;
  f.node = node;
  f.first_seen = t;
  f.last_seen = t;
  f.virtual_address = vaddr;
  f.expected = expected;
  f.actual = actual;
  return f;
}

TEST(PageRetirement, WeakBitAbsorbedAfterFirstFault) {
  // 100 recurrences of one weak bit: retire-after-1 absorbs 99.
  std::vector<FaultRecord> faults;
  for (int i = 0; i < 100; ++i) {
    faults.push_back(fault({4, 5}, 1000 + i * 10000, 4096));
  }
  const PageRetirementOutcome outcome = simulate_page_retirement(faults);
  EXPECT_EQ(outcome.total_faults, 100u);
  EXPECT_EQ(outcome.avoided_faults, 99u);
  EXPECT_EQ(outcome.pages_retired, 1u);
  EXPECT_NEAR(outcome.avoided_fraction(), 0.99, 1e-9);
}

TEST(PageRetirement, ScatteredAddressesDefeatRetirement) {
  // The degrading node's signature: every fault on a fresh page.
  std::vector<FaultRecord> faults;
  for (int i = 0; i < 100; ++i) {
    faults.push_back(
        fault({2, 4}, 1000 + i, static_cast<std::uint64_t>(i) * 8192));
  }
  const PageRetirementOutcome outcome = simulate_page_retirement(faults);
  EXPECT_EQ(outcome.avoided_faults, 0u);
  EXPECT_EQ(outcome.pages_retired, 100u);
}

TEST(PageRetirement, ThresholdDelaysRetirement) {
  std::vector<FaultRecord> faults;
  for (int i = 0; i < 10; ++i) faults.push_back(fault({1, 1}, 1000 + i, 4096));
  PageRetirementConfig config;
  config.faults_to_retire = 3;
  const PageRetirementOutcome outcome = simulate_page_retirement(faults, config);
  EXPECT_EQ(outcome.avoided_faults, 7u);
}

TEST(PageRetirement, BudgetCapsPages) {
  std::vector<FaultRecord> faults;
  for (int i = 0; i < 20; ++i) {
    faults.push_back(
        fault({1, 1}, 1000 + i, static_cast<std::uint64_t>(i % 4) * 4096));
    faults.push_back(
        fault({1, 1}, 1000 + i, static_cast<std::uint64_t>(i % 4) * 4096));
  }
  PageRetirementConfig config;
  config.max_pages_per_node = 2;
  const PageRetirementOutcome outcome = simulate_page_retirement(faults, config);
  EXPECT_EQ(outcome.pages_retired, 2u);
}

TEST(PageRetirement, PerNodeRowsRanked) {
  std::vector<FaultRecord> faults;
  for (int i = 0; i < 50; ++i) faults.push_back(fault({4, 5}, 1000 + i, 4096));
  for (int i = 0; i < 10; ++i) faults.push_back(fault({1, 1}, 1000 + i, 8192));
  const auto rows = page_retirement_by_node(faults);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].node, (cluster::NodeId{4, 5}));
  EXPECT_EQ(rows[0].avoided, 49u);
  EXPECT_EQ(rows[1].avoided, 9u);
}

TEST(Checkpoint, YoungIntervalFormula) {
  EXPECT_DOUBLE_EQ(young_interval_hours(0.5, 100.0), 10.0);
  EXPECT_THROW((void)young_interval_hours(0.0, 100.0), ContractViolation);
}

TEST(Checkpoint, WasteMinimizedAtYoungInterval) {
  const double cost = 0.1, mtbf = 167.0;
  const double best = young_interval_hours(cost, mtbf);
  const double at_best = waste_fraction(best, cost, mtbf);
  EXPECT_LT(at_best, waste_fraction(best * 2.0, cost, mtbf));
  EXPECT_LT(at_best, waste_fraction(best * 0.5, cost, mtbf));
}

TEST(Checkpoint, WasteCappedAtOne) {
  EXPECT_DOUBLE_EQ(waste_fraction(10.0, 0.1, 0.001), 1.0);
}

TEST(Checkpoint, AdaptivePolicyWinsUnderBimodalRegimes) {
  // The Section III-I situation: MTBF 167 h normal, 0.39 h degraded, ~18%
  // degraded days.  A regime-aware interval must strictly reduce waste.
  analysis::RegimeResult regime;
  regime.degraded.assign(425, false);
  for (std::size_t d = 0; d < 77; ++d) regime.degraded[d * 5] = true;
  regime.normal_days = 348;
  regime.degraded_days = 77;
  regime.normal_errors = 50;
  regime.degraded_errors = 4729;
  regime.normal_mtbf_hours = 167.0;
  regime.degraded_mtbf_hours = 0.39;

  const CheckpointComparison cmp = compare_checkpoint_policies(regime, 0.1);
  EXPECT_GT(cmp.normal_interval_hours, cmp.degraded_interval_hours * 5.0);
  EXPECT_LT(cmp.adaptive_waste_fraction, cmp.static_waste_fraction);
  EXPECT_GT(cmp.improvement(), 0.1);
}

TEST(EccWhatIf, CountsPerScheme) {
  std::vector<FaultRecord> faults{
      fault({1, 1}, 100, 0, 0xFFFFFFFFu, 0xFFFFFFFFu),   // no flip: skipped
      fault({1, 1}, 200, 0),                             // 1 bit
      fault({1, 1}, 300, 64, 0xFFFFFFFFu, 0xFFFF7BFFu),  // 2 bits, 2 nibbles
      fault({1, 2}, 400, 0, 0xFFFFFFFFu, 0xFFFF73FFu),   // 3 bits, 2 nibbles
      fault({1, 2}, 500, 64, 0xFFFFFFFFu, 0xFC3FFFFFu),  // 4 bits, 2 nibbles
      fault({2, 1}, 600, 0, 0x00000000u, 0x00000111u),   // 3 bits, 3 nibbles
      fault({2, 1}, 700, 64, 0x00000000u, 0x000000F0u),  // 4 bits, 1 nibble
      fault({2, 2}, 800, 0),                             // 1 bit
  };
  const EccWhatIf r = ecc_what_if(faults);

  EXPECT_EQ(r.multibit_faults, 5u);
  EXPECT_EQ(r.double_bit_faults, 1u);
  EXPECT_EQ(r.beyond_secded_guarantee, 4u);

  // Parity flags the odd flip counts (1, 3, 3, 1 bits) and misses the even.
  EXPECT_EQ(r.parity, (ecc::VerdictCounts{.detect_only = 4, .sdc = 3}));

  // SECDED: the singles are repaired, the double detected; the wider faults
  // (beyond the guarantee) are never repaired.
  EXPECT_EQ(r.secded.faults, 7u);
  EXPECT_EQ(r.secded.total().total(), 7u);
  EXPECT_EQ(r.secded.total().correct, 2u);
  const auto secded_class = [&](int flipped_bits) {
    return r.secded.by_class[static_cast<std::size_t>(
        flip_class_of(flipped_bits))];
  };
  EXPECT_EQ(secded_class(2).detect_only, 1u);
  EXPECT_EQ(secded_class(3).correct, 0u);

  // Chipkill: one-nibble faults repaired, two-nibble detected, the
  // three-nibble fault silent.
  EXPECT_EQ(r.chipkill.faults, 7u);
  EXPECT_EQ(r.chipkill.total(),
            (ecc::VerdictCounts{.correct = 3, .detect_only = 3, .sdc = 1}));
}

TEST(EccWhatIf, IsolationReportFindsQuietNodes) {
  std::vector<FaultRecord> faults{
      fault({1, 1}, 100, 0, 0xFFFFFFFFu, 0xFFFFFF0Fu),  // 4-bit, isolated
      fault({2, 2}, 5000000, 0),                        // unrelated, far away
      fault({3, 3}, 200, 0, 0xFFFFFFFFu, 0xFFFF0F0Fu),  // 8-bit, with company
      fault({3, 3}, 90000, 64),
  };
  const auto reports = sdc_isolation_report(faults, 4, 3600);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].fault.node, (cluster::NodeId{1, 1}));
  EXPECT_EQ(reports[0].same_node_other_faults, 0u);
  EXPECT_EQ(reports[0].same_time_other_faults, 1u);  // the {3,3} fault at 200
  EXPECT_EQ(reports[1].fault.node, (cluster::NodeId{3, 3}));
  EXPECT_EQ(reports[1].same_node_other_faults, 1u);
}

}  // namespace
}  // namespace unp::resilience
