// The shadow engine's acceptance property: a ThresholdQuarantinePolicy run
// online against the record stream produces an outcome ledger bit-identical
// to resilience::simulate_quarantine over the finished extraction — field
// for field, including the derived doubles.
#include "policy/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "analysis/regime.hpp"
#include "policy/builtin.hpp"
#include "resilience/quarantine.hpp"
#include "sim/campaign.hpp"
#include "telemetry/sink.hpp"

namespace unp::policy {
namespace {

/// One synthetic raw error: (node index, time, distinct address).
struct RawError {
  int node_index;
  TimePoint time;
  std::uint64_t virtual_address;
};

/// Feed a synthetic node-ordered stream (the RecordSink protocol the
/// campaign and the cache replay both speak) into `sink`.  Addresses are
/// distinct and times spaced beyond the merge window, so every raw error
/// collapses to exactly one independent fault.
void stream_errors(telemetry::RecordSink& sink, const CampaignWindow& window,
                   const std::vector<RawError>& errors) {
  sink.begin_campaign(window);
  for (int index = 0; index < cluster::kStudyNodeSlots; ++index) {
    const cluster::NodeId node = cluster::node_from_index(index);
    bool any = false;
    for (const RawError& e : errors) {
      if (e.node_index != index) continue;
      if (!any) sink.begin_node(node);
      any = true;
      telemetry::ErrorRun run;
      run.first.time = e.time;
      run.first.node = node;
      run.first.virtual_address = e.virtual_address;
      run.first.expected = 0xFFFFFFFFu;
      run.first.actual = 0xFFFFFFFEu;
      run.count = 1;
      sink.on_error_run(run);
    }
    if (any) sink.end_node(node);
  }
  sink.end_campaign();
}

/// Synthetic burst: `count` errors on `day`, 600 s apart (beyond the 300 s
/// merge window), each at a fresh address.
void add_burst(std::vector<RawError>& out, int node_index,
               const CampaignWindow& w, int day, int count) {
  for (int i = 0; i < count; ++i) {
    out.push_back({node_index,
                   w.start + day * kSecondsPerDay + 3600 + i * 600,
                   0x1000u + static_cast<std::uint64_t>(out.size()) * 0x40u});
  }
}

EngineResult run_engine(const CampaignWindow& window,
                        const std::vector<RawError>& errors, int period_days,
                        bool exclude_loudest = false) {
  PolicyEngine::Config config;
  config.exclude_loudest = exclude_loudest;
  PolicyEngine engine(config);
  ThresholdQuarantinePolicy::Config tq;
  tq.period_days = period_days;
  engine.add_policy(std::make_unique<ThresholdQuarantinePolicy>(tq));
  stream_errors(engine, window, errors);
  return engine.finish();
}

void expect_bit_identical(const resilience::QuarantineOutcome& online,
                          const resilience::QuarantineOutcome& batch) {
  EXPECT_EQ(online.period_days, batch.period_days);
  EXPECT_EQ(online.counted_errors, batch.counted_errors);
  EXPECT_EQ(online.suppressed_errors, batch.suppressed_errors);
  EXPECT_EQ(online.quarantine_entries, batch.quarantine_entries);
  EXPECT_EQ(online.quarantined_seconds, batch.quarantined_seconds);
  // == on doubles: both sides compute the same expression from the same
  // integers, so these are bitwise-equal, not just close.
  EXPECT_EQ(online.node_days_quarantined, batch.node_days_quarantined);
  EXPECT_EQ(online.system_mtbf_hours, batch.system_mtbf_hours);
  EXPECT_EQ(online.availability_loss, batch.availability_loss);
}

TEST(PolicyEngine, OnlineThresholdMatchesBatchOnSyntheticStream) {
  const CampaignWindow w;
  std::vector<RawError> errors;
  add_burst(errors, 10, w, 10, 20);   // triggers, then re-triggers later
  add_burst(errors, 10, w, 60, 20);
  add_burst(errors, 25, w, 10, 2);    // quiet node, never triggers
  add_burst(errors, 40, w, 200, 8);   // second loud node

  const EngineResult result = run_engine(w, errors, 5);
  ASSERT_TRUE(result.excluded_nodes.empty());
  resilience::QuarantineConfig config;
  config.period_days = 5;
  expect_bit_identical(result.outcomes[0].quarantine,
                       simulate_quarantine(result.extraction.faults, w, config));
}

// Satellite edge case: period 0 disables quarantine — everything is counted,
// nothing suppressed, no entries, and online still matches batch exactly.
TEST(PolicyEngine, PeriodZeroCountsEverything) {
  const CampaignWindow w;
  std::vector<RawError> errors;
  add_burst(errors, 10, w, 10, 20);
  const EngineResult result = run_engine(w, errors, 0);
  const auto& outcome = result.outcomes[0].quarantine;
  EXPECT_EQ(outcome.counted_errors, 20u);
  EXPECT_EQ(outcome.suppressed_errors, 0u);
  EXPECT_EQ(outcome.quarantine_entries, 0u);
  EXPECT_EQ(outcome.quarantined_seconds, 0);
  expect_bit_identical(outcome, simulate_quarantine(result.extraction.faults, w,
                                                    resilience::QuarantineConfig{}));
}

// Satellite edge case: a node with a single event never crosses the >3/day
// threshold, so it contributes one counted error and no quarantine.
TEST(PolicyEngine, SingleEventNodeNeverTriggers) {
  const CampaignWindow w;
  std::vector<RawError> errors;
  errors.push_back({7, w.start + 5 * kSecondsPerDay + 3600, 0x1000});
  const EngineResult result = run_engine(w, errors, 30);
  const auto& outcome = result.outcomes[0].quarantine;
  EXPECT_EQ(outcome.counted_errors, 1u);
  EXPECT_EQ(outcome.quarantine_entries, 0u);
  EXPECT_EQ(outcome.quarantined_seconds, 0);
}

// Satellite edge case: a quarantine triggered near the end of the campaign
// is clipped at window.end; the clipped integer seconds match batch exactly.
TEST(PolicyEngine, QuarantineStraddlingCampaignEndIsClipped) {
  const CampaignWindow w;
  const int last_day = static_cast<int>(w.duration_days()) - 2;
  std::vector<RawError> errors;
  add_burst(errors, 10, w, last_day, 10);
  const EngineResult result = run_engine(w, errors, 30);
  const auto& outcome = result.outcomes[0].quarantine;
  EXPECT_EQ(outcome.quarantine_entries, 1u);
  // Trigger = 4th error; the cut runs from it to the end of the campaign.
  const TimePoint trigger = w.start + last_day * kSecondsPerDay + 3600 + 3 * 600;
  EXPECT_EQ(outcome.quarantined_seconds, w.end - trigger);
  resilience::QuarantineConfig config;
  config.period_days = 30;
  expect_bit_identical(outcome,
                       simulate_quarantine(result.extraction.faults, w, config));
}

// Satellite: the full batch sweep and seven online threshold policies agree
// period by period on identical input (one engine pass).
TEST(PolicyEngine, SweepAgreesWithBatchSweepOnIdenticalInput) {
  const CampaignWindow w;
  std::vector<RawError> errors;
  for (int day = 10; day < 300; day += 12) add_burst(errors, 10, w, day, 30);
  add_burst(errors, 25, w, 50, 6);
  add_burst(errors, 40, w, 120, 2);

  PolicyEngine::Config config;
  config.exclude_loudest = false;
  PolicyEngine engine(config);
  const std::vector<int> periods{0, 5, 10, 15, 20, 25, 30};
  for (const int p : periods) {
    ThresholdQuarantinePolicy::Config tq;
    tq.period_days = p;
    engine.add_policy(std::make_unique<ThresholdQuarantinePolicy>(tq));
  }
  stream_errors(engine, w, errors);
  const EngineResult result = engine.finish();

  const auto batch =
      resilience::quarantine_sweep(result.extraction.faults, w, periods);
  ASSERT_EQ(batch.size(), result.outcomes.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_bit_identical(result.outcomes[i].quarantine, batch[i]);
  }
}

// The engine resolves the same exclusions as the batch analyses: the loudest
// node's ledger is dropped, exactly as Table II drops it up front.
TEST(PolicyEngine, LoudestNodeExcludedFromLedgers) {
  const CampaignWindow w;
  std::vector<RawError> errors;
  add_burst(errors, 10, w, 10, 50);  // loudest by far
  add_burst(errors, 25, w, 10, 2);
  const EngineResult result = run_engine(w, errors, 5, /*exclude_loudest=*/true);
  ASSERT_TRUE(result.loudest.has_value());
  EXPECT_EQ(cluster::node_index(*result.loudest), 10);
  const auto& outcome = result.outcomes[0].quarantine;
  EXPECT_EQ(outcome.counted_errors, 2u);  // only the quiet node remains
  EXPECT_EQ(outcome.quarantine_entries, 0u);

  resilience::QuarantineConfig config;
  config.period_days = 5;
  config.excluded_nodes.push_back(*result.loudest);
  expect_bit_identical(outcome,
                       simulate_quarantine(result.extraction.faults, w, config));
}

// Acceptance: the full default campaign, streamed once, reproduces the
// entire batch Table II sweep bit-identically (`unp_policy --sweep` prints
// the engine's outcomes; resilience::quarantine_sweep is the oracle).
TEST(PolicyEngine, DefaultCampaignSweepBitIdenticalToBatch) {
  const sim::CampaignConfig campaign;
  PolicyEngine engine;
  const std::vector<int> periods{0, 5, 10, 15, 20, 25, 30};
  for (const int p : periods) {
    ThresholdQuarantinePolicy::Config tq;
    tq.period_days = p;
    engine.add_policy(std::make_unique<ThresholdQuarantinePolicy>(tq));
  }
  (void)sim::run_campaign_streaming(campaign, {&engine},
                                    sim::default_campaign_threads());
  const EngineResult result = engine.finish();

  const analysis::AutoRegime regimes = analysis::classify_regime_excluding_loudest(
      result.extraction.faults, campaign.window);
  resilience::QuarantineConfig base;
  if (regimes.excluded) base.excluded_nodes.push_back(*regimes.excluded);
  const auto batch = resilience::quarantine_sweep(
      result.extraction.faults, campaign.window, periods, base);
  ASSERT_EQ(result.outcomes.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_bit_identical(result.outcomes[i].quarantine, batch[i]);
  }
}

// Outcomes must not depend on how many threads produced the stream.
TEST(PolicyEngine, OutcomesInvariantAcrossStreamThreadCounts) {
  sim::CampaignConfig config;
  config.seed = 9;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 9, 21, 0, 0, 0});

  std::vector<resilience::QuarantineOutcome> outcomes;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    PolicyEngine engine;
    engine.add_policy(std::make_unique<ThresholdQuarantinePolicy>());
    (void)sim::run_campaign_streaming(config, {&engine}, threads);
    outcomes.push_back(engine.finish().outcomes[0].quarantine);
  }
  for (std::size_t i = 1; i < outcomes.size(); ++i) {
    expect_bit_identical(outcomes[i], outcomes[0]);
  }
}

}  // namespace
}  // namespace unp::policy
