// End-to-end reproduction test: runs the calibrated default campaign once
// and asserts every qualitative/quantitative shape the paper reports.
// Ranges are deliberately generous (the substrate is a stochastic
// simulator, not the authors' testbed); what must hold is who wins, by
// roughly what factor, and where the crossovers fall.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <span>

#include "analysis/bitstats.hpp"
#include "analysis/grouping.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "resilience/ecc_whatif.hpp"
#include "resilience/quarantine.hpp"
#include "sim/campaign.hpp"
#include "util/campaign_cache.hpp"

namespace unp {
namespace {

struct Pipeline {
  bench::CampaignData data = bench::simulate_data(sim::CampaignConfig{});
  const analysis::ExtractionResult& extraction = data.extraction;
  const analysis::ScanProfileSink& scan = data.scan;
  std::vector<analysis::SimultaneousGroup> groups =
      analysis::group_simultaneous(extraction.faults);
};

const Pipeline& pipeline() {
  static const Pipeline p;
  return p;
}

TEST(PaperHeadline, SectionIIIB) {
  const Pipeline& p = pipeline();
  const analysis::HeadlineStats stats = analysis::headline_stats(
      p.scan.total_monitored_hours(), p.scan.total_terabyte_hours(),
      p.scan.monitored_nodes(), p.scan.window(), p.extraction);

  EXPECT_EQ(stats.monitored_nodes, 923);              // paper: 923
  EXPECT_GT(stats.raw_logs, 20000000u);               // paper: >25M
  EXPECT_GT(stats.removed_fraction, 0.95);            // paper: >98%
  EXPECT_EQ(p.extraction.removed_nodes.size(), 1u);   // one replaced node
  EXPECT_GT(stats.independent_faults, 40000u);        // paper: >55,000
  EXPECT_LT(stats.independent_faults, 75000u);
  EXPECT_NEAR(stats.monitored_node_hours, 4.2e6, 0.5e6);   // paper: 4.2M
  EXPECT_NEAR(stats.terabyte_hours, 12135.0, 1500.0);      // paper: 12,135
  EXPECT_GT(stats.cluster_mtbe_minutes, 5.0);              // paper: ~10 min
  EXPECT_LT(stats.cluster_mtbe_minutes, 20.0);
}

TEST(PaperScanAccounting, Figs1And2) {
  const Pipeline& p = pipeline();
  const Grid2D& hours = p.scan.hours_grid();
  const Grid2D& tbh = p.scan.terabyte_hours_grid();

  // Login slots (SoC 0 of the first blades) never scan.
  for (std::size_t blade = 0; blade < 9; ++blade) {
    EXPECT_DOUBLE_EQ(hours.at(blade, 0), 0.0);
  }
  // The overheating column is starved relative to its neighbours.
  RunningStats normal, soc12;
  std::vector<double> hours_v, tbh_v;
  for (std::size_t b = 0; b < hours.rows(); ++b) {
    for (std::size_t s = 0; s < hours.cols(); ++s) {
      if (hours.at(b, s) <= 0.0) continue;
      (s == 12 ? soc12 : normal).add(hours.at(b, s));
      hours_v.push_back(hours.at(b, s));
      tbh_v.push_back(tbh.at(b, s));
    }
  }
  EXPECT_LT(soc12.mean(), 0.6 * normal.mean());
  // "Most nodes got about 5000 hours" / "~15 TB-h".
  EXPECT_NEAR(normal.mean(), 5000.0, 1200.0);
  EXPECT_NEAR(median_of(std::span<const double>(tbh_v)), 15.0, 4.0);
  // Fig 2 mirrors Fig 1.
  EXPECT_GT(pearson(hours_v, tbh_v).r, 0.95);
}

TEST(PaperSpatial, Fig3AndFig12) {
  const Pipeline& p = pipeline();
  const analysis::TopNodeSeries top = analysis::top_node_series(
      p.extraction.faults, p.scan.window());

  ASSERT_EQ(top.nodes.size(), 3u);
  // The degrading node dominates with tens of thousands of faults.
  EXPECT_EQ(top.nodes[0], (cluster::NodeId{2, 4}));
  EXPECT_GT(top.node_totals[0], 40000u);  // paper: >50,000
  // The weak-bit nodes carry thousands each.
  EXPECT_GT(top.node_totals[1], 800u);
  EXPECT_GT(top.node_totals[2], 400u);
  // Everything else combined is negligible (paper: <30; the multibit and
  // shower populations land there in our model, so allow a few hundred).
  EXPECT_LT(top.rest_total, 400u);
  // ">99.9% of errors occurring in less than 1% of the nodes" (ours: >99%).
  const double top_share =
      static_cast<double>(top.node_totals[0] + top.node_totals[1] +
                          top.node_totals[2]) /
      static_cast<double>(p.extraction.faults.size());
  EXPECT_GT(top_share, 0.99);

  // The weak-bit nodes flip one identical bit in 100% of their errors.
  for (std::size_t k = 1; k < 3; ++k) {
    const analysis::NodePatternProfile profile =
        analysis::node_pattern_profile(p.extraction.faults, top.nodes[k]);
    EXPECT_TRUE(profile.single_fixed_bit)
        << cluster::node_name(top.nodes[k]);
    EXPECT_EQ(profile.distinct_addresses, 1u);
  }
  // The degrading node: >11,000 addresses, ~30 patterns, not a single bit.
  const analysis::NodePatternProfile degrading =
      analysis::node_pattern_profile(p.extraction.faults, top.nodes[0]);
  EXPECT_GT(degrading.distinct_addresses, 8000u);
  EXPECT_LT(degrading.distinct_patterns, 60u);
  EXPECT_FALSE(degrading.single_fixed_bit);
}

TEST(PaperMultibit, TableI) {
  const Pipeline& p = pipeline();
  const auto patterns = analysis::multibit_patterns(p.extraction.faults);

  std::uint64_t total = 0, doubles = 0, wider = 0, max_occurrence = 0;
  int max_bits = 0;
  for (const auto& pat : patterns) {
    total += pat.occurrences;
    if (pat.bits == 2) doubles += pat.occurrences;
    if (pat.bits > 2) wider += pat.occurrences;
    max_bits = std::max(max_bits, pat.bits);
    max_occurrence = std::max(max_occurrence, pat.occurrences);
  }
  EXPECT_NEAR(static_cast<double>(total), 85.0, 30.0);    // paper: 85
  EXPECT_NEAR(static_cast<double>(doubles), 76.0, 30.0);  // paper: 76
  EXPECT_NEAR(static_cast<double>(wider), 9.0, 6.0);      // paper: 9
  EXPECT_EQ(max_bits, 9);                                 // paper: max 9 bits
  EXPECT_GT(max_occurrence, 10u);  // repeated patterns (paper: up to 36)

  const analysis::AdjacencyStats adj =
      analysis::adjacency_stats(p.extraction.faults);
  EXPECT_GT(adj.non_adjacent, adj.consecutive);  // majority non-adjacent
  EXPECT_NEAR(adj.mean_distance, 3.0, 1.0);      // paper: ~3
  EXPECT_GE(adj.max_distance, 5);                // paper: up to 11
  EXPECT_GT(adj.low_half_majority * 2, adj.multibit_faults);  // LSB-heavy
}

TEST(PaperDirection, NinetyPercentDischarge) {
  const analysis::DirectionStats dir =
      analysis::direction_stats(pipeline().extraction.faults);
  EXPECT_NEAR(dir.one_to_zero_fraction(), 0.90, 0.05);  // paper: ~90%
}

TEST(PaperSimultaneity, Fig4AndSectionIIIC) {
  const Pipeline& p = pipeline();
  const analysis::CoOccurrence co = analysis::count_co_occurrence(p.groups);

  EXPECT_GT(co.simultaneous_corruptions, 26000u);  // paper: >26,000
  // ">99.9% of those were multiple single-bit corruptions".
  const auto groups_total = co.multi_single_groups + co.double_plus_single +
                            co.triple_plus_single + co.double_plus_double;
  EXPECT_GT(static_cast<double>(co.multi_single_groups),
            0.99 * static_cast<double>(groups_total));
  EXPECT_NEAR(static_cast<double>(co.double_plus_single), 44.0, 25.0);
  EXPECT_LE(co.triple_plus_single, 6u);        // paper: 2
  EXPECT_LE(co.double_plus_double, 4u);        // paper: 1
  EXPECT_NEAR(static_cast<double>(co.max_bits_one_instant), 36.0, 6.0);

  // Fig 4: per-node multibit >> per-word multibit; per-node single-bit <
  // per-word single-bit.
  const analysis::MultibitViewpoints v = analysis::count_viewpoints(p.groups);
  std::uint64_t word_multi = 0, node_multi = 0;
  for (int bits = 2; bits <= analysis::MultibitViewpoints::kMaxBits; ++bits) {
    word_multi += v.per_word[bits];
    node_multi += v.per_node[bits];
  }
  EXPECT_GT(node_multi, 50 * word_multi);
  EXPECT_LT(v.per_node[1], v.per_word[1]);
}

TEST(PaperDiurnal, Figs5And6) {
  const Pipeline& p = pipeline();
  const analysis::HourOfDayProfile profile =
      analysis::hour_of_day_profile(p.extraction.faults);

  // Fig 6: multi-bit day/night ratio ~2.
  const double ratio = profile.day_night_ratio_multibit();
  EXPECT_GT(ratio, 1.4);
  EXPECT_LT(ratio, 2.8);

  // Fig 5: the all-errors profile is far flatter than the multi-bit one
  // (dominated by the time-of-day-blind heavy nodes).
  std::uint64_t day_all = 0, night_all = 0;
  for (int h = 0; h < 24; ++h) {
    (h >= 7 && h <= 18 ? day_all : night_all) += profile.total(h);
  }
  const double all_ratio =
      static_cast<double>(day_all) / static_cast<double>(night_all);
  EXPECT_GT(all_ratio, 0.7);
  EXPECT_LT(all_ratio, 1.4);
}

TEST(PaperTemperature, Figs7And8) {
  const Pipeline& p = pipeline();
  const analysis::TemperatureProfile profile =
      analysis::temperature_profile(p.extraction.faults);

  std::uint64_t total = 0, band_30_40 = 0, multibit_hot = 0, multibit = 0;
  for (int c = 0; c < analysis::kBitClasses; ++c) {
    const auto& h = profile.by_class[static_cast<std::size_t>(c)];
    for (std::size_t bin = 0; bin < h.bins(); ++bin) {
      total += h.count(bin);
      if (h.bin_lo(bin) >= 30.0 && h.bin_lo(bin) < 40.0) {
        band_30_40 += h.count(bin);
      }
      if (c >= 1) {
        multibit += h.count(bin);
        if (h.bin_lo(bin) >= 55.0) multibit_hot += h.count(bin);
      }
    }
  }
  ASSERT_GT(total, 0u);
  // "Most errors happen when the node has a temperature between 30 and 40".
  EXPECT_GT(static_cast<double>(band_30_40), 0.6 * static_cast<double>(total));
  // Fig 8: multi-bit errors only at nominal temperatures.
  EXPECT_EQ(multibit_hot, 0u);
  EXPECT_GT(multibit, 0u);
}

TEST(PaperMethodology, SectionIIIGCorrelation) {
  const Pipeline& p = pipeline();
  const PearsonResult corr = analysis::scan_error_correlation(
      p.scan.daily_terabyte_hours(),
      analysis::daily_errors(p.extraction.faults, p.scan.window()));
  // Paper: r = -0.17966 - a *low* (anti-)correlation; the essential claim
  // is that scanning volume does not drive the error count.
  EXPECT_LT(std::abs(corr.r), 0.35);
  EXPECT_GT(corr.n, 350u);
}

TEST(PaperRegime, SectionIIIIAndFig13) {
  const Pipeline& p = pipeline();
  const analysis::AutoRegime result = analysis::classify_regime_excluding_loudest(
      p.extraction.faults, p.scan.window());

  ASSERT_TRUE(result.excluded.has_value());
  EXPECT_EQ(*result.excluded, (cluster::NodeId{2, 4}));
  // Paper: 77 degraded days = 18.1%.
  EXPECT_NEAR(result.regime.degraded_fraction(), 0.181, 0.08);
  // Paper: MTBF 167 h normal vs 0.39 h degraded - a >100x collapse.
  EXPECT_GT(result.regime.normal_mtbf_hours, 60.0);
  EXPECT_LT(result.regime.degraded_mtbf_hours, 2.0);
  EXPECT_GT(result.regime.normal_mtbf_hours,
            50.0 * result.regime.degraded_mtbf_hours);
}

TEST(PaperQuarantine, TableII) {
  const Pipeline& p = pipeline();
  const CampaignWindow& window = p.scan.window();
  resilience::QuarantineConfig base;
  base.excluded_nodes.push_back({2, 4});
  const auto sweep = resilience::quarantine_sweep(
      p.extraction.faults, window, {0, 5, 10, 15, 20, 25, 30}, base);

  // Row shapes: errors collapse after the first step, MTBF rises steeply,
  // node-days stay within a few hundred, availability loss under ~0.2%.
  EXPECT_GT(sweep[0].counted_errors, 2000u);         // paper: 4779
  EXPECT_LT(sweep[0].system_mtbf_hours, 5.0);        // paper: 2.1 h
  EXPECT_LT(sweep[1].counted_errors, sweep[0].counted_errors / 8);
  EXPECT_GT(sweep.back().system_mtbf_hours, 15.0 * sweep[0].system_mtbf_hours);
  EXPECT_LT(sweep.back().counted_errors, 400u);      // paper: 65
  EXPECT_LT(sweep.back().availability_loss, 0.002);  // paper: <0.1%
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_LE(sweep[i].counted_errors, sweep[i - 1].counted_errors + 5);
  }
}

TEST(PaperSdc, SectionIIID) {
  const Pipeline& p = pipeline();
  const resilience::EccWhatIf whatif =
      resilience::ecc_what_if(p.extraction.faults);
  // "The other 9 memory errors corrupted more than 2 bits".
  EXPECT_NEAR(static_cast<double>(whatif.beyond_secded_guarantee), 9.0, 6.0);
  // SECDED corrects the single-bit mass and detects the doubles.
  EXPECT_GT(whatif.secded.total().correct, 40000u);
  EXPECT_GT(whatif.secded.total().detect_only, 30u);
  EXPECT_GT(whatif.secded.total().silent() + whatif.secded.total().detect_only,
            0u);

  // The seven >3-bit faults sit on otherwise error-free nodes.
  const auto reports = resilience::sdc_isolation_report(p.extraction.faults, 4);
  EXPECT_EQ(reports.size(), 7u);
  std::set<int> nodes;
  std::size_t exclusive = 0;
  for (const auto& r : reports) {
    // The defining property: no *ordinary* fault ever hit these nodes.
    EXPECT_EQ(r.same_node_small_faults, 0u)
        << cluster::node_name(r.fault.node);
    if (r.same_node_other_faults == 0) ++exclusive;
    nodes.insert(cluster::node_index(r.fault.node));
  }
  EXPECT_EQ(nodes.size(), 5u);   // paper: 5 different nodes
  EXPECT_EQ(exclusive, 4u);      // paper: 4 on nodes with only that one error
}

TEST(PaperNovemberBurst, Fig11) {
  const Pipeline& p = pipeline();
  const CampaignWindow& window = p.scan.window();
  int november = 0, other_months_max = 0;
  std::map<int, int> by_month;
  for (const auto& f : p.extraction.faults) {
    if (!f.is_multibit()) continue;
    const CivilDateTime c = to_civil_utc(f.first_seen);
    ++by_month[c.year * 100 + c.month];
  }
  for (const auto& [ym, count] : by_month) {
    if (ym == 201511) {
      november = count;
    } else {
      other_months_max = std::max(other_months_max, count);
    }
  }
  (void)window;
  // November's multi-bit burst rides the degrading node's peak.
  EXPECT_GT(november, 0);
  EXPECT_GE(november + 2, other_months_max);
}

}  // namespace
}  // namespace unp
