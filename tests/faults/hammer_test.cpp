// HammerFaultGenerator: pattern algebra, physical victim adjacency,
// determinism, the pinned stream-derivation contract, and the detector's
// clustering behavior.
#include "faults/hammer/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "dram/mapping/mapping.hpp"
#include "faults/hammer/detect.hpp"
#include "faults/suite.hpp"

namespace unp::faults::hammer {
namespace {

sched::ScanPlan make_plan(TimePoint start, TimePoint end) {
  sched::ScanPlan plan;
  for (TimePoint day = start; day < end; day += kSecondsPerDay) {
    sched::ScanSession s;
    s.window = {day, std::min(day + 12 * kSecondsPerHour, end)};
    s.pattern = scanner::PatternKind::kAlternating;
    s.allocated_bytes = cluster::kScannableBytes;
    s.pass_period_s = 75;
    plan.sessions.push_back(s);
  }
  return plan;
}

std::vector<NodeContext> make_fleet(const sched::ScanPlan& plan,
                                    int nodes = 60) {
  std::vector<NodeContext> fleet;
  for (int i = 0; i < nodes; ++i) {
    NodeContext ctx;
    ctx.node = cluster::node_from_index(i * 8 + 1);
    ctx.plan = &plan;
    ctx.scanned_hours = plan.scanned_hours();
    fleet.push_back(ctx);
  }
  return fleet;
}

const CampaignWindow kWindow;

/// Config tuned so a small fleet produces a solid event population.
HammerFaultGenerator::Config loud_config() {
  HammerFaultGenerator::Config config;
  config.hammered_node_fraction = 0.5;
  config.episodes_per_node_mean = 4.0;
  return config;
}

TEST(Pattern, BuilderLayoutsAreWellFormed) {
  RngStream rng(3);
  const PatternBuilder builder;
  std::set<PatternKind> kinds;
  for (int i = 0; i < 200; ++i) {
    const HammerPattern p = builder.build(rng);
    kinds.insert(p.kind);
    ASSERT_EQ(p.aggressor_offsets.size(), p.frequencies.size());
    ASSERT_FALSE(p.aggressor_offsets.empty());
    // Offsets strictly increasing, every other row.
    for (std::size_t k = 0; k < p.aggressor_offsets.size(); ++k) {
      EXPECT_EQ(p.aggressor_offsets[k], static_cast<std::int64_t>(2 * k));
    }
    // Frequencies normalized to mean 1.
    double total = 0.0;
    for (const double f : p.frequencies) {
      EXPECT_GT(f, 0.0);
      total += f;
    }
    EXPECT_NEAR(total, static_cast<double>(p.frequencies.size()), 1e-9);
    switch (p.kind) {
      case PatternKind::kSingleSided:
        EXPECT_EQ(p.aggressor_offsets.size(), 1u);
        break;
      case PatternKind::kDoubleSided:
        EXPECT_EQ(p.aggressor_offsets.size(), 2u);
        break;
      case PatternKind::kNSided:
        EXPECT_GE(p.aggressor_offsets.size(), 3u);
        break;
    }
  }
  EXPECT_EQ(kinds.size(), 3u);  // all layouts exercised
}

TEST(Pattern, VictimPressuresSandwichAndFlankCorrectly) {
  HammerPattern p;
  p.kind = PatternKind::kDoubleSided;
  p.aggressor_offsets = {0, 2};
  p.frequencies = {1.0, 1.0};
  const auto victims = victim_pressures(p, 0.1);
  // Victims: -2 (d2), -1, +1 (sandwiched), +3, +4 (d2).
  ASSERT_EQ(victims.size(), 5u);
  std::map<std::int64_t, double> by_offset;
  for (const auto& v : victims) by_offset[v.row_offset] = v.pressure;
  EXPECT_NEAR(by_offset.at(-2), 0.1, 1e-12);  // distance 2 from agg 0
  EXPECT_NEAR(by_offset.at(-1), 1.0, 1e-12);  // flank of agg 0
  EXPECT_NEAR(by_offset.at(+1), 2.0, 1e-12);  // sandwiched by both
  EXPECT_NEAR(by_offset.at(+3), 1.0, 1e-12);  // flank of agg 2
  EXPECT_NEAR(by_offset.at(+4), 0.1, 1e-12);  // distance 2 from agg 2
  // Aggressor rows are never victims.
  EXPECT_FALSE(by_offset.contains(0));
  EXPECT_FALSE(by_offset.contains(2));
}

TEST(Hammer, StreamDerivationIsPinned) {
  // The derivation recipe is part of the campaign-output contract: these
  // values changing means every hammer campaign silently changes.  Bump
  // kHammerDerivationVersion if any of this is intentional.
  EXPECT_EQ(kHammerDerivationVersion, 1u);
  EXPECT_EQ(kHammerWorkloadStreamId, 0x4A33u);
  EXPECT_EQ(kHammerThresholdStreamId, 0x7B17u);
  // First draws of the derived streams, pinned against rng refactors.
  RngStream workload(42, kHammerWorkloadStreamId, 17);
  RngStream threshold(42, kHammerThresholdStreamId,
                      mix64(17, (std::uint64_t{3} << 48) | 1234));
  EXPECT_EQ(workload.next_u64(), RngStream(mix64(mix64(42, 0x4A33), 17))
                                     .next_u64());
  EXPECT_EQ(threshold.next_u64(),
            RngStream(mix64(mix64(42, 0x7B17),
                            mix64(17, (std::uint64_t{3} << 48) | 1234)))
                .next_u64());
}

TEST(Hammer, RowThresholdIsAFixedFunctionOfCellCoordinates) {
  const HammerFaultGenerator gen;
  const double t1 = gen.row_threshold(42, 17, 3, 1234);
  EXPECT_EQ(t1, gen.row_threshold(42, 17, 3, 1234));  // repeatable
  EXPECT_NE(t1, gen.row_threshold(43, 17, 3, 1234));  // keyed by seed
  EXPECT_NE(t1, gen.row_threshold(42, 18, 3, 1234));  // ... node
  EXPECT_NE(t1, gen.row_threshold(42, 17, 2, 1234));  // ... bank
  EXPECT_NE(t1, gen.row_threshold(42, 17, 3, 1235));  // ... row
  EXPECT_GT(t1, 0.0);
}

TEST(Hammer, GenerateIsDeterministicAndWellFormed) {
  const sched::ScanPlan plan = make_plan(kWindow.start, kWindow.end);
  const auto fleet = make_fleet(plan);
  const HammerFaultGenerator gen(loud_config());
  std::vector<FaultEvent> a, b;
  gen.generate(fleet, 7, a);
  gen.generate(fleet, 7, b);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time);
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].words, b[i].words);
  }
  const std::uint64_t scannable_words = cluster::kScannableBytes / sizeof(Word);
  for (const auto& ev : a) {
    EXPECT_EQ(ev.mechanism, Mechanism::kRowhammer);
    EXPECT_EQ(ev.persistence, Persistence::kTransient);
    ASSERT_EQ(ev.words.size(), 1u);
    EXPECT_LT(ev.words[0].word_index, scannable_words);
    EXPECT_EQ(std::popcount(ev.words[0].corruption.affected_mask), 1);
    // Every event lands inside a scan session.
    bool in_session = false;
    for (const auto& s : plan.sessions) {
      in_session |= ev.time >= s.window.start && ev.time < s.window.end;
    }
    EXPECT_TRUE(in_session);
  }
}

TEST(Hammer, FlipsClusterOnPhysicallyAdjacentRows) {
  const sched::ScanPlan plan = make_plan(kWindow.start, kWindow.end);
  const auto fleet = make_fleet(plan);
  const HammerFaultGenerator gen(loud_config());
  std::vector<FaultEvent> events;
  gen.generate(fleet, 11, events);
  ASSERT_FALSE(events.empty());

  const dram::mapping::DramMapping mapping{
      dram::mapping::make_mapping_config(gen.config().mapping)};
  // Group flips per (node, bank, row): every tripped row carries a burst
  // of distinct words, and each node's rows concentrate in few banks.
  std::map<std::uint64_t, std::set<std::uint64_t>> row_words;
  for (const auto& ev : events) {
    const auto c = mapping.decode(ev.words[0].word_index);
    const std::uint64_t node_index =
        static_cast<std::uint64_t>(cluster::node_index(ev.node));
    row_words[(node_index << 40) | (std::uint64_t{c.bank} << 32) | c.row]
        .insert(ev.words[0].word_index);
  }
  int burst_rows = 0;
  for (const auto& [key, words] : row_words) {
    if (static_cast<int>(words.size()) >= gen.config().flip_words_min / 2) {
      ++burst_rows;
    }
  }
  // The dominant share of tripped rows shows a wide burst of distinct
  // words - the clustering signature the detector keys on.
  EXPECT_GT(burst_rows, static_cast<int>(row_words.size()) / 2);
}

TEST(Hammer, DetectorFlagsBurstRowsAndAbsorbsFollowups) {
  const dram::mapping::DramMapping mapping{
      dram::mapping::make_mapping_config("lpddr3:mb")};
  DetectorConfig config;
  config.min_distinct_words = 3;
  config.window_seconds = 3600;
  HammerRowDetector detector(mapping, config);

  const dram::mapping::DramCoordinate base{2, 100, 0};
  // Two distinct words: below threshold.
  EXPECT_FALSE(detector.observe(1000, mapping.encode({2, 100, 5})));
  EXPECT_FALSE(detector.observe(1100, mapping.encode({2, 100, 9})));
  // Same word again refreshes, still 2 distinct.
  EXPECT_FALSE(detector.observe(1200, mapping.encode({2, 100, 9})));
  // Different row: no interference.
  EXPECT_FALSE(detector.observe(1300, mapping.encode({2, 101, 5})));
  // Third distinct word in-window: trigger.
  EXPECT_TRUE(detector.observe(1400, mapping.encode({2, 100, 77})));
  ASSERT_EQ(detector.detections().size(), 1u);
  EXPECT_EQ(detector.detections()[0].bank, base.bank);
  EXPECT_EQ(detector.detections()[0].row, base.row);
  EXPECT_EQ(detector.detections()[0].trigger_time, 1400);
  // Post-trigger faults on the row are absorbable.
  EXPECT_FALSE(detector.observe(1500, mapping.encode({2, 100, 78})));
  EXPECT_EQ(detector.absorbable_faults(), 1u);
  EXPECT_EQ(detector.detections()[0].distinct_words, 4);

  // A slow drip outside the window never triggers.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(detector.observe(
        10000 + i * 7200,
        mapping.encode({5, 700, static_cast<std::uint64_t>(10 + i)})));
  }
  EXPECT_EQ(detector.detections().size(), 1u);
}

/// What a HammerRowDetector must report after a stream, derived naively:
/// every observation re-scans all earlier observations of its row.
struct ReferenceCensus {
  std::vector<DetectedRow> detections;
  std::uint64_t absorbable = 0;
  std::uint64_t observed = 0;
};

ReferenceCensus reference_census(
    const dram::mapping::DramMapping& mapping, const DetectorConfig& config,
    const std::vector<std::pair<TimePoint, std::uint64_t>>& stream) {
  ReferenceCensus ref;
  std::map<std::uint64_t, std::size_t> triggered;  // row key -> detection
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto [time, word] = stream[i];
    ++ref.observed;
    const dram::mapping::DramCoordinate c = mapping.decode(word);
    std::set<std::uint64_t> words_ever;
    std::set<std::uint64_t> words_in_window;
    for (std::size_t j = 0; j <= i; ++j) {
      const dram::mapping::DramCoordinate cj = mapping.decode(stream[j].second);
      if (cj.bank != c.bank || cj.row != c.row) continue;
      words_ever.insert(stream[j].second);
      // A word is in the window while its latest sighting is no older than
      // window_seconds (inclusive at exactly window_seconds).
      if (stream[j].first >= time - config.window_seconds) {
        words_in_window.insert(stream[j].second);
      }
    }
    const std::uint64_t key = (std::uint64_t{c.bank} << 48) | c.row;
    const auto hit = triggered.find(key);
    if (hit != triggered.end()) {
      DetectedRow& d = ref.detections[hit->second];
      if (time > d.trigger_time) ++ref.absorbable;
      d.distinct_words = static_cast<int>(words_ever.size());
    } else if (static_cast<int>(words_in_window.size()) >=
               config.min_distinct_words) {
      triggered.emplace(key, ref.detections.size());
      ref.detections.push_back({c.bank, c.row, time,
                                static_cast<int>(words_ever.size())});
    }
  }
  return ref;
}

/// Seeded stream over `rows` x 2 banks x 6 columns, so words repeat
/// (refreshing their timestamps) and rows keep faulting after their
/// trigger.  Half the observations revisit one of the last four rows, which
/// clusters faults in time even when `rows` is large; gaps are zero, exactly
/// one window, or uniform in [1, max_gap].
std::vector<std::pair<TimePoint, std::uint64_t>> seeded_stream(
    const dram::mapping::DramMapping& mapping, std::uint64_t seed,
    std::size_t length, std::uint64_t rows, std::int64_t window,
    std::int64_t max_gap) {
  RngStream rng(seed);
  std::vector<std::pair<TimePoint, std::uint64_t>> stream;
  std::vector<dram::mapping::DramCoordinate> recent_rows;
  TimePoint time = 1'000'000;
  for (std::size_t i = 0; i < length; ++i) {
    const std::uint64_t step = rng.uniform_u64(16);
    if (step == 0) {
      time += window;
    } else if (step >= 4) {
      time += rng.uniform_int(1, max_gap);
    }  // else simultaneous with the previous observation
    dram::mapping::DramCoordinate c;
    if (!recent_rows.empty() && rng.bernoulli(0.5)) {
      c = recent_rows[rng.uniform_u64(recent_rows.size())];
    } else {
      c.bank = static_cast<std::uint32_t>(rng.uniform_u64(2));
      c.row = rng.uniform_u64(rows);
      recent_rows.push_back(c);
      if (recent_rows.size() > 4) recent_rows.erase(recent_rows.begin());
    }
    c.column = rng.uniform_u64(6);
    stream.emplace_back(time, mapping.encode(c));
  }
  return stream;
}

void expect_matches_reference(
    const dram::mapping::DramMapping& mapping, const DetectorConfig& config,
    const std::vector<std::pair<TimePoint, std::uint64_t>>& stream) {
  HammerRowDetector detector(mapping, config);
  std::size_t triggers = 0;
  for (const auto& [time, word] : stream) {
    if (detector.observe(time, word)) {
      ++triggers;
      EXPECT_EQ(detector.detections().size(), triggers);
      EXPECT_EQ(detector.detections().back().trigger_time, time);
    }
  }
  const ReferenceCensus ref = reference_census(mapping, config, stream);
  ASSERT_EQ(detector.detections().size(), ref.detections.size());
  for (std::size_t i = 0; i < ref.detections.size(); ++i) {
    SCOPED_TRACE(i);
    const DetectedRow& got = detector.detections()[i];
    EXPECT_EQ(got.bank, ref.detections[i].bank);
    EXPECT_EQ(got.row, ref.detections[i].row);
    EXPECT_EQ(got.trigger_time, ref.detections[i].trigger_time);
    EXPECT_EQ(got.distinct_words, ref.detections[i].distinct_words);
  }
  EXPECT_EQ(detector.absorbable_faults(), ref.absorbable);
  EXPECT_EQ(detector.observed_faults(), ref.observed);
  EXPECT_EQ(detector.observed_faults(), stream.size());
}

TEST(HammerDetector, MatchesNaiveReferenceOnSeededStreams) {
  for (const char* geometry : {"lpddr3:mb", "ddr4:2ch"}) {
    const dram::mapping::DramMapping mapping{
        dram::mapping::make_mapping_config(geometry)};
    for (int min_words = 1; min_words <= HammerRowDetector::kMaxDistinctWords;
         ++min_words) {
      for (const std::int64_t window :
           {std::int64_t{600}, std::int64_t{6 * 3600}}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
          SCOPED_TRACE(::testing::Message()
                       << geometry << " min " << min_words << " window "
                       << window << " seed " << seed);
          const DetectorConfig config{min_words, window};
          expect_matches_reference(
              mapping, config,
              seeded_stream(mapping, seed, 400, 8, window, window / 2));
        }
      }
    }
  }
}

TEST(HammerDetector, MatchesNaiveReferenceWithManyRowsOnOneNode) {
  // Thousands of rows through one detector: the row and word tables grow
  // many times over while earlier rows keep their state.
  const dram::mapping::DramMapping mapping{
      dram::mapping::make_mapping_config("lpddr3:mb")};
  const DetectorConfig config{3, 3600};
  expect_matches_reference(mapping, config,
                           seeded_stream(mapping, 99, 6000, 4000, 3600, 60));
}

TEST(HammerDetector, WindowIsInclusiveAndRepeatsRefreshTheirWords) {
  const dram::mapping::DramMapping mapping{
      dram::mapping::make_mapping_config("lpddr3:mb")};
  const DetectorConfig config{3, 3600};
  const auto word = [&](std::uint64_t column) {
    return mapping.encode({1, 10, column});
  };

  // A word exactly window_seconds old still counts.
  HammerRowDetector edge(mapping, config);
  EXPECT_FALSE(edge.observe(0, word(1)));
  EXPECT_FALSE(edge.observe(0, word(2)));
  EXPECT_TRUE(edge.observe(3600, word(3)));

  // One second older and it has expired; a repeat of word 1 at 3000
  // refreshed it, so only word 2 drops out.
  HammerRowDetector expired(mapping, config);
  EXPECT_FALSE(expired.observe(0, word(1)));
  EXPECT_FALSE(expired.observe(0, word(2)));
  EXPECT_FALSE(expired.observe(3000, word(1)));
  EXPECT_FALSE(expired.observe(3601, word(3)));
  EXPECT_TRUE(expired.observe(3602, word(4)));
  ASSERT_EQ(expired.detections().size(), 1u);
  EXPECT_EQ(expired.detections()[0].trigger_time, 3602);
  EXPECT_EQ(expired.detections()[0].distinct_words, 4);
}

TEST(HammerDetector, RejectsMinDistinctWordsOutsideTheWindowCap) {
  const dram::mapping::DramMapping mapping{
      dram::mapping::make_mapping_config("lpddr3:mb")};
  for (const int bad : {0, -1, HammerRowDetector::kMaxDistinctWords + 1}) {
    EXPECT_THROW(HammerRowDetector(mapping, DetectorConfig{bad, 3600}),
                 ContractViolation);
  }
  EXPECT_NO_THROW(HammerRowDetector(
      mapping, DetectorConfig{HammerRowDetector::kMaxDistinctWords, 3600}));
}

TEST(Hammer, SuiteDisabledByDefaultAndAdditiveWhenEnabled) {
  const sched::ScanPlan plan = make_plan(kWindow.start, kWindow.end);
  std::vector<NodeContext> fleet = make_fleet(plan);

  FaultModelSuite::Config base_config;
  EXPECT_FALSE(base_config.enable_hammer);
  const auto base = FaultModelSuite(base_config).generate(fleet, 42);
  for (const auto& ev : base) {
    EXPECT_NE(ev.mechanism, Mechanism::kRowhammer);
  }

  FaultModelSuite::Config hammer_config = base_config;
  hammer_config.enable_hammer = true;
  hammer_config.hammer = loud_config();
  const auto with = FaultModelSuite(hammer_config).generate(fleet, 42);
  EXPECT_GT(with.size(), base.size());
  // The time-driven population is unchanged: the hammer events are purely
  // additive and the merged stream stays (time, node)-sorted.
  std::vector<FaultEvent> non_hammer;
  for (const auto& ev : with) {
    if (ev.mechanism != Mechanism::kRowhammer) non_hammer.push_back(ev);
  }
  ASSERT_EQ(non_hammer.size(), base.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(non_hammer[i].time, base[i].time);
    EXPECT_EQ(non_hammer[i].node, base[i].node);
    EXPECT_EQ(non_hammer[i].words, base[i].words);
  }
  for (std::size_t i = 1; i < with.size(); ++i) {
    EXPECT_LE(with[i - 1].time, with[i].time);
  }
}

}  // namespace
}  // namespace unp::faults::hammer
