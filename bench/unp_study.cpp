// Unified study driver: the ablations, extensions and robustness checks of
// Sections III and VI, one study per name.
//
//   unp_study NAME...   run the named studies, in the order given
//   unp_study --all     run every study, in --list order
//   unp_study --list    print the study names, one per line
//
// A study's stdout does not depend on which other studies run in the same
// process: --all is the concatenation of every single-study run in --list
// order.  Every study streams its campaign; none holds a record archive.
// The fault-only studies read the seed-42 campaign's extraction and scan
// profile through bench::default_data(), one cache replay built once per
// process and shared, so --all replays the cache once for them;
// ablation_dedup replays it once more, into one extractor per merge window.
// The counterfactual studies (scrambling, diurnal, altitude, component
// swap, overheat stress, seed sensitivity) simulate each variant on every
// hardware thread through bench::simulate_data, uncached.
//
// Exit status: 0 when every selected study returns 0 (ext_component_swap
// returns 1 when the errors do not follow the component), 1 otherwise,
// 2 on bad usage.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "analysis/bitstats.hpp"
#include "analysis/diagnosis.hpp"
#include "analysis/extraction.hpp"
#include "analysis/metrics.hpp"
#include "analysis/regime.hpp"
#include "analysis/streaming_extractor.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "dram/retention.hpp"
#include "ecc/registry.hpp"
#include "env/solar.hpp"
#include "env/temperature.hpp"
#include "faults/weak_bit.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/ecc_whatif.hpp"
#include "resilience/placement.hpp"
#include "resilience/prediction.hpp"
#include "resilience/scrubbing.hpp"
#include "sim/campaign.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"

namespace {

using namespace unp;

// Ablation: the extraction merge window (DESIGN.md #3, Section II-C).
//
// The paper's accounting collapses consecutive re-logs of the same fault
// into one error.  The merge window controls what "consecutive" means:
// too short and a stuck cell inflates into thousands of phantom faults;
// too long and distinct weak-bit leak episodes fuse, hiding the recurrence
// the whole degraded-regime analysis is built on.
int ablation_dedup() {
  bench::print_header(
      "Ablation - extraction merge window",
      "fault counts must be stable around the chosen window (300 s); "
      "degenerate windows multiply or fuse the weak-bit episodes");

  // One replay of the default campaign feeds an extractor per window; the
  // filter candidate's body is shared among them, never copied.
  constexpr std::int64_t kWindows[] = {0, 60, 150, 300, 900, 3600, 86400};
  std::vector<analysis::StreamingExtractor> extractors;
  std::vector<telemetry::RecordSink*> sinks;
  extractors.reserve(std::size(kWindows));  // sinks point into it
  for (const std::int64_t window_s : kWindows) {
    analysis::ExtractionConfig config;
    config.merge_window_s = window_s;
    sinks.push_back(&extractors.emplace_back(config));
  }
  bench::stream_campaign(sim::CampaignConfig{}, analysis::ExtractionConfig{},
                         sinks, sim::default_campaign_threads());

  TextTable table({"Merge window", "Independent faults", "Raw logs kept"});
  for (std::size_t i = 0; i < extractors.size(); ++i) {
    const analysis::ExtractionResult result = extractors[i].finish();
    std::uint64_t raw = 0;
    for (const auto& f : result.faults) raw += f.raw_logs;
    table.add_row({std::to_string(kWindows[i]) + " s",
                   format_count(result.faults.size()), format_count(raw)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(the library default is 300 s; the campaign's scan pass is "
              "~75 s, so stuck-cell re-logs fuse while leak episodes minutes "
              "apart stay separate)\n");
  return 0;
}

// Ablation: diurnal neutron modulation on vs off (DESIGN.md #2).
//
// The Fig 6 bell (day ~2x night, noon peak) is driven entirely by the
// solar-elevation term of the flux model; with the amplitude set to zero
// the multi-bit hour-of-day profile flattens, which is exactly the paper's
// null hypothesis for the single-bit population (Fig 5).
analysis::HourOfDayProfile run_with_amplitude(double amplitude) {
  sim::CampaignConfig config;
  env::NeutronFluxModel::Config flux;
  flux.solar_amplitude = amplitude;
  config.faults.neutron.flux = env::NeutronFluxModel(flux);
  return analysis::hour_of_day_profile(
      bench::simulate_data(config).extraction.faults);
}

int ablation_diurnal() {
  bench::print_header(
      "Ablation - diurnal neutron modulation",
      "solar amplitude 3.0 reproduces Fig 6's day/night ~2; amplitude 0 "
      "flattens the multi-bit profile");

  TextTable table({"Solar amplitude", "Multi-bit day (07-18h)",
                   "Multi-bit night", "Day/night ratio"});
  for (double amplitude : {3.0, 1.0, 0.0}) {
    const analysis::HourOfDayProfile profile = run_with_amplitude(amplitude);
    std::uint64_t day = 0, night = 0;
    for (int h = 0; h < 24; ++h) {
      (h >= 7 && h <= 18 ? day : night) += profile.multibit(h);
    }
    table.add_row({format_fixed(amplitude, 1), format_count(day),
                   format_count(night),
                   format_fixed(profile.day_night_ratio_multibit(), 2)});
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

// Ablation: SECDED vs chipkill vs no protection (DESIGN.md #5).
//
// Replays every observed corruption through both decoders and reports what
// each protection level would have turned the campaign into - the paper's
// "what would a classical system have seen" lens, plus the related-work
// claim that chipkill beats SECDED because DRAM faults cluster in symbols.
int ablation_ecc() {
  bench::print_header(
      "Ablation - protection scheme outcomes",
      "no-ECC: everything reaches software; SECDED corrects singles, "
      "detects doubles, can miss wider faults; chipkill corrects "
      "single-symbol clusters");

  const bench::CampaignData& data = bench::default_data();
  const resilience::EccWhatIf whatif =
      resilience::ecc_what_if(data.extraction.faults);
  const auto total = static_cast<double>(data.extraction.faults.size());
  const ecc::VerdictCounts secded = whatif.secded.total();
  const ecc::VerdictCounts chipkill = whatif.chipkill.total();

  TextTable table({"Scheme", "Reaches software", "Corrected", "Detected (crash)",
                   "Silent corruption"});
  table.add_row({"none (the prototype)", format_count(data.extraction.faults.size()),
                 "0", "0", format_count(data.extraction.faults.size())});
  auto add = [&](const char* name, const ecc::VerdictCounts& c) {
    table.add_row({name, format_count(c.silent()), format_count(c.correct),
                   format_count(c.detect_only), format_count(c.silent())});
  };
  add("parity (detect-only)", whatif.parity);
  add("SECDED(72,64)", secded);
  add("chipkill SSC-DSD", chipkill);
  std::printf("%s\n", table.render().c_str());

  std::printf("SECDED silent fraction   : %.4f%%\n",
              100.0 * static_cast<double>(secded.silent()) / total);
  std::printf("chipkill silent fraction : %.4f%%\n",
              100.0 * static_cast<double>(chipkill.silent()) / total);
  std::printf("reliability ratio        : %.1fx fewer silent+crash events "
              "under chipkill (related work: ~42x overall)\n",
              chipkill.silent() + chipkill.detect_only > 0
                  ? static_cast<double>(secded.silent() + secded.detect_only) /
                        static_cast<double>(chipkill.silent() +
                                            chipkill.detect_only)
                  : 0.0);
  return 0;
}

// Ablation: data-line scrambling on vs off (DESIGN.md #1).
//
// The paper attributes non-adjacent multi-bit flips to the device layout
// "spreading the adjacent bits of the word".  With the scrambler replaced
// by the identity mapping, physically contiguous upsets hit logically
// consecutive bits and Table I's non-adjacency signature disappears -
// which would make codes optimized for adjacent-bit errors look much
// better than they really are.
analysis::AdjacencyStats run_with_scrambler(const dram::BitScrambler& s) {
  sim::CampaignConfig config;
  config.faults.neutron.scrambler = s;
  config.faults.isolated_sdc.scrambler = s;
  return analysis::adjacency_stats(bench::simulate_data(config).extraction.faults);
}

int ablation_scrambling() {
  bench::print_header(
      "Ablation - bit scrambling on/off",
      "with layout scrambling the majority of multi-bit faults are "
      "non-adjacent (mean distance ~3); identity layout flips the ratio");

  TextTable table({"Layout", "Multi-bit", "Consecutive", "Non-adjacent",
                   "Mean distance", "Max distance"});
  auto add = [&](const char* name, const analysis::AdjacencyStats& a) {
    table.add_row({name, format_count(a.multibit_faults),
                   format_count(a.consecutive), format_count(a.non_adjacent),
                   format_fixed(a.mean_distance, 2),
                   std::to_string(a.max_distance)});
  };
  add("stride-3 scrambler (device default)",
      run_with_scrambler(dram::BitScrambler::stride3()));
  add("identity (no scrambling)",
      run_with_scrambler(dram::BitScrambler::identity()));
  add("random permutation (seed 99)",
      run_with_scrambler(dram::BitScrambler::from_seed(99)));
  std::printf("%s\n", table.render().c_str());
  return 0;
}

// SECDED(72,64) outcome characterization by error weight.
//
// Grounds the paper's SDC arithmetic: SECDED corrects weight-1, detects
// weight-2, and for wider errors splits between detection, miscorrection
// and (for even weights whose syndrome cancels) complete silence.  Weights
// 1 and 2 are verified exhaustively; higher weights are Monte Carlo.  The
// silent fractions here are what turns Table I's ">2 corrupted bits" rows
// into the paper's silent-data-corruption exposure.
int ecc_characterization() {
  bench::print_header(
      "SECDED(72,64) outcome characterization by error weight",
      "w=1 always corrected; w=2 always detected; w>2 splits into detected / "
      "miscorrected / undetected - the SDC exposure");

  const auto code = ecc::make_code("secded72");
  RngStream rng(4242);

  TextTable table({"Flipped data bits", "Samples", "Corrected OK",
                   "Detected", "Miscorrected", "Silent (clean decode)"});

  std::vector<int> bits;
  for (int weight = 1; weight <= 8; ++weight) {
    ecc::VerdictCounts counts;

    // The code is linear, so a verdict depends only on the flipped data-bit
    // positions, never on the data word they land on.
    auto classify = [&](std::uint64_t mask) {
      bits.clear();
      for (int b = 0; b < 64; ++b) {
        if ((mask >> b) & 1u) bits.push_back(b);
      }
      counts.add(code->evaluate(bits));
    };

    if (weight <= 2) {
      // Exhaustive over bit positions.
      if (weight == 1) {
        for (int i = 0; i < 64; ++i) classify(1ULL << i);
      } else {
        for (int i = 0; i < 64; ++i) {
          for (int j = i + 1; j < 64; ++j) classify((1ULL << i) | (1ULL << j));
        }
      }
    } else {
      constexpr std::uint64_t kSamples = 200000;
      for (std::uint64_t s = 0; s < kSamples; ++s) {
        // Draw (and ignore) a data word before each mask: the verdict does
        // not depend on it, but the draw order fixes the sampled masks.
        static_cast<void>(rng.next_u64());
        std::uint64_t mask = 0;
        while (std::popcount(mask) < weight) {
          mask |= 1ULL << rng.uniform_u64(64);
        }
        classify(mask);
      }
    }
    const std::uint64_t samples = counts.total();

    auto pct = [&](std::uint64_t v) {
      return format_fixed(100.0 * static_cast<double>(v) /
                              static_cast<double>(samples),
                          3) + "%";
    };
    table.add_row({std::to_string(weight), format_count(samples),
                   pct(counts.correct), pct(counts.detect_only),
                   pct(counts.miscorrect), pct(counts.sdc)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "(miscorrected = the decoder 'fixed' a healthy bit; silent = the\n"
      " corrupted word decoded as valid.  Both reach the application as\n"
      " wrong data - the per-weight SDC exposure behind Section III-D)\n");
  return 0;
}

// Extension: the same cluster at altitude.
//
// Section II-A notes the machine sits ~100 m above sea level; accelerated
// studies (the paper's ref [13]) put DRAM under beam because natural flux
// at sea level is tiny.  The flux model scales exponentially with altitude,
// so a Leadville-style 3,000 m data centre should multiply the *neutron*
// mechanisms (multi-bit word errors, showers) while leaving weak bits and
// the degrading component untouched - a clean falsifiable split.
int ext_altitude() {
  bench::print_header(
      "Extension - campaign vs site altitude",
      "neutron-driven multi-bit counts scale ~exp(h/1900m); weak bits and "
      "the degrading component do not care");

  TextTable table({"Altitude (m)", "Flux factor", "Multi-bit faults",
                   "All faults", "Multi-bit scaling"});
  double baseline_multibit = 0.0;
  for (const double altitude : {100.0, 1500.0, 3000.0}) {
    sim::CampaignConfig config;
    env::NeutronFluxModel::Config flux;
    flux.site.altitude_m = altitude;
    config.faults.neutron.flux = env::NeutronFluxModel(flux);
    // The strike rate scales with the flux: keep the per-flux-unit rate
    // fixed by scaling the fleet event budget with the altitude factor.
    const double factor = config.faults.neutron.flux.altitude_factor() /
                          env::NeutronFluxModel().altitude_factor();
    config.faults.neutron.multibit_events_fleet *= factor;
    config.faults.neutron.single_shower_events_fleet *= factor;

    const analysis::ExtractionResult extraction =
        bench::simulate_data(config).extraction;
    const analysis::AdjacencyStats adj =
        analysis::adjacency_stats(extraction.faults);

    if (baseline_multibit == 0.0) {
      baseline_multibit = static_cast<double>(adj.multibit_faults);
    }
    table.add_row(
        {format_fixed(altitude, 0),
         format_fixed(config.faults.neutron.flux.altitude_factor(), 2),
         format_count(adj.multibit_faults),
         format_count(extraction.faults.size()),
         format_fixed(static_cast<double>(adj.multibit_faults) /
                          baseline_multibit,
                      2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(total fault counts barely move - the loud mechanisms are "
              "component defects, not cosmic rays; only the multi-bit "
              "population rides the atmosphere)\n");
  return 0;
}

// Extension: trace-driven checkpoint/restart over the campaign's faults.
//
// Section III-I argues a job should shorten its checkpoint interval during
// degraded periods.  The first-order Young/Daly model says so analytically;
// here a full-machine capability job is simulated against the *actual*
// (bursty, regime-switching) fault timestamps, comparing a static interval
// tuned to the blended MTBF with a regime-adaptive one.
int ext_checkpoint_trace() {
  bench::print_header(
      "Extension - trace-driven checkpointing (Section III-I)",
      "regime-adaptive intervals beat a static Young interval on the real "
      "bursty fault trace");

  const bench::CampaignData& data = bench::default_data();
  const CampaignWindow& window = data.scan.window();
  const analysis::AutoRegime regimes = analysis::classify_regime_excluding_loudest(
      data.extraction.faults, window);

  // A full-machine job: every fault (minus the replaced permanent node)
  // kills the running segment.
  std::vector<TimePoint> trace;
  for (const auto& f : data.extraction.faults) {
    if (regimes.excluded && f.node == *regimes.excluded) continue;
    trace.push_back(f.first_seen);
  }
  std::sort(trace.begin(), trace.end());

  resilience::TraceJobConfig config;
  config.start = window.start;
  config.work_hours = 2000.0;
  const resilience::TracePolicyComparison cmp =
      resilience::compare_checkpoint_traces(trace, regimes.regime, window,
                                            config);

  std::printf("fault trace size        : %zu faults\n", trace.size());
  std::printf("static interval         : %.2f h\n", cmp.static_interval_hours);
  std::printf("adaptive intervals      : %.2f h normal / %.2f h degraded\n\n",
              cmp.normal_interval_hours, cmp.degraded_interval_hours);

  TextTable table({"Policy", "Wall (h)", "Lost (h)", "Checkpointing (h)",
                   "Failures hit", "Efficiency"});
  auto add = [&](const char* name, const resilience::TraceJobOutcome& o) {
    table.add_row({name, format_fixed(o.wall_hours, 0),
                   format_fixed(o.lost_hours, 1),
                   format_fixed(o.checkpoint_hours, 1),
                   format_count(o.failures),
                   format_fixed(100.0 * o.efficiency(), 1) + "%"});
  };
  add("static (blended MTBF)", cmp.static_policy);
  add("regime-adaptive", cmp.adaptive_policy);
  std::printf("%s\n", table.render().c_str());

  std::printf("adaptive saves %.0f wall-hours on a %.0f-hour job\n",
              cmp.static_policy.wall_hours - cmp.adaptive_policy.wall_hours,
              config.work_hours);
  return 0;
}

// Extension experiment (the paper's future work, Section VI): "swap some
// components from the most faulty nodes with some healthy nodes to further
// improve the memory error characterization."
//
// We move the degrading component from node 02-04 into healthy node 40-08
// on 2015-10-01 and watch where the errors go.  If the per-day error series
// follows the component (02-04 silent after the swap, 40-08 erupting with
// the same ramp and the same corruption-pattern pool), the root cause is
// the component, not the slot - the diagnostic the authors wanted.
int ext_component_swap() {
  bench::print_header(
      "Extension - component-swap experiment (Section VI future work)",
      "errors must follow the swapped component to its new host, with the "
      "same corruption-pattern pool");

  const TimePoint swap = from_civil_utc({2015, 10, 1, 9, 0, 0});
  const cluster::NodeId old_host{2, 4};
  const cluster::NodeId new_host{40, 8};

  sim::CampaignConfig config;
  config.faults.degrading.swap_date = swap;
  config.faults.degrading.swap_to = new_host;
  // The experiment ends mid-December and caps the ramp: enough signal to
  // read the verdict without letting the exponential run away for months.
  config.window.end = from_civil_utc({2015, 12, 15, 0, 0, 0});
  config.faults.degrading.max_rate_per_scanned_hour = 60.0;
  // The administrative outages tied to 02-04's story don't apply here.
  config.wire_special_outages = false;
  const analysis::ExtractionResult extraction =
      bench::simulate_data(config).extraction;

  std::uint64_t old_before = 0, old_after = 0, new_before = 0, new_after = 0;
  for (const auto& f : extraction.faults) {
    if (f.node == old_host) {
      (f.first_seen < swap ? old_before : old_after)++;
    } else if (f.node == new_host) {
      (f.first_seen < swap ? new_before : new_after)++;
    }
  }

  TextTable table({"Node", "Faults before swap", "Faults after swap"});
  table.add_row({cluster::node_name(old_host) + " (original host)",
                 format_count(old_before), format_count(old_after)});
  table.add_row({cluster::node_name(new_host) + " (receives component)",
                 format_count(new_before), format_count(new_after)});
  std::printf("swap date: %s\n\n%s\n", format_iso8601(swap).c_str(),
              table.render().c_str());

  const analysis::NodePatternProfile old_profile =
      analysis::node_pattern_profile(extraction.faults, old_host);
  const analysis::NodePatternProfile new_profile =
      analysis::node_pattern_profile(extraction.faults, new_host);
  std::printf("distinct patterns %s : %s\n", cluster::node_name(old_host).c_str(),
              format_count(old_profile.distinct_patterns).c_str());
  std::printf("distinct patterns %s : %s (same component -> same pool)\n",
              cluster::node_name(new_host).c_str(),
              format_count(new_profile.distinct_patterns).c_str());

  const bool followed = old_after < old_before / 10 && new_after > 100 &&
                        new_before < 10;
  std::printf("\nverdict: errors %s the component\n",
              followed ? "FOLLOWED" : "did NOT follow");
  return followed ? 0 : 1;
}

// Extension: automatic node diagnosis, validated against ground truth.
//
// Section III-H diagnoses the three loud nodes by inspection; the
// classifier does it mechanically from each node's fault record, and the
// simulator's ground-truth mechanisms grade the answer.  The point: an
// operator does not need a year of hindsight - the address/pattern/raw-log
// signature identifies the right repair (retire a page, replace a DIMM,
// replace the node) from the record alone.
int ext_diagnosis() {
  bench::print_header(
      "Extension - automatic node diagnosis vs ground truth",
      "the Section III-H readings (component failure, weak cells) recovered "
      "mechanically from each node's fault record");

  const bench::CampaignData& data = bench::default_data();
  const auto fleet = analysis::diagnose_fleet(data.extraction.faults);

  // Ground truth: dominant mechanism per node, re-derived from the default
  // campaign's plan (the cache stores only the record stream).
  ThreadPool pool(sim::default_campaign_threads());
  const sim::CampaignPlan plan =
      sim::plan_campaign(sim::CampaignConfig{}, &pool);
  std::map<int, std::map<faults::Mechanism, std::uint64_t>> truth;
  for (const auto& ev : plan.ground_truth) {
    ++truth[cluster::node_index(ev.node)][ev.mechanism];
  }
  auto dominant_mechanism = [&](cluster::NodeId node) -> const char* {
    const auto it = truth.find(cluster::node_index(node));
    if (it == truth.end()) return "-";
    const faults::Mechanism best =
        std::max_element(it->second.begin(), it->second.end(),
                         [](const auto& a, const auto& b) {
                           return a.second < b.second;
                         })
            ->first;
    return faults::to_string(best);
  };

  TextTable table({"Node", "Faults", "Addresses", "Patterns", "Diagnosis",
                   "Recommendation", "Ground truth"});
  int shown = 0;
  for (const auto& d : fleet) {
    if (d.faults < 3 && shown >= 12) break;
    table.add_row({cluster::node_name(d.node), format_count(d.faults),
                   format_count(d.distinct_addresses),
                   format_count(d.distinct_patterns),
                   analysis::to_string(d.condition), d.recommendation(),
                   dominant_mechanism(d.node)});
    if (++shown >= 12) break;
  }
  std::printf("%s\n", table.render().c_str());

  // Grade the classifier on the nodes whose mechanism is unambiguous.
  int graded = 0, correct = 0;
  for (const auto& d : fleet) {
    const std::string truth_name = dominant_mechanism(d.node);
    if (truth_name == "degrading-component") {
      ++graded;
      correct += d.condition == analysis::NodeCondition::kComponentFailure;
    } else if (truth_name == "weak-bit") {
      ++graded;
      correct += d.condition == analysis::NodeCondition::kWeakCell;
    } else if (truth_name == "background-transient" ||
               truth_name == "neutron-event" || truth_name == "isolated-sdc") {
      ++graded;
      correct += d.condition == analysis::NodeCondition::kSporadic ||
                 d.condition == analysis::NodeCondition::kHealthy;
    }
  }
  std::printf("classifier accuracy on mechanism-labelled nodes: %d / %d\n",
              correct, graded);
  std::printf("(the removed pathological node never reaches this table - the "
              "extraction filter already pulled it, as the admins did)\n");
  return 0;
}

// Extension experiment (Section VI future work): "stress test our system by
// turning on the nodes with heating issues and monitoring them as well as
// their neighbors."
//
// We rerun the campaign with the SoC-12 shutdown cancelled (the column
// stays powered and scanned all year) and compare the per-slot error rates
// of the hot column and its neighbours against the baseline run, which is
// the shared default campaign.
struct SlotRates {
  double soc12_hours = 0.0;
  std::uint64_t soc12_errors = 0;
  double neighbor_hours = 0.0;
  std::uint64_t neighbor_errors = 0;

  [[nodiscard]] double soc12_rate() const {
    return soc12_hours > 0 ? static_cast<double>(soc12_errors) / soc12_hours : 0;
  }
  [[nodiscard]] double neighbor_rate() const {
    return neighbor_hours > 0
               ? static_cast<double>(neighbor_errors) / neighbor_hours
               : 0;
  }
};

SlotRates measure(const bench::CampaignData& data) {
  SlotRates rates;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    const cluster::NodeId node = cluster::node_from_index(i);
    const double hours =
        data.scan.hours_grid().at(static_cast<std::size_t>(node.blade),
                                  static_cast<std::size_t>(node.soc));
    if (node.soc == cluster::kOverheatingSoc) {
      rates.soc12_hours += hours;
    } else if (node.soc == cluster::kOverheatingSoc - 1 ||
               node.soc == cluster::kOverheatingSoc + 1) {
      rates.neighbor_hours += hours;
    }
  }
  for (const auto& f : data.extraction.faults) {
    // Skip the three pathological nodes so the hot-column signal shows.
    if (f.node == cluster::NodeId{2, 4} || f.node == cluster::NodeId{4, 5} ||
        f.node == cluster::NodeId{58, 2}) {
      continue;
    }
    if (f.node.soc == cluster::kOverheatingSoc) {
      ++rates.soc12_errors;
    } else if (f.node.soc == cluster::kOverheatingSoc - 1 ||
               f.node.soc == cluster::kOverheatingSoc + 1) {
      ++rates.neighbor_errors;
    }
  }
  return rates;
}

int ext_overheat_stress() {
  bench::print_header(
      "Extension - overheating-column stress test (Section VI future work)",
      "keeping SoC-12 powered multiplies its scanned hours and exposes the "
      "heat-stressed error rate against its neighbours");

  const SlotRates baseline = measure(bench::default_data());

  sim::CampaignConfig stress;
  // Cancel the admin shutdown: the column stays up all campaign.
  stress.availability.overheat_shutdown = stress.window.end;
  const SlotRates after = measure(bench::simulate_data(stress));

  TextTable table({"Run", "SoC-12 hours", "SoC-12 errors", "SoC-12 err/Mh",
                   "Neighbor err/Mh"});
  auto add = [&](const char* name, const SlotRates& r) {
    table.add_row({name, format_fixed(r.soc12_hours, 0),
                   format_count(r.soc12_errors),
                   format_fixed(r.soc12_rate() * 1e6, 1),
                   format_fixed(r.neighbor_rate() * 1e6, 1)});
  };
  add("baseline (shutdown in July)", baseline);
  add("stress (column powered all year)", after);
  std::printf("%s\n", table.render().c_str());

  std::printf("scanned-hours gained on the hot column : %.0f\n",
              after.soc12_hours - baseline.soc12_hours);
  std::printf("hot column vs neighbours error ratio   : %.1fx\n",
              after.neighbor_rate() > 0
                  ? after.soc12_rate() / after.neighbor_rate()
                  : 0.0);
  return 0;
}

// Extension: history-aware job placement (Section III-H's proposal).
//
// ">99.9% of errors occurring in less than 1% of the nodes ... spatial
// correlation information can be added into the scheduler algorithm to
// avoid large high priority jobs running in nodes with a long history of
// failures."  We replay one synthetic job stream under random vs
// history-aware placement over the campaign's fault record.
int ext_placement() {
  bench::print_header(
      "Extension - history-aware job placement (Section III-H)",
      "avoiding the few loud nodes collapses the memory-error job-kill rate");

  const bench::CampaignData& data = bench::default_data();
  const CampaignWindow& window = data.scan.window();
  const cluster::Topology topology =
      sim::campaign_topology(sim::CampaignConfig{});
  const auto& fleet = topology.monitored_nodes();

  TextTable table({"Job size (nodes)", "Policy", "Jobs", "Killed", "Kill rate",
                   "Node-hours lost"});
  for (int size : {16, 64, 256}) {
    resilience::JobMix mix;
    mix.nodes_min = size;
    mix.nodes_max = size;
    const resilience::PlacementComparison cmp = resilience::compare_placements(
        data.extraction.faults, window, fleet, mix);
    auto add = [&](const char* policy, const resilience::PlacementOutcome& o) {
      table.add_row({std::to_string(size), policy, format_count(o.jobs),
                     format_count(o.failed_jobs),
                     format_fixed(100.0 * o.failure_rate(), 2) + "%",
                     format_fixed(o.node_hours_lost, 0)});
    };
    add("random", cmp.random);
    add("history-aware", cmp.history_aware);
  }
  std::printf("%s\n", table.render().c_str());
  return 0;
}

// Extension: scoring the paper's failure-prediction claim (Section III-I).
//
// "When the system starts to experience several failures in a short period
// of time, it is relatively simple to foresee future failures."  The
// sliding-window predictor flags node-days one day ahead; we sweep the
// history window and the trigger threshold and report precision / recall /
// forewarned-error fraction over the campaign (permanent node excluded,
// like every Section III-I analysis).
int ext_prediction() {
  bench::print_header(
      "Extension - one-day-ahead failure prediction (Section III-I)",
      "bursty weak-bit episodes make next-day failures predictable from "
      "short error histories");

  const bench::CampaignData& data = bench::default_data();
  const CampaignWindow& window = data.scan.window();
  const analysis::AutoRegime regimes = analysis::classify_regime_excluding_loudest(
      data.extraction.faults, window);

  TextTable table({"History (days)", "Trigger >N", "Precision", "Recall", "F1",
                   "Forewarned errors", "Flagged node-days"});
  for (int history : {1, 3, 7}) {
    for (std::uint64_t trigger : {0u, 3u, 10u}) {
      resilience::PredictorConfig config;
      config.history_days = history;
      config.trigger_errors = trigger;
      if (regimes.excluded) config.excluded_nodes.push_back(*regimes.excluded);
      const resilience::PredictionEvaluation eval =
          resilience::evaluate_predictor(data.extraction.faults, window, config);
      table.add_row({std::to_string(history), std::to_string(trigger),
                     format_fixed(eval.precision(), 3),
                     format_fixed(eval.recall(), 3),
                     format_fixed(eval.f1(), 3),
                     format_fixed(100.0 * eval.forewarned_fraction(), 1) + "%",
                     format_count(eval.flagged_node_days)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("(recall counts bad node-days seen coming; forewarned errors "
              "are the errors a scheduler could have dodged by vacating "
              "flagged nodes)\n");
  return 0;
}

// Extension: the retention-time physics beneath the weak bits.
//
// Section III-H attributes the two single-fixed-bit nodes to weak cells
// that escaped burn-in (ref [17] - cells whose retention time occasionally
// collapses).  The VRT retention model quantifies that story: at idle-scan
// temperatures a 4 GB node carries ~0.005 observable weak bits (a few per
// 923-node fleet - the study saw two), while a node running at the
// overheating column's temperature would carry thousands.
int ext_retention() {
  bench::print_header(
      "Extension - VRT retention model: weak bits vs temperature",
      "a handful of weak bits fleet-wide at 30-40 degC; thousands per node "
      "at the hot column's temperature");

  const dram::RetentionModel model;
  constexpr std::uint64_t kNodeBytes = 4ULL << 30;

  TextTable table({"Node temperature", "Expected weak bits / node",
                   "Expected / 923-node fleet"});
  for (double temp : {25.0, 35.0, 45.0, 55.0, 65.0, 75.0}) {
    const double per_node = model.expected_weak_bits(kNodeBytes, temp);
    table.add_row({format_fixed(temp, 0) + " C",
                   per_node < 0.01 ? format_fixed(per_node, 5)
                                   : format_fixed(per_node, 1),
                   per_node * 923.0 < 10.0 ? format_fixed(per_node * 923.0, 2)
                                           : format_count(static_cast<std::uint64_t>(
                                                 per_node * 923.0))});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("fleet observation        : 2 weak-bit nodes in 923 "
              "(Section III-H)\n");
  std::printf("model at 35 C            : %.2f observable weak bits per fleet\n",
              model.expected_weak_bits(kNodeBytes, 35.0) * 923.0);

  // Critical temperatures for increasingly marginal cells.
  std::printf("\ncritical temperature (cell starts missing refresh):\n");
  for (double retention : {2.0, 0.5, 0.1, 0.02}) {
    std::printf("  base retention %5.2f s -> %.0f C\n", retention,
                model.critical_temperature_c(retention));
  }
  std::printf("\n(a median cell needs ~95 C to leak; the weak tail crosses "
              "at the hot column's 60-70 C - the physics behind the "
              "suspicion that heat damage seeded the isolated SDC nodes)\n");

  // Emergent incidence: sample whole fleets from the model and count how
  // many weak-bit nodes each campaign would exhibit.
  std::vector<cluster::NodeId> fleet;
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i) {
    fleet.push_back(cluster::node_from_index(i));
  }
  const env::TemperatureModel temperature;
  const CampaignWindow window;
  RunningStats incidence;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto config = faults::WeakBitGenerator::physical_config(
        fleet, model, temperature, window, seed);
    incidence.add(static_cast<double>(config.specs.size()));
  }
  std::printf("\nsampled fleets (50 draws): %.1f +/- %.1f weak bits per "
              "923-node campaign (study observed 2)\n",
              incidence.mean(), incidence.stddev());
  return 0;
}

// Extension: how fast must production scrubbing be?
//
// On a SECDED machine a fault only matters if a *second* fault lands in
// the same ECC word before the scrubber cleans it.  The uniform-Poisson
// model says that is astronomically rare at the fleet's background rate -
// but the campaign's faults are not uniform: weak bits re-leak into the
// same word for weeks and the degrading component re-strikes its address
// pool.  The trace replay shows the gap between the two answers.
int ext_scrubbing() {
  bench::print_header(
      "Extension - scrub-interval requirements (SECDED accumulation)",
      "uniform model: accumulation ~never; the real clustered trace "
      "accumulates at any practical interval - scrubbing cannot replace "
      "node replacement");

  const bench::CampaignData& data = bench::default_data();
  const analysis::HeadlineStats stats = analysis::headline_stats(
      data.scan.total_monitored_hours(), data.scan.total_terabyte_hours(),
      data.scan.monitored_nodes(), data.scan.window(), data.extraction);

  // Fleet-average single-bit rate per node-hour (dominated by the loud
  // nodes; that is the point).
  const double rate = static_cast<double>(stats.independent_faults) /
                      stats.monitored_node_hours;
  std::printf("fleet fault rate: %.2e faults per node-hour\n\n", rate);

  TextTable table({"Scrub interval", "Analytic acc./node-year (uniform)",
                   "Trace accumulations", "Distinct-bit (uncorrectable)"});
  const std::vector<double> intervals{1.0, 6.0, 24.0, 24.0 * 7, 24.0 * 30};
  const auto sweep =
      resilience::scrubbing_sweep(data.extraction.faults, intervals);
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    resilience::ScrubbingConfig config;
    config.scrub_interval_h = intervals[i];
    const double analytic = resilience::analytic_accumulation_per_node_year(
        rate, cluster::kScannableBytes, config);
    char label[32];
    if (intervals[i] < 24.0) {
      std::snprintf(label, sizeof label, "%.0f h", intervals[i]);
    } else {
      std::snprintf(label, sizeof label, "%.0f d", intervals[i] / 24.0);
    }
    table.add_row({label, format_fixed(analytic, 9),
                   format_count(sweep[i].accumulations),
                   format_count(sweep[i].distinct_bit_accumulations)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "(uniform-model accumulations are ~1e-6/node-year even at monthly\n"
      " scrubbing, yet the trace accumulates thousands of same-word pairs:\n"
      " fault clustering - not average rate - sets the ECC failure budget,\n"
      " which is why the paper pushes quarantine/replacement over cleverer\n"
      " per-word protection)\n");
  return 0;
}

// Extension: error rate vs solar elevation - Fig 6 done properly.
//
// The paper bins multi-bit errors by wall-clock hour and eyeballs the sun;
// here each multi-bit fault is tagged with the sun's *elevation* at its
// timestamp, and counts are normalized by the fleet's exposure to each
// elevation band (wall time spent in the band over the campaign).  A
// neutron-driven mechanism must show a monotone rate increase with
// elevation; a flat profile would falsify the cosmic-ray reading.
int ext_solar_elevation() {
  bench::print_header(
      "Extension - multi-bit error rate vs solar elevation",
      "exposure-normalized rates must rise monotonically with the sun");

  const bench::CampaignData& data = bench::default_data();
  const CampaignWindow& window = data.scan.window();

  // Elevation bands: night, low, mid, high sun.
  const double edges[] = {-90.0, 0.0, 20.0, 40.0, 90.0};
  const char* labels[] = {"night (<0 deg)", "low (0-20 deg)", "mid (20-40 deg)",
                          "high (>40 deg)"};
  constexpr int kBands = 4;

  auto band_of = [&](double elevation) {
    for (int b = 0; b < kBands; ++b) {
      if (elevation < edges[b + 1]) return b;
    }
    return kBands - 1;
  };

  // Fleet exposure per band: sample the campaign every 15 minutes (the
  // fleet's scan duty is hour-of-day-uniform, so wall time is the right
  // exposure proxy).
  double exposure_h[kBands] = {};
  for (TimePoint t = window.start; t < window.end; t += 900) {
    exposure_h[band_of(env::solar_elevation_deg(t))] += 0.25;
  }

  std::uint64_t multibit[kBands] = {};
  std::uint64_t singles[kBands] = {};
  for (const auto& f : data.extraction.faults) {
    const int band = band_of(env::solar_elevation_deg(f.first_seen));
    if (f.is_multibit()) {
      ++multibit[band];
    } else {
      ++singles[band];
    }
  }

  TextTable table({"Solar elevation", "Exposure (h)", "Multi-bit errors",
                   "Rate (per 1000 h)", "Single-bit rate (/1000 h)"});
  std::vector<double> rates;
  for (int b = 0; b < kBands; ++b) {
    const double rate =
        exposure_h[b] > 0 ? static_cast<double>(multibit[b]) / exposure_h[b] * 1000.0
                          : 0.0;
    const double single_rate =
        exposure_h[b] > 0 ? static_cast<double>(singles[b]) / exposure_h[b] * 1000.0
                          : 0.0;
    rates.push_back(rate);
    table.add_row({labels[b], format_fixed(exposure_h[b], 0),
                   format_count(multibit[b]), format_fixed(rate, 2),
                   format_fixed(single_rate, 1)});
  }
  std::printf("%s\n", table.render().c_str());

  // Seasonal confound warning: the >40-degree band only exists around
  // summer midday, while the susceptible-site burst peaks in November when
  // the sun never climbs past ~30 degrees - so the top band under-counts.
  // The robust claim is daylight vs night.
  double day_exposure = 0.0, night_exposure = exposure_h[0];
  std::uint64_t day_multibit = 0, night_multibit = multibit[0];
  for (int b = 1; b < kBands; ++b) {
    day_exposure += exposure_h[b];
    day_multibit += multibit[b];
  }
  const double day_rate =
      day_exposure > 0 ? static_cast<double>(day_multibit) / day_exposure : 0.0;
  const double night_rate =
      night_exposure > 0 ? static_cast<double>(night_multibit) / night_exposure
                         : 0.0;
  std::printf("sun-up multi-bit rate   : %.2f / 1000 h\n", 1000.0 * day_rate);
  std::printf("night multi-bit rate    : %.2f / 1000 h\n", 1000.0 * night_rate);
  std::printf("sun-up / night ratio    : %.1fx (neutron mechanism confirmed; "
              "the top band is season-confounded with the November burst)\n",
              night_rate > 0 ? day_rate / night_rate : 0.0);
  return 0;
}

// Section III-C/D: what ECC would have seen, and the isolation of the
// undetectable errors.
//
// Paper shape: 76 double-bit errors would be detected by SECDED; 9 errors
// beyond 2 bits could pass undetected (SDC); the seven >3-bit errors all
// struck nodes with no other error during the whole study, uncorrelated
// with anything else; 4 affected nodes sit near the overheating SoC-12
// column; 6 of them predate the temperature logging.
int sdc_isolation() {
  bench::print_header(
      "SDC analysis - ECC what-if and isolation (Sections III-C/D)",
      "76 doubles detected by SECDED; 9 wider faults can be silent; the "
      "seven >3-bit faults hit otherwise error-free nodes, uncorrelated");

  const bench::CampaignData& data = bench::default_data();
  const resilience::EccWhatIf whatif =
      resilience::ecc_what_if(data.extraction.faults);

  std::printf("multi-bit faults                 : %s (paper: 85)\n",
              format_count(whatif.multibit_faults).c_str());
  std::printf("double-bit faults                : %s (paper: 76)\n",
              format_count(whatif.double_bit_faults).c_str());
  std::printf("faults beyond SECDED guarantee   : %s (paper: 9)\n",
              format_count(whatif.beyond_secded_guarantee).c_str());

  TextTable table({"Scheme", "Corrected", "Detected", "Miscorrected",
                   "Undetected", "Silent total"});
  auto add_scheme = [&](const char* name, const ecc::PopulationResult& r) {
    const ecc::VerdictCounts c = r.total();
    table.add_row({name, format_count(c.correct), format_count(c.detect_only),
                   format_count(c.miscorrect), format_count(c.sdc),
                   format_count(c.silent())});
  };
  add_scheme("SECDED(72,64)", whatif.secded);
  add_scheme("Chipkill SSC-DSD", whatif.chipkill);
  std::printf("\n%s\n", table.render().c_str());

  const auto reports =
      resilience::sdc_isolation_report(data.extraction.faults, /*min_bits=*/4);
  std::printf("isolated >3-bit faults (paper: 7, on 5 quiet nodes):\n");
  TextTable iso({"Node", "Date (UTC)", "Bits", "Expected", "Corrupted",
                 "Ordinary faults same node", "Faults within 1h anywhere"});
  for (const auto& r : reports) {
    iso.add_row({cluster::node_name(r.fault.node),
                 format_iso8601(r.fault.first_seen).substr(0, 10),
                 std::to_string(r.fault.flipped_bits()),
                 format_hex32(r.fault.expected), format_hex32(r.fault.actual),
                 format_count(r.same_node_small_faults),
                 format_count(r.same_time_other_faults)});
  }
  std::printf("%s\n", iso.render().c_str());
  return 0;
}

// Robustness: the reproduction's headline shapes across campaign seeds.
//
// A calibration that only works at seed 42 would be curve-fitting, not a
// model.  This study reruns the full campaign at several seeds and reports
// the spread of every headline quantity; the paper-shape must survive.
int seed_sensitivity() {
  bench::print_header(
      "Seed sensitivity - headline shapes across campaigns",
      "every paper shape must hold at any seed, not just the default");

  RunningStats faults, multibit, one_to_zero, day_night, degraded_frac;

  constexpr std::uint64_t kSeeds[] = {1, 2, 3, 5, 8, 13, 21, 42};
  TextTable table({"Seed", "Faults", "Multi-bit", "1->0 %", "Day/night",
                   "Degraded days %"});
  for (const std::uint64_t seed : kSeeds) {
    sim::CampaignConfig config;
    config.seed = seed;
    const analysis::ExtractionResult extraction =
        bench::simulate_data(config).extraction;

    const analysis::AdjacencyStats adj =
        analysis::adjacency_stats(extraction.faults);
    const analysis::DirectionStats dir =
        analysis::direction_stats(extraction.faults);
    const analysis::HourOfDayProfile hours =
        analysis::hour_of_day_profile(extraction.faults);
    const analysis::AutoRegime regimes =
        analysis::classify_regime_excluding_loudest(extraction.faults,
                                                    config.window);

    faults.add(static_cast<double>(extraction.faults.size()));
    multibit.add(static_cast<double>(adj.multibit_faults));
    one_to_zero.add(100.0 * dir.one_to_zero_fraction());
    day_night.add(hours.day_night_ratio_multibit());
    degraded_frac.add(100.0 * regimes.regime.degraded_fraction());

    table.add_row({std::to_string(seed),
                   format_count(extraction.faults.size()),
                   format_count(adj.multibit_faults),
                   format_fixed(100.0 * dir.one_to_zero_fraction(), 1),
                   format_fixed(hours.day_night_ratio_multibit(), 2),
                   format_fixed(100.0 * regimes.regime.degraded_fraction(), 1)});
  }
  std::printf("%s\n", table.render().c_str());

  auto row = [](const char* name, const RunningStats& s, const char* paper) {
    std::printf("%-22s mean %10.1f  sd %8.1f   (paper: %s)\n", name, s.mean(),
                s.stddev(), paper);
  };
  row("independent faults", faults, ">55,000");
  row("multi-bit faults", multibit, "85");
  row("1->0 share (%)", one_to_zero, "~90");
  row("day/night ratio", day_night, "~2");
  row("degraded days (%)", degraded_frac, "18.1");
  return 0;
}

/// One study: its name on the command line and its body.
struct Study {
  const char* name;
  int (*run)();
};

/// The registry, in --list (and --all) order.  The shared default_data()
/// (faults and scan profile, no records) stays resident from its first use
/// to exit; the studies that simulate their own campaigns come first.
constexpr Study kStudies[] = {
    // No campaign.
    {"ecc_characterization", ecc_characterization},
    {"ext_retention", ext_retention},
    // Each simulates its own counterfactual campaigns.
    {"ablation_diurnal", ablation_diurnal},
    {"ablation_scrambling", ablation_scrambling},
    {"ext_altitude", ext_altitude},
    {"ext_component_swap", ext_component_swap},
    {"seed_sensitivity", seed_sensitivity},
    // The shared default campaign (ext_overheat_stress also simulates its
    // stressed variant).
    {"ablation_dedup", ablation_dedup},
    {"ablation_ecc", ablation_ecc},
    {"ext_checkpoint_trace", ext_checkpoint_trace},
    {"ext_diagnosis", ext_diagnosis},
    {"ext_placement", ext_placement},
    {"ext_prediction", ext_prediction},
    {"ext_scrubbing", ext_scrubbing},
    {"ext_solar_elevation", ext_solar_elevation},
    {"sdc_isolation", sdc_isolation},
    {"ext_overheat_stress", ext_overheat_stress},
};

void usage(std::FILE* out) {
  std::fprintf(out,
               "usage: unp_study NAME... | --all | --list\n"
               "  NAME     run the named studies, in the order given\n"
               "  --all    run every study, in --list order\n"
               "  --list   print the study names, one per line\n"
               "studies:\n");
  for (const Study& study : kStudies) std::fprintf(out, "  %s\n", study.name);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::CliParser cli("unp_study", argc, argv);
  std::vector<const Study*> selected;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      for (const Study& study : kStudies) std::printf("%s\n", study.name);
      return 0;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      usage(stdout);
      return 0;
    }
    if (std::strcmp(arg, "--all") == 0) {
      for (const Study& study : kStudies) selected.push_back(&study);
      continue;
    }
    const auto it = std::find_if(
        std::begin(kStudies), std::end(kStudies),
        [arg](const Study& study) { return std::strcmp(arg, study.name) == 0; });
    if (it == std::end(kStudies)) {
      std::vector<std::string> names;
      for (const Study& study : kStudies) names.emplace_back(study.name);
      cli.reject_choice("NAME", arg, names);
      return 2;
    }
    selected.push_back(&*it);
  }
  if (selected.empty()) {
    usage(stderr);
    return 2;
  }
  int status = 0;
  for (const Study* study : selected) {
    if (study->run() != 0) status = 1;
  }
  return status;
}
