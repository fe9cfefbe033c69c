#include "util/figures.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "cluster/topology.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "ecc/engine.hpp"
#include "ecc/registry.hpp"
#include "util/campaign_cache.hpp"

namespace unp::bench {

void print_headline(const analysis::HeadlineStats& stats,
                    const analysis::ExtractionResult& extraction, FILE* out) {
  print_header(
      "Headline statistics (Section III-B)",
      ">25M raw logs; >98% from one removed node; >55k independent errors; "
      "4.2M node-hours; 12,135 TB-h; 923 nodes; node MTBF ~41h; cluster "
      "error every ~10 min", out);

  std::fprintf(out, "monitored nodes                : %d\n", stats.monitored_nodes);
  std::fprintf(out, "raw ERROR logs                 : %llu\n",
              static_cast<unsigned long long>(stats.raw_logs));
  std::fprintf(out, "removed (pathological) nodes   : %zu\n",
              extraction.removed_nodes.size());
  for (const auto& n : extraction.removed_nodes) {
    std::fprintf(out, "  removed node                 : %s\n",
                cluster::node_name(n).c_str());
  }
  std::fprintf(out, "raw-log fraction removed       : %.2f%%\n",
              100.0 * stats.removed_fraction);
  std::fprintf(out, "independent memory errors      : %llu\n",
              static_cast<unsigned long long>(stats.independent_faults));
  std::fprintf(out, "monitored node-hours           : %.0f\n",
              stats.monitored_node_hours);
  std::fprintf(out, "terabyte-hours scanned         : %.0f\n", stats.terabyte_hours);
  std::fprintf(out, "node MTBF (hours per error)    : %.1f\n", stats.node_mtbf_hours);
  std::fprintf(out, "cluster error interval (min)   : %.1f\n",
              stats.cluster_mtbe_minutes);
}

void print_fig01(const Grid2D& hours, FILE* out) {
  print_header(
      "Fig 1 - hours each node was scanned",
      "most nodes ~5000 h; login SoC-0 blank on first blades; SoC-12 column "
      "starved; blade 33 truncated", out);

  std::fprintf(out, "rows = blades 0..%zu, cols = SoCs 0..%zu; max = %.0f h\n\n",
              hours.rows() - 1, hours.cols() - 1, hours.max_value());
  std::fprintf(out, "%s\n", render_heatmap(hours).c_str());

  // Column means expose the SoC-12 starvation; a few reference columns.
  RunningStats all;
  RunningStats soc12;
  for (std::size_t b = 0; b < hours.rows(); ++b) {
    for (std::size_t s = 0; s < hours.cols(); ++s) {
      if (hours.at(b, s) <= 0.0) continue;
      (s == 12 ? soc12 : all).add(hours.at(b, s));
    }
  }
  std::fprintf(out, "mean hours, SoCs != 12 : %.0f\n", all.mean());
  std::fprintf(out, "mean hours, SoC 12     : %.0f (overheating column)\n",
              soc12.mean());
}

void print_fig02(const Grid2D& hours, const Grid2D& tbh, FILE* out) {
  print_header(
      "Fig 2 - terabyte-hours scanned per node",
      "mirrors Fig 1; most nodes ~15 TB-h; total 12,135 TB-h", out);

  std::fprintf(out, "rows = blades, cols = SoCs; max = %.1f TB-h; total = %.0f TB-h\n\n",
              tbh.max_value(), tbh.sum());
  std::fprintf(out, "%s\n", render_heatmap(tbh).c_str());

  // Correlation with Fig 1 across scanned nodes.
  std::vector<double> x, y;
  RunningStats per_node;
  for (std::size_t b = 0; b < tbh.rows(); ++b) {
    for (std::size_t s = 0; s < tbh.cols(); ++s) {
      if (hours.at(b, s) <= 0.0) continue;
      x.push_back(hours.at(b, s));
      y.push_back(tbh.at(b, s));
      per_node.add(tbh.at(b, s));
    }
  }
  const PearsonResult corr = pearson(x, y);
  std::fprintf(out, "median TB-h per scanned node : %.1f\n",
              median_of(std::span<const double>(y)));
  std::fprintf(out, "corr(hours, TB-h)            : r = %.3f (paper: strong)\n",
              corr.r);
}

void print_fig03(const Grid2D& errors, FILE* out) {
  print_header(
      "Fig 3 - independent memory errors per node (log scale)",
      "most nodes zero; single-error nodes dominate the faulty set; a few "
      "nodes carry thousands", out);

  std::fprintf(out, "rows = blades, cols = SoCs; max = %.0f errors (log ramp)\n\n",
              errors.max_value());
  std::fprintf(out, "%s\n", render_heatmap(errors, /*log_scale=*/true).c_str());

  int zero = 0, one = 0, two_to_ten = 0, more = 0, thousands = 0;
  for (std::size_t b = 0; b < errors.rows(); ++b) {
    for (std::size_t s = 0; s < errors.cols(); ++s) {
      const double v = errors.at(b, s);
      if (v == 0.0) {
        ++zero;
      } else if (v == 1.0) {
        ++one;
      } else if (v <= 10.0) {
        ++two_to_ten;
      } else if (v < 1000.0) {
        ++more;
      } else {
        ++thousands;
      }
    }
  }
  std::fprintf(out, "nodes with zero errors   : %d\n", zero);
  std::fprintf(out, "nodes with one error     : %d\n", one);
  std::fprintf(out, "nodes with 2-10 errors   : %d\n", two_to_ten);
  std::fprintf(out, "nodes with 11-999 errors : %d\n", more);
  std::fprintf(out, "nodes with >=1000 errors : %d\n", thousands);
}

void print_tab1(const std::vector<analysis::MultibitPattern>& patterns,
                const analysis::AdjacencyStats& adj,
                const analysis::DirectionStats& dir, FILE* out) {
  print_header(
      "Table I - multi-bit corruption census",
      "85 multi-bit (76 double, 9 wider, max 9 bits); repeats up to 36x; "
      "mostly non-consecutive; mean bit distance ~3, max 11; ~90% 1->0", out);

  TextTable table({"Bits", "Expected", "Corrupted", "Occurrences", "Consecutive"});
  std::uint64_t total = 0, doubles = 0, wider = 0;
  int max_bits = 0;
  for (const auto& p : patterns) {
    table.add_row({std::to_string(p.bits), format_hex32(p.expected),
                   format_hex32(p.corrupted), std::to_string(p.occurrences),
                   p.consecutive ? "Yes" : "No"});
    total += p.occurrences;
    if (p.bits == 2) doubles += p.occurrences;
    if (p.bits > 2) wider += p.occurrences;
    max_bits = p.bits > max_bits ? p.bits : max_bits;
  }
  std::fprintf(out, "%s\n", table.render().c_str());

  std::fprintf(out, "multi-bit faults              : %llu (paper: 85)\n",
              static_cast<unsigned long long>(total));
  std::fprintf(out, "  double-bit                  : %llu (paper: 76)\n",
              static_cast<unsigned long long>(doubles));
  std::fprintf(out, "  more than 2 bits            : %llu (paper: 9)\n",
              static_cast<unsigned long long>(wider));
  std::fprintf(out, "  widest corruption           : %d bits (paper: 9)\n", max_bits);

  std::fprintf(out, "non-adjacent / consecutive    : %llu / %llu (paper: majority "
              "non-adjacent)\n",
              static_cast<unsigned long long>(adj.non_adjacent),
              static_cast<unsigned long long>(adj.consecutive));
  std::fprintf(out, "mean distance between bits    : %.1f (paper: ~3)\n",
              adj.mean_distance);
  std::fprintf(out, "max distance between bits     : %d (paper: 11)\n",
              adj.max_distance);
  std::fprintf(out, "low-half-dominated faults     : %llu of %llu\n",
              static_cast<unsigned long long>(adj.low_half_majority),
              static_cast<unsigned long long>(adj.multibit_faults));

  std::fprintf(out, "bits flipped 1->0             : %.1f%% (paper: ~90%%)\n",
              100.0 * dir.one_to_zero_fraction());
}

void print_fig04(const analysis::MultibitViewpoints& viewpoints,
                 const analysis::CoOccurrence& co, FILE* out) {
  print_header(
      "Fig 4 - per-word vs per-node multi-bit accounting",
      "per-node multi-bit >> per-word multi-bit; per-node single-bit < "
      "per-word single-bit; >26,000 simultaneous corruptions; bursts up to "
      "36 bits; 44 double+single, 2 triple+single, 1 double+double", out);

  TextTable table({"Bits", "Per memory word", "Per node"});
  for (int bits = 1; bits <= analysis::MultibitViewpoints::kMaxBits; ++bits) {
    if (viewpoints.per_word[bits] == 0 && viewpoints.per_node[bits] == 0) continue;
    table.add_row({std::to_string(bits), format_count(viewpoints.per_word[bits]),
                   format_count(viewpoints.per_node[bits])});
  }
  std::fprintf(out, "%s\n", table.render().c_str());

  std::uint64_t word_single = viewpoints.per_word[1];
  std::uint64_t node_single = viewpoints.per_node[1];
  std::uint64_t word_multi = 0, node_multi = 0;
  for (int bits = 2; bits <= analysis::MultibitViewpoints::kMaxBits; ++bits) {
    word_multi += viewpoints.per_word[bits];
    node_multi += viewpoints.per_node[bits];
  }
  std::fprintf(out, "single-bit  per word / per node : %s / %s\n",
              format_count(word_single).c_str(), format_count(node_single).c_str());
  std::fprintf(out, "multi-bit   per word / per node : %s / %s\n",
              format_count(word_multi).c_str(), format_count(node_multi).c_str());

  std::fprintf(out, "\nsimultaneous corruptions        : %s (paper: >26,000)\n",
              format_count(co.simultaneous_corruptions).c_str());
  std::fprintf(out, "multi-single-bit groups         : %s (paper: >99.9%% of them)\n",
              format_count(co.multi_single_groups).c_str());
  std::fprintf(out, "double + single co-occurrences  : %s (paper: 44)\n",
              format_count(co.double_plus_single).c_str());
  std::fprintf(out, "triple + single co-occurrences  : %s (paper: 2)\n",
              format_count(co.triple_plus_single).c_str());
  std::fprintf(out, "multi + multi co-occurrences    : %s (paper: 1)\n",
              format_count(co.double_plus_double).c_str());
  std::fprintf(out, "widest burst                    : %s bits (paper: 36)\n",
              format_count(co.max_bits_one_instant).c_str());
}

void print_fig05(const analysis::HourOfDayProfile& profile, FILE* out) {
  print_header(
      "Fig 5 - errors per hour of day, by corrupted bits",
      "single-bit dominates every hour; overall distribution homogeneous "
      "across the day", out);

  TextTable table({"Hour", "1", "2", "3", "4", "5", "6+", "Total"});
  for (int h = 0; h < 24; ++h) {
    std::vector<std::string> row{std::to_string(h)};
    for (int c = 0; c < analysis::kBitClasses; ++c) {
      row.push_back(std::to_string(
          profile.counts[static_cast<std::size_t>(h)][static_cast<std::size_t>(c)]));
    }
    row.push_back(format_count(profile.total(h)));
    table.add_row(std::move(row));
  }
  std::fprintf(out, "%s\n", table.render().c_str());

  std::vector<BarEntry> bars;
  for (int h = 0; h < 24; ++h) {
    char label[8];
    std::snprintf(label, sizeof label, "%02dh", h);
    bars.push_back({label, static_cast<double>(profile.total(h))});
  }
  std::fprintf(out, "%s\n", render_bars(bars, 50).c_str());

  // Homogeneity check: max/min hourly totals stay within a small factor.
  std::uint64_t lo = profile.total(0), hi = profile.total(0);
  for (int h = 1; h < 24; ++h) {
    lo = std::min(lo, profile.total(h));
    hi = std::max(hi, profile.total(h));
  }
  std::fprintf(out, "hourly total spread (max/min) : %.2f (paper: homogeneous)\n",
              lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo) : 0.0);
}

void print_fig06(const analysis::HourOfDayProfile& profile, FILE* out) {
  print_header(
      "Fig 6 - multi-bit errors per hour of day",
      "bell shape peaking at noon; day (07-18h) ~2x night", out);

  std::vector<BarEntry> bars;
  for (int h = 0; h < 24; ++h) {
    char label[8];
    std::snprintf(label, sizeof label, "%02dh", h);
    bars.push_back({label, static_cast<double>(profile.multibit(h))});
  }
  std::fprintf(out, "%s\n", render_bars(bars, 50).c_str());

  // With only ~85 events the raw histogram is noisy; locate the bell's top
  // with a 3-hour sliding window, as one would read the figure.
  int peak_hour = 0;
  std::uint64_t peak = 0;
  for (int h = 0; h < 24; ++h) {
    const std::uint64_t window = profile.multibit((h + 23) % 24) +
                                 profile.multibit(h) +
                                 profile.multibit((h + 1) % 24);
    if (window > peak) {
      peak = window;
      peak_hour = h;
    }
  }
  std::fprintf(out, "day/night multi-bit ratio : %.2f (paper: ~2)\n",
              profile.day_night_ratio_multibit());
  std::fprintf(out, "peak (3h window centre)   : %d:00 local (paper: noon)\n",
              peak_hour);
}

void print_fig07(const analysis::TemperatureProfile& profile, FILE* out) {
  print_header(
      "Fig 7 - errors vs node temperature, by corrupted bits",
      "bulk at 30-40 degC; small >60 degC tail; no high-temperature "
      "correlation", out);

  TextTable table({"Temp bin", "1", "2", "3", "4", "5", "6+"});
  for (std::size_t bin = 0; bin < analysis::TemperatureProfile::kBins; ++bin) {
    std::uint64_t row_total = 0;
    std::vector<std::string> row{
        format_fixed(profile.by_class[0].bin_lo(bin), 0) + "-" +
        format_fixed(profile.by_class[0].bin_lo(bin) + 2.0, 0) + "C"};
    for (int c = 0; c < analysis::kBitClasses; ++c) {
      const std::uint64_t v =
          profile.by_class[static_cast<std::size_t>(c)].count(bin);
      row.push_back(std::to_string(v));
      row_total += v;
    }
    if (row_total > 0) table.add_row(std::move(row));
  }
  std::fprintf(out, "%s\n", table.render().c_str());

  std::uint64_t in_band = 0, hot = 0, total = 0;
  for (int c = 0; c < analysis::kBitClasses; ++c) {
    const auto& h = profile.by_class[static_cast<std::size_t>(c)];
    for (std::size_t bin = 0; bin < h.bins(); ++bin) {
      const double lo = h.bin_lo(bin);
      total += h.count(bin);
      if (lo >= 30.0 && lo < 40.0) in_band += h.count(bin);
      if (lo >= 60.0) hot += h.count(bin);
    }
    total += h.underflow() + h.overflow();
    hot += h.overflow();
  }
  std::fprintf(out, "errors with a reading        : %s\n", format_count(total).c_str());
  std::fprintf(out, "errors without (pre-April)   : %s\n",
              format_count(profile.without_reading).c_str());
  std::fprintf(out, "fraction in 30-40 degC       : %.1f%% (paper: most)\n",
              total ? 100.0 * static_cast<double>(in_band) /
                          static_cast<double>(total)
                    : 0.0);
  std::fprintf(out, "errors above 60 degC         : %s (paper: small set)\n",
              format_count(hot).c_str());
}

void print_fig08(const analysis::TemperatureProfile& profile, FILE* out) {
  print_header(
      "Fig 8 - multi-bit errors vs node temperature",
      "all multi-bit errors (with a reading) at nominal temperatures", out);

  std::vector<BarEntry> bars;
  double hottest = 0.0;
  std::uint64_t total = 0;
  for (std::size_t bin = 0; bin < analysis::TemperatureProfile::kBins; ++bin) {
    std::uint64_t multibit = 0;
    for (int c = 1; c < analysis::kBitClasses; ++c) {
      multibit += profile.by_class[static_cast<std::size_t>(c)].count(bin);
    }
    if (multibit == 0) continue;
    const double lo = profile.by_class[1].bin_lo(bin);
    bars.push_back({format_fixed(lo, 0) + "-" + format_fixed(lo + 2.0, 0) + "C",
                    static_cast<double>(multibit)});
    hottest = lo + 2.0;
    total += multibit;
  }
  std::fprintf(out, "%s\n", render_bars(bars, 50).c_str());
  std::fprintf(out, "multi-bit errors with a reading : %s\n",
              format_count(total).c_str());
  std::fprintf(out, "hottest multi-bit observation   : <%.0f degC (paper: nominal "
              "range only)\n",
              hottest);
}

void print_fig09(std::span<const double> daily_tbh,
                 const CampaignWindow& window, FILE* out) {
  print_header(
      "Fig 9 - terabyte-hours scanned per day",
      "peaks in Aug/Sep/Dec (vacations), trough Apr-Jul (term time)", out);

  // Monthly aggregation for a readable shape; daily values summarized.
  struct Month {
    int year, month;
    double tbh = 0.0;
    int days = 0;
  };
  std::vector<Month> months;
  for (std::size_t d = 0; d < daily_tbh.size(); ++d) {
    const CivilDateTime c = to_civil_utc(
        window.start + static_cast<TimePoint>(d) * kSecondsPerDay);
    if (months.empty() || months.back().month != c.month ||
        months.back().year != c.year) {
      months.push_back({c.year, c.month, 0.0, 0});
    }
    months.back().tbh += daily_tbh[d];
    ++months.back().days;
  }

  std::vector<BarEntry> bars;
  for (const auto& m : months) {
    if (m.days < 5) continue;  // trailing partial bucket
    char label[16];
    std::snprintf(label, sizeof label, "%04d-%02d", m.year, m.month);
    bars.push_back({label, m.tbh / m.days});
  }
  std::fprintf(out, "mean TB-h scanned per day, by month:\n%s\n",
              render_bars(bars, 50).c_str());

  double summer = 0.0, term = 0.0;
  int summer_n = 0, term_n = 0;
  for (const auto& m : months) {
    if (m.month == 8 || m.month == 9 || m.month == 12) {
      summer += m.tbh;
      summer_n += m.days;
    } else if (m.month >= 4 && m.month <= 7) {
      term += m.tbh;
      term_n += m.days;
    }
  }
  std::fprintf(out, "vacation vs term-time daily scan ratio : %.2f (paper: >1)\n",
              (term_n && summer_n)
                  ? (summer / summer_n) / (term / term_n)
                  : 0.0);
}

void print_fig10(const analysis::DailyErrorSeries& series,
                 const PearsonResult& corr, const CampaignWindow& window, FILE* out) {
  print_header(
      "Fig 10 - errors per day (and scan-vs-error correlation)",
      "errors concentrate Sep-Dec; Pearson r ~ -0.18, p ~ 2e-4: scanning "
      "volume does not drive error counts", out);

  // Monthly totals keep the printout readable.
  struct Month {
    int year, month;
    std::uint64_t errors = 0;
  };
  std::vector<Month> months;
  for (std::size_t d = 0; d < series.size(); ++d) {
    const CivilDateTime c = to_civil_utc(
        window.start + static_cast<TimePoint>(d) * kSecondsPerDay);
    if (months.empty() || months.back().month != c.month ||
        months.back().year != c.year) {
      months.push_back({c.year, c.month, 0});
    }
    for (int k = 0; k < analysis::kBitClasses; ++k) {
      months.back().errors += series[d][static_cast<std::size_t>(k)];
    }
  }
  std::vector<BarEntry> bars;
  for (const auto& m : months) {
    char label[16];
    std::snprintf(label, sizeof label, "%04d-%02d", m.year, m.month);
    bars.push_back({label, static_cast<double>(m.errors)});
  }
  std::fprintf(out, "errors per month:\n%s\n", render_bars(bars, 50).c_str());

  std::fprintf(out, "Pearson(daily TB-h, daily errors) : r = %.5f (paper: -0.17966)\n",
              corr.r);
  std::fprintf(out, "p-value                           : %.4g (paper: 0.0002)\n",
              corr.p_value);
  std::fprintf(out, "n (days)                          : %zu\n", corr.n);
}

void print_fig11(analysis::FaultView faults, const CampaignWindow& window, FILE* out) {
  print_header(
      "Fig 11 - multi-bit errors per day",
      "rare all year; November burst correlated with single-bit surge; two "
      "same-day undetectable pairs (March, May), hours apart", out);

  TextTable table({"Date", "Multi-bit errors", "of which >3 bits"});
  std::map<std::int64_t, std::pair<int, int>> days;  // day -> (multibit, sdc)
  std::map<std::int64_t, std::vector<TimePoint>> sdc_times;
  for (const auto& f : faults) {
    const int bits = f.flipped_bits();
    if (bits < 2) continue;
    const std::int64_t day = window.day_of_campaign(f.first_seen);
    ++days[day].first;
    if (bits > 3) {
      ++days[day].second;
      sdc_times[day].push_back(f.first_seen);
    }
  }
  int november = 0;
  for (const auto& [day, counts] : days) {
    const TimePoint t = window.start + day * kSecondsPerDay;
    const CivilDateTime c = to_civil_utc(t);
    char date[16];
    std::snprintf(date, sizeof date, "%04d-%02d-%02d", c.year, c.month, c.day);
    table.add_row({date, std::to_string(counts.first),
                   std::to_string(counts.second)});
    if (c.year == 2015 && c.month == 11) november += counts.first;
  }
  std::fprintf(out, "%s\n", table.render().c_str());
  std::fprintf(out, "days with any multi-bit error : %zu (paper: a few dozen)\n",
              days.size());
  std::fprintf(out, "multi-bit errors in Nov 2015  : %d (paper: unusually high)\n",
              november);

  for (const auto& [day, times] : sdc_times) {
    if (times.size() < 2) continue;
    const double hours_apart =
        static_cast<double>(times.back() - times.front()) / kSecondsPerHour;
    const CivilDateTime c =
        to_civil_utc(window.start + day * kSecondsPerDay);
    std::fprintf(out, "same-day undetectable pair    : %04d-%02d, %.1f h apart "
                "(paper: March & May pairs, hours apart)\n",
                c.year, c.month, hours_apart);
  }
}

void print_fig12(const analysis::TopNodeSeries& top,
                 const std::vector<analysis::NodePatternProfile>& profiles,
                 const CampaignWindow& window, FILE* out) {
  print_header(
      "Fig 12 - errors per day: top-3 nodes vs the rest",
      "one degrading node >50k; two weak-bit nodes with one fixed bit each; "
      "rest negligible; >99.9% of errors in <1% of nodes", out);

  std::uint64_t total = top.rest_total;
  for (const auto t : top.node_totals) total += t;

  TextTable table({"Node", "Faults", "Share", "Distinct addrs", "Distinct patterns",
                   "Single fixed bit"});
  for (std::size_t k = 0; k < top.nodes.size(); ++k) {
    const analysis::NodePatternProfile& profile = profiles[k];
    table.add_row(
        {cluster::node_name(top.nodes[k]), format_count(top.node_totals[k]),
         format_fixed(100.0 * static_cast<double>(top.node_totals[k]) /
                          static_cast<double>(total),
                      2) + "%",
         format_count(profile.distinct_addresses),
         format_count(profile.distinct_patterns),
         profile.single_fixed_bit ? "Yes" : "No"});
  }
  table.add_row({"all others", format_count(top.rest_total),
                 format_fixed(100.0 * static_cast<double>(top.rest_total) /
                                  static_cast<double>(total),
                              2) + "%",
                 "-", "-", "-"});
  std::fprintf(out, "%s\n", table.render().c_str());

  // Peak daily rate of the loudest node and its monthly trajectory.
  if (!top.per_day.empty()) {
    std::uint64_t peak = 0;
    for (const auto v : top.per_day[0]) peak = std::max(peak, v);
    std::fprintf(out, "loudest node peak rate  : %s errors/day (paper: >1000 by "
                "November)\n",
                format_count(peak).c_str());

    std::fprintf(out, "loudest node by month   :\n");
    std::vector<BarEntry> bars;
    std::uint64_t month_total = 0;
    int cur_month = -1, cur_year = 0;
    for (std::size_t d = 0; d < top.per_day[0].size(); ++d) {
      const CivilDateTime c = to_civil_utc(
          window.start + static_cast<TimePoint>(d) * kSecondsPerDay);
      if (c.month != cur_month) {
        if (cur_month >= 0) {
          char label[16];
          std::snprintf(label, sizeof label, "%04d-%02d", cur_year, cur_month);
          bars.push_back({label, static_cast<double>(month_total)});
        }
        cur_month = c.month;
        cur_year = c.year;
        month_total = 0;
      }
      month_total += top.per_day[0][d];
    }
    std::fprintf(out, "%s\n", render_bars(bars, 50).c_str());
  }
}

void print_fig13(const analysis::AutoRegime& result,
                 const CampaignWindow& window, FILE* out) {
  print_header(
      "Fig 13 - normal vs degraded days (Section III-I)",
      "77 degraded days (18.1%) vs 348 normal; MTBF 167 h normal vs 0.39 h "
      "degraded; loudest (permanent) node excluded first", out);

  if (result.excluded) {
    std::fprintf(out, "excluded permanent-failure node : %s\n\n",
                cluster::node_name(*result.excluded).c_str());
  }

  // Calendar strip: one character per day ('.' normal, '#' degraded),
  // wrapped by month.
  std::fprintf(out, "campaign calendar (.=normal  #=degraded):\n");
  int cur_month = -1;
  std::string line;
  for (std::size_t d = 0; d < result.regime.degraded.size(); ++d) {
    const TimePoint t = window.start + static_cast<TimePoint>(d) * kSecondsPerDay;
    if (t >= window.end) break;
    const CivilDateTime c = to_civil_utc(t);
    if (c.month != cur_month) {
      if (!line.empty()) std::fprintf(out, "%s\n", line.c_str());
      char label[16];
      std::snprintf(label, sizeof label, "%04d-%02d ", c.year, c.month);
      line = label;
      cur_month = c.month;
    }
    line += result.regime.degraded[d] ? '#' : '.';
  }
  if (!line.empty()) std::fprintf(out, "%s\n", line.c_str());

  const analysis::RegimeResult& regime = result.regime;
  std::fprintf(out, "\nnormal days     : %llu\n",
              static_cast<unsigned long long>(regime.normal_days));
  std::fprintf(out, "degraded days   : %llu (%.1f%%; paper: 77 = 18.1%%)\n",
              static_cast<unsigned long long>(regime.degraded_days),
              100.0 * regime.degraded_fraction());
  std::fprintf(out, "normal errors   : %llu (paper: ~50)\n",
              static_cast<unsigned long long>(regime.normal_errors));
  std::fprintf(out, "degraded errors : %llu (paper: ~5000)\n",
              static_cast<unsigned long long>(regime.degraded_errors));
  std::fprintf(out, "normal MTBF     : %.0f h (paper: 167 h)\n",
              regime.normal_mtbf_hours);
  std::fprintf(out, "degraded MTBF   : %.2f h (paper: 0.39 h)\n",
              regime.degraded_mtbf_hours);
}

void print_tab2(const std::vector<resilience::QuarantineOutcome>& sweep, FILE* out) {
  print_header(
      "Table II - quarantine sweep (Section IV)",
      "0d: 4779 errors / 2.1h MTBF ... 30d: 65 errors / 180 node-days / "
      "156.9h MTBF; ~3 orders of magnitude for <0.1% availability", out);

  TextTable table({"Quarantine (days)", "Errors", "Node-days in quarantine",
                   "System MTBF (h)", "Availability loss"});
  for (const auto& row : sweep) {
    table.add_row({std::to_string(row.period_days),
                   format_count(row.counted_errors),
                   format_fixed(row.node_days_quarantined, 0),
                   format_fixed(row.system_mtbf_hours, 1),
                   format_fixed(100.0 * row.availability_loss, 3) + "%"});
  }
  std::fprintf(out, "%s\n", table.render().c_str());

  if (sweep.size() >= 2 && sweep.front().system_mtbf_hours > 0.0) {
    const double gain =
        sweep.back().system_mtbf_hours / sweep.front().system_mtbf_hours;
    std::fprintf(out, "MTBF gain 0d -> 30d : %.0fx (paper: ~75x, 'almost three "
                "orders of magnitude' vs per-day rates)\n",
                gain);
  }
}

void print_ext_temporal(const analysis::InterArrivalStats& observed,
                        const analysis::InterArrivalStats& null_model, FILE* out) {
  print_header(
      "Extension - inter-arrival structure of the error process",
      "cv >> 1 (Poisson would be 1): errors arrive in bursts separated by "
      "long silences", out);

  TextTable table({"Quantity", "Campaign", "Poisson null"});
  auto fmt_s = [](double seconds) {
    if (seconds < 120.0) return format_fixed(seconds, 1) + " s";
    if (seconds < 7200.0) return format_fixed(seconds / 60.0, 1) + " min";
    return format_fixed(seconds / 3600.0, 1) + " h";
  };
  table.add_row({"gaps", format_count(observed.gaps),
                 format_count(null_model.gaps)});
  table.add_row({"mean gap", fmt_s(observed.mean_s), fmt_s(null_model.mean_s)});
  table.add_row({"median gap", fmt_s(observed.median_s),
                 fmt_s(null_model.median_s)});
  table.add_row({"coefficient of variation", format_fixed(observed.cv, 2),
                 format_fixed(null_model.cv, 2)});
  table.add_row({"burstiness index", format_fixed(observed.burstiness(), 3),
                 format_fixed(null_model.burstiness(), 3)});
  table.add_row({"gaps <= 1 min",
                 format_fixed(100.0 * observed.within_minute, 1) + "%",
                 format_fixed(100.0 * null_model.within_minute, 1) + "%"});
  table.add_row({"gaps <= 1 h",
                 format_fixed(100.0 * observed.within_hour, 1) + "%",
                 format_fixed(100.0 * null_model.within_hour, 1) + "%"});
  std::fprintf(out, "%s\n", table.render().c_str());

  std::fprintf(out, "(median gap of %s against a mean of %s: most errors chase a "
              "predecessor within minutes while the mean is dragged out by "
              "week-long silences - the Section III-I clustering, in one "
              "number: cv %.1f vs Poisson 1.0)\n",
              fmt_s(observed.median_s).c_str(), fmt_s(observed.mean_s).c_str(),
              observed.cv);
}

void print_ext_markov(const std::vector<bool>& days,
                      const analysis::MarkovRegimeModel& model,
                      const analysis::SpellStats& stats,
                      double empirical_degraded_fraction, FILE* out) {
  print_header(
      "Extension - Markov dynamics of the regime sequence (Fig 13)",
      "degraded spells last days, not weeks; the fitted chain reproduces "
      "the empirical spell structure", out);

  std::fprintf(out, "P(stay normal)        : %.3f\n", model.p_stay_normal);
  std::fprintf(out, "P(stay degraded)      : %.3f\n", model.p_stay_degraded);
  std::fprintf(out, "stationary degraded   : %.1f%% (empirical %.1f%%)\n",
              100.0 * model.stationary_degraded(),
              100.0 * empirical_degraded_fraction);

  TextTable table({"Quantity", "Markov fit", "Empirical"});
  table.add_row({"mean normal spell (days)",
                 format_fixed(model.mean_normal_spell_days(), 1),
                 format_fixed(stats.mean_normal_spell, 1)});
  table.add_row({"mean degraded spell (days)",
                 format_fixed(model.mean_degraded_spell_days(), 1),
                 format_fixed(stats.mean_degraded_spell, 1)});
  table.add_row({"degraded spells", "-", format_count(stats.degraded_spells)});
  table.add_row({"longest degraded spell", "-",
                 format_count(stats.longest_degraded_spell) + " days"});
  std::fprintf(out, "\n%s\n", table.render().c_str());

  // Generative check: synthetic campaigns from the fitted chain.
  RngStream rng(99);
  RunningStats synthetic;
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<bool> sim = model.simulate(days.size(), rng);
    std::size_t degraded = 0;
    for (const bool d : sim) degraded += d;
    synthetic.add(100.0 * static_cast<double>(degraded) /
                  static_cast<double>(sim.size()));
  }
  std::fprintf(out, "synthetic campaigns   : degraded %.1f%% +/- %.1f%% "
              "(200 samples from the fitted chain)\n",
              synthetic.mean(), synthetic.stddev());
  std::fprintf(out, "\n(mean degraded spell ~%.0f days: once a node misbehaves, "
              "expect days of trouble - the empirical footing for multi-day "
              "quarantine periods in Table II)\n",
              stats.mean_degraded_spell);
}

void print_ext_alignment(const analysis::AlignmentStats& stats,
                         const analysis::LogicalSpread& spread, FILE* out) {
  print_header(
      "Extension - physical alignment of simultaneous corruptions",
      "multi-word groups project onto shared rows; the controller's "
      "interleaving scatters them across logical addresses", out);

  TextTable table({"Geometry", "Groups", "Share"});
  auto add = [&](const char* name, std::uint64_t count) {
    table.add_row({name, format_count(count),
                   format_fixed(100.0 * static_cast<double>(count) /
                                    static_cast<double>(stats.groups_examined),
                                1) + "%"});
  };
  add("same row (rank+bank+row)", stats.same_row);
  add("same column (rank+bank+col)", stats.same_column);
  add("same bank, mixed row/col", stats.same_bank);
  add("scattered across banks", stats.scattered);
  add("contains a same-row pair", stats.with_aligned_pair);
  std::fprintf(out, "multi-word simultaneous groups: %s\n\n%s\n",
              format_count(stats.groups_examined).c_str(),
              table.render().c_str());

  std::fprintf(out, "mean logical span inside a group : %.1f MB\n",
              spread.mean_span_bytes / (1 << 20));
  std::fprintf(out, "max logical span inside a group  : %.1f MB\n",
              static_cast<double>(spread.max_span_bytes) / (1 << 20));
  std::fprintf(out, 
      "\n(%.1f%% of groups are entirely one row; %.1f%% contain a same-row "
      "pair - random rows essentially never collide, so each pair marks a "
      "physically aligned burst.  The cells are close; their logical "
      "addresses sit megabytes apart: the paper's suspicion, now measured.)\n",
      100.0 * stats.aligned_fraction(),
      100.0 * static_cast<double>(stats.with_aligned_pair) /
          static_cast<double>(stats.groups_examined));
}

void print_ext_ecc(const analysis::ExtractionResult& extraction, FILE* out) {
  print_header(
      "Extension - ECC evaluation engine, population replay",
      "every extracted fault mask decoded by each code; outcomes per code "
      "and per corruption-multiplicity class (unp_ecc drives the same "
      "engine standalone)", out);

  std::vector<Word> masks;
  masks.reserve(extraction.faults.size());
  for (const auto& f : extraction.faults) masks.push_back(f.flip_mask());
  const ecc::MaskCensus census = ecc::mask_census(masks);

  std::vector<ecc::PopulationResult> results;
  std::vector<ecc::CodeGeometry> geometries;
  for (const auto& code : ecc::default_codes()) {
    results.push_back(ecc::evaluate_population(*code, census));
    geometries.push_back(code->geometry());
  }

  TextTable table({"Code", "Bits", "Overhead", "Correct", "Miscorrect",
                   "Detected", "SDC", "Silent"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const ecc::VerdictCounts total = r.total();
    table.add_row(
        {r.code, std::to_string(geometries[i].codeword_bits),
         format_fixed(100.0 * geometries[i].overhead_fraction(), 1) + "%",
         format_count(total.correct), format_count(total.miscorrect),
         format_count(total.detect_only), format_count(total.sdc),
         format_fixed(100.0 * r.silent_fraction(), 3) + "%"});
  }
  std::fprintf(out, "faults replayed: %s\n\n%s\n",
               format_count(results.empty() ? 0 : results.front().faults).c_str(),
               table.render().c_str());

  TextTable by_class({"Code", "single", "double", "few(3-8)", "many(>8)"});
  for (const auto& r : results) {
    std::vector<std::string> row{r.code};
    for (const ecc::VerdictCounts& counts : r.by_class) {
      row.push_back(format_count(counts.silent()) + "/" +
                    format_count(counts.total()));
    }
    by_class.add_row(row);
  }
  std::fprintf(out,
               "silent (miscorrect+SDC) / faults, by corruption class:\n\n%s\n",
               by_class.render().c_str());

  std::fprintf(out,
      "(single-bit faults are universally repaired; the codes separate on "
      "the multi-bit tail - SECDED's weight>=3 miscorrections vs chipkill's "
      "symbol confinement vs the large-codeword BCH points.  unp_ecc "
      "--exhaustive enumerates the full upset spaces behind these rates.)\n");
}

void print_ext_hammer(const analysis::HammerCensusSet& census, FILE* out) {
  print_header(
      "Extension - Rowhammer victim-row census",
      "observed faults re-clustered into DRAM (bank,row) coordinates; rows "
      "with >=3 distinct faulted words inside 6h are access-dependent "
      "signatures (time-driven mechanisms scatter over ~2^21 rows)", out);

  // Per-geometry clustering comparison: the SAME fault stream decoded under
  // each menu geometry (word indices folded into smaller address spaces, so
  // every geometry sees every fault).  Only mappings whose row bits isolate
  // the true physical neighborhoods concentrate faults onto few rows.
  TextTable table({"Geometry", "Rows trig", "Nodes", "Absorbable",
                   "Max words/row"});
  for (const auto& sink : census.geometries) {
    const analysis::HammerCensus& c = sink->census();
    table.add_row({sink->geometry(), format_count(c.rows_triggered),
                   format_count(c.nodes_triggered), format_count(c.absorbable),
                   std::to_string(c.max_words)});
  }
  std::fprintf(out, "per-geometry detector replay (folded decode):\n\n%s\n",
               table.render().c_str());

  // Detected-row ledger under the primary geometry, in trigger order per
  // node (node-ordered across the fleet for determinism).
  const analysis::HammerCensus& ledger = census.ledger.census();
  const auto format_utc = [](TimePoint t) {
    const CivilDateTime c = to_civil_utc(t);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%04d-%02d-%02d %02d:%02d", c.year, c.month,
                  c.day, c.hour, c.minute);
    return std::string(buf);
  };
  TextTable rows({"Node", "Bank", "Row", "Trigger (UTC)", "Words"});
  for (const analysis::HammerLedgerRow& entry : ledger.ledger) {
    if (rows.row_count() == 40) break;
    const faults::hammer::DetectedRow& d = entry.row;
    rows.add_row({cluster::node_name(cluster::node_from_index(entry.node_index)),
                  std::to_string(d.bank), std::to_string(d.row),
                  format_utc(d.trigger_time), std::to_string(d.distinct_words)});
  }
  const auto total_rows =
      static_cast<unsigned long long>(ledger.ledger.size());
  std::fprintf(out, "victim rows under lpddr3:mb (first 40 of %llu):\n\n%s\n",
               total_rows, rows.render().c_str());
  std::fprintf(out, "victim rows detected           : %llu\n", total_rows);
  std::fprintf(out, "faults a retirement would absorb: %llu\n",
               static_cast<unsigned long long>(ledger.absorbable));
  std::fprintf(out,
      "(dense non-hammer regions - degrading and stuck clusters - also "
      "appear here; the --hammer campaign adds the sharply clustered victim "
      "rows, and unp_hammer --mitigate separates the two against ground "
      "truth.  The census matches the rows the mitigation loop retires "
      "because both replay the same detector over the observed stream.)\n");
}

}  // namespace unp::bench
