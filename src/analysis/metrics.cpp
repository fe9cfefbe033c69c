#include "analysis/metrics.hpp"

#include <algorithm>

#include "analysis/sink_state.hpp"
#include "common/require.hpp"

namespace unp::analysis {

const char* bit_class_label(int klass) noexcept {
  switch (klass) {
    case 0: return "1";
    case 1: return "2";
    case 2: return "3";
    case 3: return "4";
    case 4: return "5";
    case 5: return "6+";
  }
  return "?";
}

namespace {

Grid2D node_grid() {
  return Grid2D(static_cast<std::size_t>(cluster::kStudyBlades),
                static_cast<std::size_t>(cluster::kSocsPerBlade));
}

std::size_t series_days(const CampaignWindow& window) {
  return static_cast<std::size_t>(window.duration_days()) + 2;
}

}  // namespace

Grid2D errors_grid(FaultView faults) {
  ErrorsGridAnalyzer analyzer;
  analyzer.begin_faults({});
  for (const auto& f : faults) analyzer.on_fault(f);
  return analyzer.grid();
}

std::uint64_t HourOfDayProfile::total(int hour) const noexcept {
  std::uint64_t sum = 0;
  for (int c = 0; c < kBitClasses; ++c)
    sum += counts[static_cast<std::size_t>(hour)][static_cast<std::size_t>(c)];
  return sum;
}

std::uint64_t HourOfDayProfile::multibit(int hour) const noexcept {
  std::uint64_t sum = 0;
  for (int c = 1; c < kBitClasses; ++c)
    sum += counts[static_cast<std::size_t>(hour)][static_cast<std::size_t>(c)];
  return sum;
}

double HourOfDayProfile::day_night_ratio_multibit() const noexcept {
  double day = 0.0, night = 0.0;
  for (int h = 0; h < 24; ++h) {
    const auto v = static_cast<double>(multibit(h));
    if (h >= 7 && h <= 18) {
      day += v;
    } else {
      night += v;
    }
  }
  // Normalize per hour: the day window spans 12 hours, the night 12.
  return night > 0.0 ? day / night : 0.0;
}

HourOfDayProfile hour_of_day_profile(FaultView faults) {
  HourOfDayAnalyzer analyzer;
  analyzer.begin_faults({});
  for (const auto& f : faults) analyzer.on_fault(f);
  return analyzer.profile();
}

TemperatureProfile::TemperatureProfile() {
  by_class.reserve(kBitClasses);
  for (int c = 0; c < kBitClasses; ++c) {
    by_class.emplace_back(kLoC, kHiC, kBins);
  }
}

TemperatureProfile temperature_profile(FaultView faults) {
  TemperatureAnalyzer analyzer;
  analyzer.begin_faults({});
  for (const auto& f : faults) analyzer.on_fault(f);
  return analyzer.profile();
}

DailyTerabyteHours::DailyTerabyteHours(const CampaignWindow& window,
                                       std::vector<double>& series)
    : first_day_(BarcelonaClock::local_day_index(window.start)),
      year_(BarcelonaYear::containing(window.start)),
      series_(&series) {}

void DailyTerabyteHours::add(const telemetry::StartRecord& start,
                             const telemetry::EndRecord& end) {
  // The campaign's first local day and the current UTC year's DST window
  // are computed once, not per chunk; each chunk's value and the order of
  // the additions are those of the per-chunk BarcelonaClock formula, so the
  // doubles come out bit-identical.
  std::vector<double>& series = *series_;
  const double tb =
      static_cast<double>(start.allocated_bytes) / telemetry::kBytesPerTb;
  // Walk only the series' days, so a session whose START and END lie far
  // apart (a corrupt cache frame can decode to any pair) costs no more
  // than the campaign.  `from` lies in the local day before the series'
  // first and `until` in a local day past its last: the skipped chunks
  // fall outside the series, and chunks always break at local midnight, so
  // the chunks inside it are unchanged.
  const std::int64_t days = static_cast<std::int64_t>(series.size());
  const TimePoint from = (first_day_ - 1) * kSecondsPerDay;
  const TimePoint until = (first_day_ + days + 1) * kSecondsPerDay;
  const TimePoint stop = std::min(end.time, until);
  TimePoint t = std::max(start.time, from);
  while (t < stop) {
    if (!year_.contains(t)) year_ = BarcelonaYear::containing(t);
    const std::int64_t local = t + year_.utc_offset(t);
    const std::int64_t local_day = day_of_local(local);
    const std::int64_t day = local_day - first_day_;
    // End of the local day containing t.
    const TimePoint local_midnight =
        t + ((local_day + 1) * kSecondsPerDay - local);
    const TimePoint chunk_end = std::min(stop, local_midnight);
    if (day >= 0 && static_cast<std::size_t>(day) < series.size()) {
      series[static_cast<std::size_t>(day)] +=
          tb * static_cast<double>(chunk_end - t) / kSecondsPerHour;
    }
    t = chunk_end;
  }
}

void accumulate_daily_terabyte_hours(const telemetry::NodeLog& log,
                                     const CampaignWindow& window,
                                     std::vector<double>& series) {
  DailyTerabyteHours split(window, series);
  log.for_each_session(
      [&](const telemetry::StartRecord& start, const telemetry::EndRecord& end) {
        split.add(start, end);
      });
}

DailyErrorSeries daily_errors(FaultView faults, const CampaignWindow& window) {
  DailyErrorsAnalyzer analyzer;
  analyzer.begin_faults({window});
  for (const auto& f : faults) analyzer.on_fault(f);
  return analyzer.series();
}

TopNodeSeries top_node_series(FaultView faults, const CampaignWindow& window,
                              std::size_t top) {
  TopNodeAnalyzer analyzer(top);
  analyzer.begin_faults({window});
  for (const auto& f : faults) analyzer.on_fault(f);
  analyzer.end_faults();
  return analyzer.series();
}

PearsonResult scan_error_correlation(std::span<const double> daily_tbh,
                                     const DailyErrorSeries& errors) {
  const std::size_t days = std::min(daily_tbh.size(), errors.size());
  std::vector<double> x(days), y(days);
  for (std::size_t d = 0; d < days; ++d) {
    x[d] = daily_tbh[d];
    std::uint64_t total = 0;
    for (int c = 0; c < kBitClasses; ++c)
      total += errors[d][static_cast<std::size_t>(c)];
    y[d] = static_cast<double>(total);
  }
  return pearson(x, y);
}

HeadlineStats headline_stats(double monitored_node_hours, double terabyte_hours,
                             int monitored_nodes, const CampaignWindow& window,
                             const ExtractionResult& extraction) {
  HeadlineStats stats;
  stats.raw_logs = extraction.total_raw_logs;
  stats.removed_fraction = extraction.removed_fraction();
  stats.independent_faults = extraction.faults.size();
  stats.monitored_node_hours = monitored_node_hours;
  stats.terabyte_hours = terabyte_hours;
  stats.monitored_nodes = monitored_nodes;
  if (stats.independent_faults > 0) {
    stats.node_mtbf_hours = stats.monitored_node_hours /
                            static_cast<double>(stats.independent_faults);
    stats.cluster_mtbe_minutes =
        static_cast<double>(window.duration_seconds()) / 60.0 /
        static_cast<double>(stats.independent_faults);
  }
  return stats;
}

// --- Streaming analyzers --------------------------------------------------

ScanProfileSink::ScanProfileSink() : hours_(node_grid()), tbh_(node_grid()) {}

void ScanProfileSink::begin_campaign(const CampaignWindow& window) {
  window_ = window;
  hours_ = node_grid();
  tbh_ = node_grid();
  daily_tbh_.assign(series_days(window), 0.0);
  total_hours_ = 0.0;
  total_tbh_ = 0.0;
  monitored_nodes_ = 0;
  pending_ = telemetry::NodeLog{};
}

void ScanProfileSink::begin_node(cluster::NodeId /*node*/) {
  pending_ = telemetry::NodeLog{};
  bulk_ = false;
}

void ScanProfileSink::on_start(const telemetry::StartRecord& r) {
  pending_.add_start(r);
}

void ScanProfileSink::on_end(const telemetry::EndRecord& r) {
  pending_.add_end(r);
}

void ScanProfileSink::on_node_log(telemetry::EncodedNodeLog& log) {
  add_node(log.node(), log.sessions());
  bulk_ = true;
}

void ScanProfileSink::end_node(cluster::NodeId node) {
  if (!bulk_) add_node(node, pending_);
  bulk_ = false;
  pending_ = telemetry::NodeLog{};
}

void ScanProfileSink::add_node(cluster::NodeId node,
                               const telemetry::NodeLog& log) {
  // One walk over the node's sessions feeds all three products; each sum
  // adds the same per-session terms in the same order as monitored_hours,
  // terabyte_hours and accumulate_daily_terabyte_hours.
  if (daily_tbh_.empty()) daily_tbh_.assign(series_days(window_), 0.0);
  DailyTerabyteHours split(window_, daily_tbh_);
  double hours = 0.0;
  double tbh = 0.0;
  log.for_each_session(
      [&](const telemetry::StartRecord& start, const telemetry::EndRecord& end) {
        hours += telemetry::NodeLog::session_hours(start, end);
        tbh += telemetry::NodeLog::session_terabyte_hours(start, end);
        split.add(start, end);
      });
  hours_.at(static_cast<std::size_t>(node.blade),
            static_cast<std::size_t>(node.soc)) = hours;
  tbh_.at(static_cast<std::size_t>(node.blade),
          static_cast<std::size_t>(node.soc)) = tbh;
  // Nodes stream in ascending index order, so these running sums add the
  // per-node terms in node-slot order whatever the producer's thread count.
  total_hours_ += hours;
  total_tbh_ += tbh;
  if (hours > 0.0) ++monitored_nodes_;
}

ErrorsGridAnalyzer::ErrorsGridAnalyzer() : grid_(node_grid()) {}

void ErrorsGridAnalyzer::begin_faults(const FaultStreamContext& /*ctx*/) {
  grid_ = node_grid();
}

void ErrorsGridAnalyzer::on_fault(const FaultRecord& fault) {
  grid_.at(static_cast<std::size_t>(fault.node.blade),
           static_cast<std::size_t>(fault.node.soc)) += 1.0;
}

std::string ErrorsGridAnalyzer::serialize_state() const {
  // Cells are whole counts held as doubles, so the cell-wise sum below is
  // exact and shard order cannot perturb it.
  state::Writer w('G');
  for (std::size_t r = 0; r < grid_.rows(); ++r)
    for (std::size_t c = 0; c < grid_.cols(); ++c) w.put_f64(grid_.at(r, c));
  return std::move(w).take();
}

void ErrorsGridAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'G', "ErrorsGridAnalyzer");
  for (std::size_t row = 0; row < grid_.rows(); ++row)
    for (std::size_t col = 0; col < grid_.cols(); ++col)
      grid_.at(row, col) += r.get_f64();
  r.finish();
}

void HourOfDayAnalyzer::begin_faults(const FaultStreamContext& /*ctx*/) {
  profile_ = HourOfDayProfile{};
}

void HourOfDayAnalyzer::on_fault(const FaultRecord& fault) {
  const auto hour =
      static_cast<std::size_t>(BarcelonaClock::local_hour(fault.first_seen));
  const auto klass = static_cast<std::size_t>(bit_class(fault.flipped_bits()));
  ++profile_.counts[hour][klass];
}

std::string HourOfDayAnalyzer::serialize_state() const {
  state::Writer w('H');
  for (const auto& hour : profile_.counts)
    for (const auto count : hour) w.put_u64(count);
  return std::move(w).take();
}

void HourOfDayAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'H', "HourOfDayAnalyzer");
  for (auto& hour : profile_.counts)
    for (auto& count : hour) count += r.get_u64();
  r.finish();
}

void TemperatureAnalyzer::begin_faults(const FaultStreamContext& /*ctx*/) {
  profile_ = TemperatureProfile{};
}

void TemperatureAnalyzer::on_fault(const FaultRecord& fault) {
  if (!telemetry::has_temperature(fault.temperature_c)) {
    ++profile_.without_reading;
    return;
  }
  profile_.by_class[static_cast<std::size_t>(bit_class(fault.flipped_bits()))]
      .add(fault.temperature_c);
}

std::string TemperatureAnalyzer::serialize_state() const {
  state::Writer w('T');
  for (const auto& hist : profile_.by_class) {
    for (std::size_t b = 0; b < hist.bins(); ++b) w.put_u64(hist.count(b));
    w.put_u64(hist.underflow());
    w.put_u64(hist.overflow());
  }
  w.put_u64(profile_.without_reading);
  return std::move(w).take();
}

void TemperatureAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'T', "TemperatureAnalyzer");
  for (auto& hist : profile_.by_class) {
    // Re-add through the bin centers: weight-preserving and exact, without
    // widening Histogram1D's interface.
    for (std::size_t b = 0; b < hist.bins(); ++b)
      hist.add(hist.bin_center(b), r.get_u64());
    hist.add(TemperatureProfile::kLoC - 1.0, r.get_u64());  // underflow
    hist.add(TemperatureProfile::kHiC, r.get_u64());        // overflow
  }
  profile_.without_reading += r.get_u64();
  r.finish();
}

void DailyErrorsAnalyzer::begin_faults(const FaultStreamContext& ctx) {
  window_ = ctx.window;
  series_.assign(series_days(window_),
                 std::array<std::uint64_t, kBitClasses>{});
}

void DailyErrorsAnalyzer::on_fault(const FaultRecord& fault) {
  const std::int64_t day = window_.day_of_campaign(fault.first_seen);
  if (day < 0 || static_cast<std::size_t>(day) >= series_.size()) return;
  ++series_[static_cast<std::size_t>(day)]
          [static_cast<std::size_t>(bit_class(fault.flipped_bits()))];
}

std::string DailyErrorsAnalyzer::serialize_state() const {
  state::Writer w('D');
  w.put_u64(series_.size());
  for (const auto& day : series_)
    for (const auto count : day) w.put_u64(count);
  return std::move(w).take();
}

void DailyErrorsAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'D', "DailyErrorsAnalyzer");
  const std::uint64_t days = r.get_u64();
  UNP_REQUIRE(days == series_.size());  // same campaign window on both sides
  for (auto& day : series_)
    for (auto& count : day) count += r.get_u64();
  r.finish();
}

void TopNodeAnalyzer::begin_faults(const FaultStreamContext& ctx) {
  window_ = ctx.window;
  days_ = series_days(window_);
  totals_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots), 0);
  counts_.assign(static_cast<std::size_t>(cluster::kStudyNodeSlots) * days_, 0);
  series_ = TopNodeSeries{};
}

void TopNodeAnalyzer::on_fault(const FaultRecord& fault) {
  const auto node = static_cast<std::size_t>(cluster::node_index(fault.node));
  ++totals_[node];
  const std::int64_t day = window_.day_of_campaign(fault.first_seen);
  if (day < 0 || static_cast<std::size_t>(day) >= days_) return;
  ++counts_[node * days_ + static_cast<std::size_t>(day)];
}

std::string TopNodeAnalyzer::serialize_state() const {
  state::Writer w('N');
  w.put_u64(days_);
  for (const auto total : totals_) w.put_u64(total);
  for (const auto count : counts_) w.put_u64(count);
  return std::move(w).take();
}

void TopNodeAnalyzer::merge_state(const std::string& blob) {
  state::Reader r(blob, 'N', "TopNodeAnalyzer");
  const std::uint64_t days = r.get_u64();
  UNP_REQUIRE(days == days_);  // same campaign window on both sides
  for (auto& total : totals_) total += r.get_u64();
  for (auto& count : counts_) count += r.get_u64();
  r.finish();
}

void TopNodeAnalyzer::end_faults() {
  std::vector<int> order(static_cast<std::size_t>(cluster::kStudyNodeSlots));
  for (int i = 0; i < cluster::kStudyNodeSlots; ++i)
    order[static_cast<std::size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return totals_[static_cast<std::size_t>(a)] >
           totals_[static_cast<std::size_t>(b)];
  });

  series_ = TopNodeSeries{};
  for (std::size_t k = 0; k < top_ && k < order.size(); ++k) {
    const int idx = order[k];
    if (totals_[static_cast<std::size_t>(idx)] == 0) break;
    series_.nodes.push_back(cluster::node_from_index(idx));
    series_.node_totals.push_back(totals_[static_cast<std::size_t>(idx)]);
    auto& per_day = series_.per_day.emplace_back(days_, 0);
    for (std::size_t d = 0; d < days_; ++d)
      per_day[d] = counts_[static_cast<std::size_t>(idx) * days_ + d];
  }

  series_.rest_per_day.assign(days_, 0);
  for (std::size_t node = 0;
       node < static_cast<std::size_t>(cluster::kStudyNodeSlots); ++node) {
    bool in_top = false;
    for (const auto& id : series_.nodes) {
      if (static_cast<std::size_t>(cluster::node_index(id)) == node) {
        in_top = true;
        break;
      }
    }
    if (in_top) continue;
    for (std::size_t d = 0; d < days_; ++d)
      series_.rest_per_day[d] += counts_[node * days_ + d];
  }
  for (const auto v : series_.rest_per_day) series_.rest_total += v;
}

}  // namespace unp::analysis
