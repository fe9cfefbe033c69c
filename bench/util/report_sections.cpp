#include "util/report_sections.hpp"

#include "util/figures.hpp"

namespace unp::bench {

std::span<const ExtSection> ext_sections() noexcept {
  static constexpr ExtSection kExtSections[] = {
      {"temporal", kExtTemporal}, {"markov", kExtMarkov},
      {"alignment", kExtAlignment}, {"ecc", kExtEcc},
      {"hammer", kExtHammer},
  };
  return kExtSections;
}

const ExtSection* find_ext_section(std::string_view name) noexcept {
  for (const ExtSection& ext : ext_sections())
    if (name == ext.name) return &ext;
  return nullptr;
}

ReportAnalyzers::ReportAnalyzers(const bool (&wanted)[kSectionCount])
    : address_map_(dram::default_geometry()), alignment_(address_map_) {
  for (int s = 0; s < kSectionCount; ++s) want_[s] = wanted[s];
  const auto add_sink = [this](bool needed, const char* label,
                               analysis::FaultSink* sink) {
    if (!needed) return;
    sinks_.push_back(sink);
    labels_.push_back(label);
  };
  // The six census passes (~10 ms each on seed 42) are among the costliest
  // sinks, and parallel_for hands out indices in order, so they go first.
  if (want(kExtHammer)) {
    hammer_.emplace();
    for (const auto& sink : hammer_->geometries)
      add_sink(true, sink->label(), sink.get());
    add_sink(true, hammer_->ledger.label(), &hammer_->ledger);
  }
  add_sink(want(kFig03), "errors-grid", &errors_grid_);
  add_sink(want(kTab1), "multibit-patterns", &patterns_);
  add_sink(want(kTab1), "adjacency", &adjacency_);
  add_sink(want(kTab1), "direction", &direction_);
  add_sink(want(kFig04), "grouping", &grouping_);
  add_sink(want(kFig05) || want(kFig06), "hour-of-day", &hourly_);
  add_sink(want(kFig07) || want(kFig08), "temperature", &temperature_);
  add_sink(want(kFig10), "daily-errors", &daily_);
  add_sink(want(kFig12), "top-nodes", &top_nodes_);
  add_sink(want(kFig12), "node-patterns", &node_patterns_);
  add_sink(want(kFig13), "regime", &regime_);
  add_sink(want(kExtTemporal), "interarrival", &interarrival_);
  add_sink(want(kExtMarkov), "regime-dynamics", &dynamics_);
  add_sink(want(kExtAlignment), "alignment", &alignment_);
}

void ReportAnalyzers::render(const ReportInputs& in, FILE* out) {
  if (want(kHeadline)) {
    print_headline(
        analysis::headline_stats(in.total_hours, in.total_terabyte_hours,
                                 in.monitored_nodes, in.window, *in.extraction),
        *in.extraction, out);
  }
  if (want(kFig01)) print_fig01(*in.hours, out);
  if (want(kFig02)) print_fig02(*in.hours, *in.terabyte_hours, out);
  if (want(kFig03)) print_fig03(errors_grid_.grid(), out);
  if (want(kTab1))
    print_tab1(patterns_.patterns(), adjacency_.stats(), direction_.stats(), out);
  if (want(kFig04)) {
    print_fig04(grouping_.viewpoints(), grouping_.co_occurrence(), out);
  }
  if (want(kFig05)) print_fig05(hourly_.profile(), out);
  if (want(kFig06)) print_fig06(hourly_.profile(), out);
  if (want(kFig07)) print_fig07(temperature_.profile(), out);
  if (want(kFig08)) print_fig08(temperature_.profile(), out);
  if (want(kFig09)) print_fig09(in.daily_terabyte_hours, in.window, out);
  if (want(kFig10)) {
    print_fig10(daily_.series(),
                analysis::scan_error_correlation(in.daily_terabyte_hours,
                                                 daily_.series()),
                in.window, out);
  }
  if (want(kFig11)) print_fig11(in.extraction->faults, in.window, out);
  if (want(kFig12)) {
    std::vector<analysis::NodePatternProfile> profiles;
    for (const auto& node : top_nodes_.series().nodes)
      profiles.push_back(node_patterns_.profile(node));
    print_fig12(top_nodes_.series(), profiles, in.window, out);
  }
  if (want(kFig13)) print_fig13(regime_.result(), in.window, out);
  if (want(kExtTemporal)) {
    print_ext_temporal(
        interarrival_.stats(),
        analysis::poisson_reference(interarrival_.stats().gaps + 1,
                                    in.window.duration_seconds(), 17),
        out);
  }
  if (want(kExtMarkov)) {
    print_ext_markov(dynamics_.days(), dynamics_.model(), dynamics_.spells(),
                     dynamics_.regime().regime.degraded_fraction(), out);
  }
  if (want(kExtAlignment))
    print_ext_alignment(alignment_.stats(), alignment_.spread(), out);
  // No sink: the ECC engine replays the finished extraction's masks
  // directly, so the section is identical on live, store, and aggregate
  // paths by construction.
  if (want(kExtEcc)) print_ext_ecc(*in.extraction, out);
  if (want(kExtHammer)) print_ext_hammer(*hammer_, out);
}

}  // namespace unp::bench
