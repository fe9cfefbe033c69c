#include "policy/loop.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/node_log.hpp"

namespace unp::policy {

namespace {

/// Page (4 KiB) of a scan-space word: virtual address is word_index * 8.
std::uint64_t page_of_word(std::uint64_t word_index) noexcept {
  return word_index >> 9;
}

/// Everything one node's closed loop produced.
struct NodeOutcome {
  std::vector<Actuation> actuations;
  std::vector<std::int64_t> fault_days;  ///< campaign day of each final fault
  std::uint64_t closed_faults = 0;
  std::int64_t quarantined_seconds = 0;
  std::int64_t scan_seconds_removed = 0;
  std::uint64_t entries = 0;
  std::uint64_t pages_retired = 0;
  int rounds = 0;
};

NodeOutcome run_node_loop(const ClosedLoopConfig& config,
                          const CampaignWindow& window, cluster::NodeId node,
                          sched::ScanPlan plan,
                          std::vector<faults::FaultEvent> events,
                          std::uint64_t session_seed) {
  const ThresholdQuarantinePolicy::Config& ctl = config.controller;
  const bool overheating = cluster::Topology::is_overheating_slot(node);

  NodeOutcome out;
  std::set<TimePoint> applied_cuts;
  std::set<std::uint64_t> retired_pages;

  std::vector<analysis::FaultRecord> faults;
  while (true) {
    ++out.rounds;
    const telemetry::NodeLog log = sim::simulate_node(
        config.campaign.session, node, plan, events, overheating, session_seed);
    faults = analysis::collapse_node_log(node, log,
                                         config.extraction.merge_window_s);

    if (static_cast<int>(out.actuations.size()) >=
        config.max_actuations_per_node) {
      break;
    }

    // Replay the threshold controller over what this round observed; stop at
    // the first actuation not applied yet, apply it, re-simulate.
    bool actuated = false;
    TimePoint until = 0;
    std::int64_t counting_day = -1;
    std::uint64_t errors_today = 0;
    std::map<std::uint64_t, std::uint64_t> addr_seen;
    for (const auto& f : faults) {
      if (ctl.period_days > 0 && f.first_seen < until) continue;
      const std::int64_t day = window.day_of_campaign(f.first_seen);
      if (day != counting_day) {
        counting_day = day;
        errors_today = 0;
      }
      ++errors_today;

      if (ctl.retire_page_repeats > 0 &&
          ++addr_seen[f.virtual_address] >= ctl.retire_page_repeats) {
        const std::uint64_t page = f.virtual_address >> 12;
        if (retired_pages.insert(page).second) {
          for (auto& ev : events) {
            std::erase_if(ev.words, [&](const faults::WordFault& w) {
              return page_of_word(w.word_index) == page;
            });
          }
          std::erase_if(events, [](const faults::FaultEvent& ev) {
            return ev.words.empty();
          });
          Actuation act;
          act.node = node;
          act.cut = {f.first_seen, f.first_seen};
          act.retired_page = page;
          act.is_retirement = true;
          out.actuations.push_back(act);
          ++out.pages_retired;
          actuated = true;
          break;
        }
      }

      if (ctl.period_days > 0 && errors_today > ctl.trigger_threshold) {
        const TimePoint until_q = std::min(
            window.end, f.first_seen + static_cast<TimePoint>(ctl.period_days) *
                                           kSecondsPerDay);
        if (applied_cuts.insert(f.first_seen).second) {
          // Cut one second AFTER the trigger so the evidence that produced
          // the decision survives re-simulation (convergence note on top).
          Actuation act;
          act.node = node;
          act.cut = {f.first_seen + 1, until_q};
          act.summary = plan.subtract_window(act.cut, config.min_keep_seconds);
          out.scan_seconds_removed += act.summary.seconds_removed;
          out.quarantined_seconds += until_q - f.first_seen;
          ++out.entries;
          out.actuations.push_back(act);
          actuated = true;
          break;
        }
        until = until_q;  // already actuated: keep suppressing past it
      }
    }
    if (!actuated) break;
  }

  out.closed_faults = faults.size();
  out.fault_days.reserve(faults.size());
  for (const auto& f : faults) {
    out.fault_days.push_back(window.day_of_campaign(f.first_seen));
  }
  return out;
}

}  // namespace

ClosedLoopResult run_closed_loop(const ClosedLoopConfig& config) {
  UNP_REQUIRE(config.threads >= 1);
  UNP_REQUIRE(config.controller.period_days >= 0);
  const sim::CampaignConfig& cc = config.campaign;
  const CampaignWindow& window = cc.window;

  std::unique_ptr<ThreadPool> pool;
  if (config.threads > 1) pool = std::make_unique<ThreadPool>(config.threads);
  auto run_parallel = [&](std::size_t count, auto&& fn) {
    if (pool) {
      pool->parallel_for(count, fn);
    } else {
      for (std::size_t i = 0; i < count; ++i) fn(i);
    }
  };

  // The open-loop campaign's own plans and ground truth (campaign.hpp).
  const sim::CampaignPlan campaign = sim::plan_campaign(cc, pool.get());
  const auto& nodes = campaign.topology.monitored_nodes();
  const std::size_t n = nodes.size();
  const std::vector<sched::ScanPlan>& plans = campaign.plans;
  std::vector<std::vector<faults::FaultEvent>> events(n);
  for (std::size_t i = 0; i < n; ++i) events[i] = campaign.events_of(nodes[i]);
  const std::uint64_t session_seed = campaign.session_seed;

  // Open-loop observation: what the unactuated campaign saw per node.
  std::vector<std::vector<analysis::FaultRecord>> open_faults(n);
  std::vector<std::uint64_t> raw(n, 0);
  run_parallel(n, [&](std::size_t i) {
    const cluster::NodeId node = nodes[i];
    const telemetry::NodeLog log = sim::simulate_node(
        cc.session, node, plans[i], events[i],
        cluster::Topology::is_overheating_slot(node), session_seed);
    raw[i] = log.raw_error_count();
    open_faults[i] =
        analysis::collapse_node_log(node, log, config.extraction.merge_window_s);
  });

  // Exclusions, resolved exactly as the extraction + regime analyses do:
  // pathological filter on raw totals, then the loudest surviving node.
  ClosedLoopResult result;
  std::uint64_t raw_total = 0;
  for (std::size_t i = 0; i < n; ++i) raw_total += raw[i];
  std::vector<bool> excluded(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (analysis::is_pathological(raw[i], raw_total, config.extraction)) {
      excluded[i] = true;
      result.excluded_nodes.push_back(nodes[i]);
    }
  }
  std::size_t loudest = n;
  std::uint64_t loudest_count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (excluded[i]) continue;
    if (open_faults[i].size() > loudest_count) {
      loudest_count = open_faults[i].size();
      loudest = i;
    }
  }
  if (loudest < n && loudest_count > 0) {
    excluded[loudest] = true;
    result.excluded_nodes.push_back(nodes[loudest]);
  }

  // Closed loop, node by node (timelines are independent, so this runs on
  // any thread count with identical results).
  std::vector<NodeOutcome> outcomes(n);
  run_parallel(n, [&](std::size_t i) {
    if (excluded[i] || open_faults[i].empty()) return;
    outcomes[i] = run_node_loop(config, window, nodes[i], plans[i],
                                std::move(events[i]), session_seed);
  });

  // Fleet aggregation, in node order for determinism.
  const auto days =
      static_cast<std::size_t>(window.duration_days()) + 2;
  std::vector<std::uint64_t> errors_per_day(days, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (excluded[i]) continue;
    result.open_loop_errors += open_faults[i].size();
    const NodeOutcome& out = outcomes[i];
    result.closed_loop_errors += out.closed_faults;
    result.quarantine_entries += out.entries;
    result.pages_retired += out.pages_retired;
    result.quarantined_seconds += out.quarantined_seconds;
    result.scan_seconds_removed += out.scan_seconds_removed;
    for (const std::int64_t day : out.fault_days) {
      if (day < 0 || static_cast<std::size_t>(day) >= days) continue;
      ++errors_per_day[static_cast<std::size_t>(day)];
    }
    for (const auto& act : out.actuations) result.actuations.push_back(act);
    if (!open_faults[i].empty() || !out.actuations.empty()) {
      result.per_node.push_back(ClosedLoopNodeReport{
          nodes[i], open_faults[i].size(), out.closed_faults,
          static_cast<int>(out.actuations.size()), out.rounds});
    }
  }

  const double campaign_hours =
      static_cast<double>(window.duration_seconds()) / kSecondsPerHour;
  result.open_mtbf_hours =
      result.open_loop_errors > 0
          ? campaign_hours / static_cast<double>(result.open_loop_errors)
          : campaign_hours;
  result.closed_mtbf_hours =
      result.closed_loop_errors > 0
          ? campaign_hours / static_cast<double>(result.closed_loop_errors)
          : campaign_hours;
  result.node_days_quarantined =
      static_cast<double>(result.quarantined_seconds) / kSecondsPerDay;
  result.availability_loss =
      result.node_days_quarantined /
      (static_cast<double>(cluster::kStudyNodeSlots) *
       static_cast<double>(window.duration_days()));

  result.regime = analysis::classify_daily_counts(
      errors_per_day, config.controller.trigger_threshold);
  result.checkpoint = resilience::compare_checkpoint_policies(
      result.regime, config.checkpoint_cost_hours);

  // Causal checkpointing: day d's interval is chosen from day d-1's regime
  // (the information actually available at the start of d).
  const std::size_t total_days = result.regime.errors_per_day.size();
  if (total_days > 0) {
    double static_sum = 0.0, adaptive_sum = 0.0;
    for (std::size_t d = 0; d < total_days; ++d) {
      const std::uint64_t errors = result.regime.errors_per_day[d];
      const double day_mtbf =
          errors > 0 ? 24.0 / static_cast<double>(errors) : 1e6;
      const bool yesterday_degraded = d > 0 && result.regime.degraded[d - 1];
      const double interval = yesterday_degraded
                                  ? result.checkpoint.degraded_interval_hours
                                  : result.checkpoint.normal_interval_hours;
      static_sum += resilience::waste_fraction(
          result.checkpoint.static_interval_hours,
          config.checkpoint_cost_hours, day_mtbf);
      adaptive_sum += resilience::waste_fraction(
          interval, config.checkpoint_cost_hours, day_mtbf);
    }
    result.causal_static_waste = static_sum / static_cast<double>(total_days);
    result.causal_adaptive_waste =
        adaptive_sum / static_cast<double>(total_days);
  }
  return result;
}

}  // namespace unp::policy
