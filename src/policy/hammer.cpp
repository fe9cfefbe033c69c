#include "policy/hammer.hpp"

#include <algorithm>
#include <memory>

#include "common/require.hpp"
#include "common/thread_pool.hpp"
#include "telemetry/node_log.hpp"

namespace unp::policy {

namespace {

std::uint64_t row_key(std::uint32_t bank, std::uint64_t row) noexcept {
  return (static_cast<std::uint64_t>(bank) << 48) | row;
}

}  // namespace

HammerMitigationPolicy::HammerMitigationPolicy(Config config)
    : config_(std::move(config)),
      mapping_(dram::mapping::make_mapping_config(config_.mapping)) {}

void HammerMitigationPolicy::on_fault(const analysis::FaultRecord& fault,
                                      const NodeHealth& /*health*/,
                                      std::vector<Action>& actions) {
  const std::uint64_t word = fault.virtual_address / sizeof(Word);
  if (word >= mapping_.total_words()) return;
  const int index = cluster::node_index(fault.node);
  auto it = detectors_.find(index);
  if (it == detectors_.end()) {
    it = detectors_
             .emplace(std::piecewise_construct, std::forward_as_tuple(index),
                      std::forward_as_tuple(mapping_, config_.detector))
             .first;
  }
  if (!it->second.observe(fault.first_seen, word)) return;

  const faults::hammer::DetectedRow& hit = it->second.detections().back();
  ++rows_retired_;
  for (const std::uint64_t page : row_pages(mapping_, hit.bank, hit.row)) {
    Action act;
    act.kind = ActionKind::kRetirePage;
    act.node = fault.node;
    act.time = fault.first_seen;
    act.virtual_address = page << 12;
    actions.push_back(act);
    ++pages_requested_;
  }
}

std::string HammerMitigationPolicy::report() const {
  return "hammer rows retired: " + std::to_string(rows_retired_) +
         " (pages requested: " + std::to_string(pages_requested_) + ")";
}

std::vector<std::uint64_t> row_pages(const dram::mapping::DramMapping& mapping,
                                     std::uint32_t bank, std::uint64_t row) {
  std::vector<std::uint64_t> pages;
  for (std::uint64_t column = 0; column < mapping.columns(); ++column) {
    const std::uint64_t word = mapping.encode({bank, row, column});
    const std::uint64_t page = (word * sizeof(Word)) >> 12;
    if (!std::binary_search(pages.begin(), pages.end(), page)) {
      pages.insert(std::upper_bound(pages.begin(), pages.end(), page), page);
    }
  }
  return pages;
}

namespace {

/// Per-node outcome of the detect -> retire -> re-simulate loop.
struct NodeMitigation {
  std::vector<RetiredRow> retired;  ///< trigger order, kind unset
  std::uint64_t open_observed = 0;
  std::uint64_t closed_observed = 0;
  int rounds = 0;
};

NodeMitigation mitigate_node(const HammerLoopConfig& config,
                             const dram::mapping::DramMapping& mapping,
                             cluster::NodeId node, const sched::ScanPlan& plan,
                             std::vector<faults::FaultEvent> events,
                             std::uint64_t session_seed) {
  const bool overheating = cluster::Topology::is_overheating_slot(node);
  NodeMitigation out;
  std::set<std::uint64_t> retired_keys;

  while (out.rounds < config.max_rounds) {
    ++out.rounds;
    const telemetry::NodeLog log =
        sim::simulate_node(config.campaign.session, node, plan, events,
                           overheating, session_seed);
    std::vector<analysis::FaultRecord> faults = analysis::collapse_node_log(
        node, log, config.extraction.merge_window_s);
    if (out.rounds == 1) out.open_observed = faults.size();
    out.closed_observed = faults.size();

    // Replay the detector over what this round observed.
    faults::hammer::HammerRowDetector detector(mapping, config.detector);
    for (const auto& f : faults) {
      const std::uint64_t word = f.virtual_address / sizeof(Word);
      if (word >= mapping.total_words()) continue;
      detector.observe(f.first_seen, word);
    }

    // Retire every newly-triggered row: the scanner unmaps its pages, so
    // its words vanish from the observable fault events.
    bool actuated = false;
    for (const auto& hit : detector.detections()) {
      if (!retired_keys.insert(row_key(hit.bank, hit.row)).second) continue;
      out.retired.push_back(
          RetiredRow{.node = node, .bank = hit.bank, .row = hit.row,
                     .trigger_time = hit.trigger_time});
      actuated = true;
    }
    if (!actuated) break;
    for (auto& ev : events) {
      std::erase_if(ev.words, [&](const faults::WordFault& w) {
        if (w.word_index >= mapping.total_words()) return false;
        const dram::mapping::DramCoordinate c = mapping.decode(w.word_index);
        return retired_keys.contains(row_key(c.bank, c.row));
      });
    }
    std::erase_if(events, [](const faults::FaultEvent& ev) {
      return ev.words.empty();
    });
  }
  return out;
}

}  // namespace

HammerMitigationResult run_hammer_mitigation(const HammerLoopConfig& config) {
  UNP_REQUIRE(config.threads >= 1);
  UNP_REQUIRE(config.max_rounds >= 1);
  UNP_REQUIRE(config.campaign.faults.enable_hammer);
  const sim::CampaignConfig& cc = config.campaign;
  const dram::mapping::DramMapping mapping(
      dram::mapping::make_mapping_config(cc.faults.hammer.mapping));

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

  // Pathological exclusion only (see header: no loudest-node exclusion —
  // hammered nodes are loud by design).
  std::vector<std::uint64_t> raw(n, 0);
  run_parallel(n, [&](std::size_t i) {
    const telemetry::NodeLog log = sim::simulate_node(
        cc.session, nodes[i], plans[i], events[i],
        cluster::Topology::is_overheating_slot(nodes[i]), session_seed);
    raw[i] = log.raw_error_count();
  });
  HammerMitigationResult result;
  std::uint64_t raw_total = 0;
  for (std::size_t i = 0; i < n; ++i) raw_total += raw[i];
  std::vector<bool> excluded(n, false);
  for (std::size_t i = 0; i < n; ++i) {
    if (analysis::is_pathological(raw[i], raw_total, config.extraction)) {
      excluded[i] = true;
      result.excluded_nodes.push_back(nodes[i]);
    }
  }

  // Closed loop, node by node (independent timelines: any thread count
  // yields identical results).
  std::vector<NodeMitigation> outcomes(n);
  run_parallel(n, [&](std::size_t i) {
    if (excluded[i] || events[i].empty()) return;
    outcomes[i] = mitigate_node(config, mapping, nodes[i], plans[i], events[i],
                                session_seed);
  });

  // Score against ground truth, in node order for determinism.
  for (std::size_t i = 0; i < n; ++i) {
    if (excluded[i]) continue;

    std::set<std::uint64_t> hammered_rows;
    std::map<std::uint64_t, std::set<std::uint64_t>> dense_words;
    for (const auto& ev : events[i]) {
      for (const auto& w : ev.words) {
        if (w.word_index >= mapping.total_words()) continue;
        const dram::mapping::DramCoordinate c = mapping.decode(w.word_index);
        const std::uint64_t key = row_key(c.bank, c.row);
        if (ev.mechanism == faults::Mechanism::kRowhammer) {
          hammered_rows.insert(key);
        } else {
          dense_words[key].insert(w.word_index);
        }
      }
    }
    result.true_victim_rows += hammered_rows.size();

    NodeMitigation& out = outcomes[i];
    result.open_observed += out.open_observed;
    result.closed_observed += out.closed_observed;
    result.max_rounds_used = std::max(result.max_rounds_used, out.rounds);
    for (RetiredRow& r : out.retired) {
      const std::uint64_t key = row_key(r.bank, r.row);
      if (hammered_rows.contains(key)) {
        r.kind = RetiredRow::Kind::kTrue;
        ++result.retired_true;
      } else if (static_cast<int>(dense_words[key].size()) >=
                 config.detector.min_distinct_words) {
        r.kind = RetiredRow::Kind::kCollateral;
        ++result.retired_collateral;
      } else {
        r.kind = RetiredRow::Kind::kSpurious;
        ++result.retired_spurious;
      }
      result.retired.push_back(r);
    }
  }
  result.rows_retired = result.retired.size();
  result.absorbed_faults = result.open_observed - result.closed_observed;
  result.recall = result.true_victim_rows == 0
                      ? 1.0
                      : static_cast<double>(result.retired_true) /
                            static_cast<double>(result.true_victim_rows);
  return result;
}

}  // namespace unp::policy
