// Hammer mitigation: detect access-dependent victim rows, retire them.
//
// HammerMitigationPolicy is the online half: a Policy (policy.hpp) that
// feeds each node's observed faults through the shared
// faults::hammer::HammerRowDetector and, the moment a (bank, row) trips the
// spatial-clustering threshold, emits one kRetirePage action per 4 KiB page
// the row occupies.  Because the detector is a pure function of the
// observed stream, the policy's triggers agree bit-for-bit with the batch
// census in `unp_report --ext hammer` and with the closed loop below.
//
// run_hammer_mitigation is the closed loop: the same campaign wiring as
// policy::run_closed_loop (topology, availability, plans and fault events
// exactly those of sim::run_campaign_streaming), but the controller is the
// row detector and the actuator is row retirement.  Each round a node is
// simulated, its collapsed faults are replayed through a fresh detector,
// and every newly-triggered row is unmapped from the fault events STRICTLY
// AFTER its trigger time — the evidence that produced the decision
// survives re-simulation, so the detector re-derives the same triggers and
// the retired set grows monotonically until no new row trips.
//
// Scoring closes the loop against ground truth: a retired (node, bank, row)
// is TRUE when a kRowhammer ground-truth event landed on it, COLLATERAL
// when at least `min_distinct_words` distinct non-hammer ground-truth words
// sit on the row (a genuinely dense region — retiring it absorbs real
// faults even though no hammering happened), and SPURIOUS otherwise.
// Pathological nodes are excluded exactly as the extraction filter would
// exclude them; the loudest-node exclusion of the batch analyses is NOT
// applied, because hammered nodes are legitimately loud and are precisely
// the targets.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "faults/hammer/detect.hpp"
#include "policy/policy.hpp"
#include "sim/campaign.hpp"

namespace unp::policy {

class HammerMitigationPolicy final : public Policy {
 public:
  struct Config {
    /// Geometry used to map scan-space words to DRAM rows (a
    /// dram::mapping::mapping_menu() name).
    std::string mapping = "lpddr3:mb";
    faults::hammer::DetectorConfig detector{};
  };

  HammerMitigationPolicy() : HammerMitigationPolicy(Config{}) {}
  explicit HammerMitigationPolicy(Config config);

  // The detectors reference this object's own mapping_: a copy's or a
  // move target's detectors would dangle once the source is destroyed.
  HammerMitigationPolicy(const HammerMitigationPolicy&) = delete;
  HammerMitigationPolicy& operator=(const HammerMitigationPolicy&) = delete;
  HammerMitigationPolicy(HammerMitigationPolicy&&) = delete;
  HammerMitigationPolicy& operator=(HammerMitigationPolicy&&) = delete;

  [[nodiscard]] std::string_view name() const noexcept override {
    return "hammer-mitigation";
  }

  void on_fault(const analysis::FaultRecord& fault, const NodeHealth& health,
                std::vector<Action>& actions) override;

  [[nodiscard]] std::string report() const override;

  /// Rows retired so far, fleet-wide (for tests and the engine report).
  [[nodiscard]] std::uint64_t rows_retired() const noexcept {
    return rows_retired_;
  }

 private:
  Config config_;
  dram::mapping::DramMapping mapping_;
  /// One detector per node seen, keyed by node index; each is fed that
  /// node's faults in canonical (first_seen, address) order.
  std::map<int, faults::hammer::HammerRowDetector> detectors_;
  std::uint64_t rows_retired_ = 0;
  std::uint64_t pages_requested_ = 0;
};

/// Enumerate the distinct 4 KiB pages (of the word*4 scan address space)
/// that one (bank, row) occupies under `mapping`.  For lpddr3:mb a row is
/// exactly one page; folded geometries may split a row across pages.
[[nodiscard]] std::vector<std::uint64_t> row_pages(
    const dram::mapping::DramMapping& mapping, std::uint32_t bank,
    std::uint64_t row);

struct HammerLoopConfig {
  sim::CampaignConfig campaign{};  ///< faults.enable_hammer must be set
  analysis::ExtractionConfig extraction{};
  faults::hammer::DetectorConfig detector{};
  /// Re-simulation rounds per node before giving up (safety bound; the
  /// loop converges as soon as a round adds no new detection).
  int max_rounds = 16;
  std::size_t threads = 1;
};

/// One retired row and how it scored against ground truth.
struct RetiredRow {
  enum class Kind : std::uint8_t { kTrue, kCollateral, kSpurious };
  cluster::NodeId node;
  std::uint32_t bank = 0;
  std::uint64_t row = 0;
  TimePoint trigger_time = 0;
  Kind kind = Kind::kSpurious;
};

struct HammerMitigationResult {
  std::vector<cluster::NodeId> excluded_nodes;  ///< pathological filter

  /// Distinct (node, bank, row) touched by kRowhammer ground truth on
  /// non-excluded nodes: the recall denominator.
  std::uint64_t true_victim_rows = 0;
  std::uint64_t rows_retired = 0;
  std::uint64_t retired_true = 0;
  std::uint64_t retired_collateral = 0;
  std::uint64_t retired_spurious = 0;
  /// retired_true / true_victim_rows (1.0 when there is nothing to find).
  double recall = 1.0;

  std::uint64_t open_observed = 0;    ///< collapsed faults, open loop
  std::uint64_t closed_observed = 0;  ///< after retirement converged
  std::uint64_t absorbed_faults = 0;  ///< open - closed
  int max_rounds_used = 0;

  std::vector<RetiredRow> retired;  ///< node-ordered, then trigger order
};

[[nodiscard]] HammerMitigationResult run_hammer_mitigation(
    const HammerLoopConfig& config);

}  // namespace unp::policy
