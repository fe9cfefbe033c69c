// Automatic node-failure diagnosis.
//
// Section III-H reads the three loud nodes by hand: node 02-04's errors hit
// >11,000 addresses "in such a random way [that] corruption might have been
// happening in another component of the node and not in the memory itself",
// while 04-05 and 58-02 flip one identical bit - a weak cell.  This module
// turns that reading into a classifier an operator can run on any node's
// fault record:
//
//   kHealthy          few or no faults
//   kWeakCell         many faults, ~one address, one fixed flip pattern
//                     -> page retirement fixes it
//   kStuckRegion      few addresses each re-logged relentlessly (raw/fault
//                     ratio enormous) -> DIMM replacement
//   kComponentFailure many faults across many addresses with scattered
//                     patterns -> replace the node, retirement is hopeless
//   kSporadic         a handful of unrelated transients (cosmic background)
//
// The simulator knows each node's true mechanism, so the classifier's
// accuracy is measurable (unp_study ext_diagnosis).
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/extraction.hpp"

namespace unp::analysis {

enum class NodeCondition : std::uint8_t {
  kHealthy,
  kSporadic,
  kWeakCell,
  kStuckRegion,
  kComponentFailure,
};

[[nodiscard]] const char* to_string(NodeCondition condition) noexcept;

struct DiagnosisConfig {
  /// Up to this many faults a node is merely sporadic.
  std::uint64_t sporadic_max_faults = 10;
  /// Address-diversity boundary: distinct addresses / faults below this
  /// with a dominant address means a localized cell defect.
  double localized_address_ratio = 0.05;
  /// Raw-logs-per-fault ratio above which the cell is stuck rather than
  /// intermittent.
  double stuck_raw_ratio = 50.0;
};

struct NodeDiagnosis {
  cluster::NodeId node;
  NodeCondition condition = NodeCondition::kHealthy;
  std::uint64_t faults = 0;
  std::uint64_t raw_logs = 0;
  std::uint64_t distinct_addresses = 0;
  std::uint64_t distinct_patterns = 0;
  /// Action recommendation mirroring Section IV's options.
  [[nodiscard]] const char* recommendation() const noexcept;
};

/// Diagnose one node from its extracted faults.
[[nodiscard]] NodeDiagnosis diagnose_node(FaultView faults, cluster::NodeId node,
                                          const DiagnosisConfig& config = {});

/// Diagnose every node that shows at least one fault, ordered loudest first.
[[nodiscard]] std::vector<NodeDiagnosis> diagnose_fleet(
    FaultView faults, const DiagnosisConfig& config = {});

}  // namespace unp::analysis
