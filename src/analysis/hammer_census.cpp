#include "analysis/hammer_census.hpp"

#include <algorithm>
#include <utility>

#include "analysis/sink_state.hpp"
#include "cluster/topology.hpp"
#include "common/bitops.hpp"
#include "common/require.hpp"

namespace unp::analysis {

namespace {

constexpr char kFoldedTag = 'W';
constexpr char kLedgerTag = 'V';
/// Longest geometry name a blob may carry.
constexpr std::uint64_t kMaxGeometryName = 64;

}  // namespace

HammerCensusSink::HammerCensusSink(const std::string& geometry, Mode mode)
    : mapping_(dram::mapping::make_mapping_config(geometry)),
      mode_(mode),
      label_(mode == Mode::kLedger ? "hammer-ledger" : "hammer:" + geometry) {}

void HammerCensusSink::begin_faults(const FaultStreamContext& /*ctx*/) {
  nodes_.clear();
  nodes_.resize(static_cast<std::size_t>(cluster::kTotalNodes));
  census_ = HammerCensus{};
}

void HammerCensusSink::on_fault(const FaultRecord& fault) {
  const std::uint64_t total = mapping_.total_words();  // power of two
  std::uint64_t word = fault.virtual_address / sizeof(Word);
  if (mode_ == Mode::kFolded) {
    word &= total - 1;
  } else if (word >= total) {
    return;
  }
  const auto node = static_cast<std::size_t>(cluster::node_index(fault.node));
  UNP_REQUIRE(node < nodes_.size());  // inside a pass, a topology node
  NodeSlot& slot = nodes_[node];
  if (!slot.detector) {
    if (slot.merged)
      throw ContractViolation(label_ + ": node " + std::to_string(node) +
                              " streamed after its state was merged");
    slot.detector = std::make_unique<faults::hammer::HammerRowDetector>(
        mapping_, faults::hammer::DetectorConfig{});
  }
  slot.detector->observe(fault.first_seen, word);
}

HammerCensusSink::NodeOutcome HammerCensusSink::reduce(
    const faults::hammer::HammerRowDetector& detector) const {
  NodeOutcome outcome;
  outcome.absorbable = detector.absorbable_faults();
  outcome.rows = detector.detections().size();
  for (const faults::hammer::DetectedRow& d : detector.detections())
    outcome.max_words = std::max(outcome.max_words, d.distinct_words);
  if (mode_ == Mode::kLedger) outcome.detections = detector.detections();
  return outcome;
}

const HammerCensusSink::NodeOutcome* HammerCensusSink::outcome(
    const NodeSlot& slot, NodeOutcome& scratch) const {
  if (slot.detector) {
    scratch = reduce(*slot.detector);
    return &scratch;
  }
  return slot.merged ? &*slot.merged : nullptr;
}

void HammerCensusSink::end_faults() {
  census_ = HammerCensus{};
  NodeOutcome scratch;
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    const NodeOutcome* o = outcome(nodes_[node], scratch);
    if (o == nullptr) continue;
    census_.rows_triggered += o->rows;
    census_.absorbable += o->absorbable;
    if (o->rows > 0) ++census_.nodes_triggered;
    census_.max_words = std::max(census_.max_words, o->max_words);
    for (const faults::hammer::DetectedRow& d : o->detections)
      census_.ledger.push_back({static_cast<int>(node), d});
  }
  std::vector<NodeSlot>().swap(nodes_);
}

// Blob: tag, geometry name, node count, then per node in index order:
// index, absorbable, rows, and either the rows' detections (ledger) or the
// max words per row (folded).
std::string HammerCensusSink::serialize_state() const {
  state::Writer w(mode_ == Mode::kLedger ? kLedgerTag : kFoldedTag);
  w.put_u64(geometry().size());
  for (const char c : geometry()) w.put_u64(static_cast<unsigned char>(c));
  std::uint64_t count = 0;
  for (const NodeSlot& slot : nodes_)
    if (slot.detector || slot.merged) ++count;
  w.put_u64(count);
  NodeOutcome scratch;
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    const NodeOutcome* o = outcome(nodes_[node], scratch);
    if (o == nullptr) continue;
    w.put_u64(node);
    w.put_u64(o->absorbable);
    w.put_u64(o->rows);
    if (mode_ == Mode::kLedger) {
      for (const faults::hammer::DetectedRow& d : o->detections) {
        w.put_u64(d.bank);
        w.put_u64(d.row);
        w.put_i64(d.trigger_time);
        w.put_u64(static_cast<std::uint64_t>(d.distinct_words));
      }
    } else {
      w.put_u64(static_cast<std::uint64_t>(o->max_words));
    }
  }
  return std::move(w).take();
}

void HammerCensusSink::merge_state(const std::string& blob) {
  UNP_REQUIRE(!nodes_.empty());  // between begin_faults and end_faults
  const bool ledger = mode_ == Mode::kLedger;
  state::Reader r(blob, ledger ? kLedgerTag : kFoldedTag, "HammerCensusSink");
  const auto fail = [&](const std::string& what) {
    throw state::DecodeError(label_ + ": " + what, 0);
  };
  const std::uint64_t name_size = r.get_u64();
  if (name_size > kMaxGeometryName) fail("geometry name too long");
  std::string name;
  for (std::uint64_t i = 0; i < name_size; ++i)
    name.push_back(static_cast<char>(r.get_u64() & 0xff));
  if (name != geometry()) fail("state of geometry '" + name + "'");

  // Decode the whole blob before touching the accumulator, so a corrupt
  // blob merges nothing.
  const std::uint64_t count = r.get_u64();
  if (count > static_cast<std::uint64_t>(cluster::kTotalNodes))
    fail("node count out of range");
  std::vector<std::pair<std::size_t, NodeOutcome>> decoded;
  std::uint64_t next_node = 0;  // node indices strictly increase
  for (std::uint64_t k = 0; k < count; ++k) {
    const std::uint64_t node = r.get_u64();
    if (node < next_node || node >= static_cast<std::uint64_t>(cluster::kTotalNodes))
      fail("node index out of order or range");
    next_node = node + 1;
    NodeOutcome o;
    o.absorbable = r.get_u64();
    o.rows = r.get_u64();
    if (ledger) {
      for (std::uint64_t i = 0; i < o.rows; ++i) {
        faults::hammer::DetectedRow d;
        const std::uint64_t bank = r.get_u64();
        if (bank > UINT32_MAX) fail("bank out of range");
        d.bank = static_cast<std::uint32_t>(bank);
        d.row = r.get_u64();
        d.trigger_time = r.get_i64();
        const std::uint64_t words = r.get_u64();
        if (words > INT32_MAX) fail("word count out of range");
        d.distinct_words = static_cast<int>(words);
        o.max_words = std::max(o.max_words, d.distinct_words);
        o.detections.push_back(d);
      }
    } else {
      const std::uint64_t max_words = r.get_u64();
      if (max_words > INT32_MAX) fail("word count out of range");
      o.max_words = static_cast<int>(max_words);
    }
    decoded.emplace_back(static_cast<std::size_t>(node), std::move(o));
  }
  r.finish();

  for (const auto& [node, o] : decoded) {
    const NodeSlot& slot = nodes_[node];
    if (slot.detector || slot.merged)
      throw ContractViolation(label_ + ": node " + std::to_string(node) +
                              " is in two partial states");
  }
  for (auto& [node, o] : decoded) nodes_[node].merged = std::move(o);
}

HammerCensusSet::HammerCensusSet() {
  for (const std::string& name : dram::mapping::mapping_menu()) {
    geometries.push_back(std::make_unique<HammerCensusSink>(
        name, HammerCensusSink::Mode::kFolded));
  }
}

std::vector<FaultSink*> HammerCensusSet::sinks() {
  std::vector<FaultSink*> out;
  for (const auto& sink : geometries) out.push_back(sink.get());
  out.push_back(&ledger);
  return out;
}

}  // namespace unp::analysis
