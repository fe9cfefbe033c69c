#include "store/query.hpp"

#include "common/require.hpp"

namespace unp::store {

std::uint32_t Query::required_columns() const {
  std::uint32_t columns = projection;
  if (since || until) columns |= kColFirstSeen;
  if (blade || soc) columns |= kColNode;
  if (!bits_unconstrained())
    columns |= class_range() ? kColClass : kColPattern;
  return columns;
}

std::optional<std::pair<int, int>> Query::class_range() const noexcept {
  std::optional<int> lo;
  std::optional<int> hi;
  for (int c = 0; c < kFlipClassCount; ++c) {
    if (min_bits == kFlipClasses[c].min_bits || (c == 0 && min_bits <= 1))
      lo = c;
    if (max_bits == kFlipClasses[c].max_bits ||
        (c == kFlipClassCount - 1 && max_bits >= 32))
      hi = c;
  }
  if (!lo || !hi || *lo > *hi) return std::nullopt;
  return std::pair{*lo, *hi};
}

bool Query::may_match(const SegmentZone& zone) const noexcept {
  if (since && zone.time_max < *since) return false;
  if (until && zone.time_min >= *until) return false;
  if (blade) {
    // A blade's SoCs occupy one contiguous dense-index run; with a SoC the
    // run collapses to one index.  A SoC selector alone touches one index
    // per blade (stride kSocsPerBlade), which zone intervals cannot express,
    // so that case filters at row level only.
    const std::uint32_t lo = static_cast<std::uint32_t>(
        *blade * cluster::kSocsPerBlade + (soc ? *soc : 0));
    const std::uint32_t hi = static_cast<std::uint32_t>(
        *blade * cluster::kSocsPerBlade +
        (soc ? *soc : cluster::kSocsPerBlade - 1));
    if (zone.node_max < lo || zone.node_min > hi) return false;
  }
  if (zone.bits_max < min_bits || zone.bits_min > max_bits) return false;
  return true;
}

bool Query::matches(std::uint32_t node_index, TimePoint first_seen,
                    int flipped_bits) const noexcept {
  if (since && first_seen < *since) return false;
  if (until && first_seen >= *until) return false;
  if (blade &&
      node_index / static_cast<std::uint32_t>(cluster::kSocsPerBlade) !=
          static_cast<std::uint32_t>(*blade))
    return false;
  if (soc && node_index % static_cast<std::uint32_t>(cluster::kSocsPerBlade) !=
                 static_cast<std::uint32_t>(*soc))
    return false;
  return flipped_bits >= min_bits && flipped_bits <= max_bits;
}

std::string Query::describe() const {
  std::string out;
  const auto conjoin = [&out](const std::string& term) {
    if (!out.empty()) out += " and ";
    out += term;
  };
  if (since && until)
    conjoin("first_seen in [" + std::to_string(*since) + ", " +
            std::to_string(*until) + ")");
  else if (since)
    conjoin("first_seen >= " + std::to_string(*since));
  else if (until)
    conjoin("first_seen < " + std::to_string(*until));
  if (blade && soc)
    conjoin("node " +
            cluster::node_name(cluster::NodeId{*blade, *soc}));
  else if (blade)
    conjoin("blade " + std::to_string(*blade));
  else if (soc)
    conjoin("soc " + std::to_string(*soc));
  if (!bits_unconstrained()) {
    if (min_bits == max_bits)
      conjoin("flipped_bits == " + std::to_string(min_bits));
    else
      conjoin("flipped_bits in [" + std::to_string(min_bits) + ", " +
              std::to_string(max_bits) + "]");
  }
  return out.empty() ? "all faults" : out;
}

}  // namespace unp::store
