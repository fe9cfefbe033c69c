#include "store/query_builder.hpp"

#include <algorithm>
#include <charconv>

#include "cluster/topology.hpp"

namespace unp::store {

namespace {

[[noreturn]] void fail(const char* field, const std::string& message) {
  throw QueryError(field, message);
}

long parse_long(const char* field, std::string_view value) {
  long out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size())
    fail(field, "expects an integer, got '" + std::string(value) + "'");
  return out;
}

int parse_int_in(const char* field, std::string_view value, int lo, int hi) {
  const long n = parse_long(field, value);
  if (n < lo || n > hi)
    fail(field, "must be in [" + std::to_string(lo) + ", " +
                    std::to_string(hi) + "], got '" + std::string(value) + "'");
  return static_cast<int>(n);
}

/// Set `slot` (the query's blade or soc) to `value` on behalf of `field`;
/// throws if an earlier predicate, named by `owner`, chose another value.
void pin(const char* field, std::optional<int>& slot, const char*& owner,
         const char* coordinate, int value) {
  if (slot && *slot != value)
    fail(field, std::string("selects ") + coordinate + " " +
                    std::to_string(value) + ", but " + owner +
                    " already selected " + coordinate + " " +
                    std::to_string(*slot));
  if (!slot) owner = field;
  slot = value;
}

}  // namespace

QueryBuilder& QueryBuilder::since(TimePoint t) {
  query_.since = query_.since ? std::max(*query_.since, t) : t;
  return *this;
}

QueryBuilder& QueryBuilder::until(TimePoint t) {
  query_.until = query_.until ? std::min(*query_.until, t) : t;
  return *this;
}

QueryBuilder& QueryBuilder::node(std::string_view name) {
  cluster::NodeId id;
  try {
    id = cluster::parse_node_name(std::string(name));
  } catch (const ContractViolation&) {
    fail("node", "expects BB-SS (e.g. 58-02), got '" + std::string(name) + "'");
  }
  pin("node", query_.blade, blade_from_, "blade", id.blade);
  pin("node", query_.soc, soc_from_, "soc", id.soc);
  return *this;
}

QueryBuilder& QueryBuilder::blade(int b) {
  if (b < 0 || b >= cluster::kStudyBlades)
    fail("blade", "must be in [0, " + std::to_string(cluster::kStudyBlades - 1) +
                      "], got '" + std::to_string(b) + "'");
  pin("blade", query_.blade, blade_from_, "blade", b);
  return *this;
}

QueryBuilder& QueryBuilder::soc(int s) {
  if (s < 0 || s >= cluster::kSocsPerBlade)
    fail("soc", "must be in [0, " + std::to_string(cluster::kSocsPerBlade - 1) +
                    "], got '" + std::to_string(s) + "'");
  pin("soc", query_.soc, soc_from_, "soc", s);
  return *this;
}

QueryBuilder& QueryBuilder::fault_class(std::string_view name) {
  // "multi" is every class from double up; the rest are kFlipClasses rows.
  if (name == "multi")
    return min_bits(kFlipClasses[1].min_bits)
        .max_bits(kFlipClasses[kFlipClassCount - 1].max_bits);
  std::string names;
  for (const FlipClass& c : kFlipClasses) {
    if (name == c.name) return min_bits(c.min_bits).max_bits(c.max_bits);
    names += std::string(c.name) + "|";
  }
  fail("class", "expects " + names + "multi, got '" + std::string(name) + "'");
}

QueryBuilder& QueryBuilder::min_bits(int n) {
  if (n < 1 || n > 32)
    fail("min-bits", "must be in [1, 32], got '" + std::to_string(n) + "'");
  query_.min_bits = std::max(query_.min_bits, n);
  return *this;
}

QueryBuilder& QueryBuilder::max_bits(int n) {
  if (n < 1 || n > 32)
    fail("max-bits", "must be in [1, 32], got '" + std::to_string(n) + "'");
  query_.max_bits = std::min(query_.max_bits, n);
  return *this;
}

QueryBuilder& QueryBuilder::projection(std::uint32_t columns) {
  query_.projection = columns;
  return *this;
}

QueryBuilder& QueryBuilder::set(std::string_view field,
                                std::string_view value) {
  if (field == "since") return since(parse_long("since", value));
  if (field == "until") return until(parse_long("until", value));
  if (field == "node") return node(value);
  if (field == "blade")
    return blade(parse_int_in("blade", value, 0, cluster::kStudyBlades - 1));
  if (field == "soc")
    return soc(parse_int_in("soc", value, 0, cluster::kSocsPerBlade - 1));
  if (field == "class") return fault_class(value);
  if (field == "min-bits")
    return min_bits(parse_int_in("min-bits", value, 1, 32));
  if (field == "max-bits")
    return max_bits(parse_int_in("max-bits", value, 1, 32));
  throw QueryError(std::string(field), "unknown query field");
}

Query QueryBuilder::build() const {
  if (query_.min_bits > query_.max_bits)
    fail("min-bits",
         "exceeds max-bits (" + std::to_string(query_.min_bits) + " > " +
             std::to_string(query_.max_bits) + ")");
  return query_;
}

}  // namespace unp::store
