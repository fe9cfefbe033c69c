#include "util/query_render.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>

#include "analysis/fault_sink.hpp"
#include "analysis/metrics.hpp"
#include "cluster/topology.hpp"
#include "common/require.hpp"
#include "telemetry/record.hpp"

namespace unp::bench {

namespace {

using store::QueryError;

/// Arity table of the shared vocabulary.  Field names (flag minus dashes)
/// double as the QueryError field for diagnostics.
struct FlagSpec {
  const char* flag;
  bool needs_value;
};

constexpr FlagSpec kFlags[] = {
    {"--since", true},    {"--until", true},   {"--node", true},
    {"--blade", true},    {"--soc", true},     {"--class", true},
    {"--min-bits", true}, {"--max-bits", true}, {"--count", false},
    {"--limit", true},    {"--no-prune", false}, {"--all", false},
    {"--headline", false}, {"--tab1", false},  {"--fig", true},
    {"--ext", true},
};

long parse_long_in(const char* field, std::string_view value, long lo,
                   long hi) {
  long out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc{} || ptr != value.data() + value.size())
    throw QueryError(field,
                     "expects an integer, got '" + std::string(value) + "'");
  if (out < lo || out > hi)
    throw QueryError(field, "must be in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got '" +
                                std::string(value) + "'");
  return out;
}

}  // namespace

bool is_request_flag(std::string_view flag, bool* needs_value) {
  for (const FlagSpec& spec : kFlags) {
    if (flag == spec.flag) {
      *needs_value = spec.needs_value;
      return true;
    }
  }
  return false;
}

QueryRequest parse_request(const std::vector<std::string>& tokens) {
  QueryRequest req;
  store::QueryBuilder builder;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& flag = tokens[i];
    bool needs_value = false;
    if (!is_request_flag(flag, &needs_value))
      throw QueryError(flag, "unknown request flag");
    const std::string field =
        flag.rfind("--", 0) == 0 ? flag.substr(2) : flag;
    std::string_view value;
    if (needs_value) {
      if (++i >= tokens.size()) throw QueryError(field, "needs a value");
      value = tokens[i];
    }

    if (flag == "--since" || flag == "--until" || flag == "--node" ||
        flag == "--blade" || flag == "--soc" || flag == "--class" ||
        flag == "--min-bits" || flag == "--max-bits") {
      builder.set(field, value);
      req.any_query_action = true;
    } else if (flag == "--count") {
      req.count_only = true;
      req.any_query_action = true;
    } else if (flag == "--limit") {
      req.limit = static_cast<std::size_t>(
          parse_long_in("limit", value, 0, 1L << 40));
      req.any_query_action = true;
    } else if (flag == "--no-prune") {
      req.no_prune = true;
    } else if (flag == "--all") {
      for (int s = 0; s < kSectionCount; ++s) req.want[s] = true;
      req.any_section = req.any_query_action = true;
    } else if (flag == "--headline") {
      req.want[kHeadline] = true;
      req.any_section = req.any_query_action = true;
    } else if (flag == "--tab1") {
      req.want[kTab1] = true;
      req.any_section = req.any_query_action = true;
    } else if (flag == "--fig") {
      const long n = parse_long_in("fig", value, 1, 13);
      req.want[kFigSections[n - 1]] = true;
      req.any_section = req.any_query_action = true;
    } else {  // --ext, resolved against the one section registry
      const ExtSection* ext = find_ext_section(value);
      if (ext == nullptr) {
        std::string names;
        for (const ExtSection& e : ext_sections())
          names += (names.empty() ? "" : "|") + std::string(e.name);
        throw QueryError("ext", "expects " + names + ", got '" +
                                    std::string(value) + "'");
      }
      req.want[ext->section] = true;
      req.any_section = req.any_query_action = true;
    }
  }
  req.query = builder.build();
  return req;
}

QueryRequest parse_request_line(const std::string& line) {
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (i > start) tokens.push_back(line.substr(start, i - start));
  }
  return parse_request(tokens);
}

void print_query_rows(const std::vector<analysis::FaultRecord>& faults,
                      std::size_t limit, FILE* out) {
  std::fprintf(
      out,
      "node   first_seen  last_seen   raw_logs  address       expected  "
      "actual    bits  class       temp_c\n");
  const std::size_t shown =
      limit == 0 ? faults.size() : std::min(limit, faults.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const analysis::FaultRecord& f = faults[i];
    const int bits = f.flipped_bits();
    char temp[32];
    if (f.temperature_c == telemetry::kNoTemperature)
      std::snprintf(temp, sizeof temp, "-");
    else
      std::snprintf(temp, sizeof temp, "%.1f", f.temperature_c);
    std::fprintf(
        out,
        "%-6s %-11lld %-11lld %-9llu 0x%010llx  %08x  %08x  %-5d %-11s %s\n",
        cluster::node_name(f.node).c_str(),
        static_cast<long long>(f.first_seen),
        static_cast<long long>(f.last_seen),
        static_cast<unsigned long long>(f.raw_logs),
        static_cast<unsigned long long>(f.virtual_address), f.expected,
        f.actual, bits,
        (std::string(kFlipClasses[flip_class_of(bits)].name) + "-bit").c_str(),
        temp);
  }
  if (shown < faults.size())
    std::fprintf(out, "... %zu more row(s); raise --limit to list them\n",
                 faults.size() - shown);
}

void render_request(const store::StoreReader& reader, const QueryRequest& req,
                    const store::ScanOptions& options, FILE* out,
                    store::ScanStats* stats) {
  store::ScanStats local;
  store::ScanStats& s = stats ? *stats : local;
  store::ScanOptions scan = options;
  scan.prune = options.prune && !req.no_prune;

  if (req.any_section) {
    // Replay the selected faults through the exact unp_report renderers.
    analysis::ExtractionResult extraction;
    extraction.faults = reader.materialize(req.query, scan, &s);
    extraction.removed_nodes = reader.extraction_meta().removed_nodes;
    extraction.total_raw_logs = reader.extraction_meta().total_raw_logs;
    extraction.removed_raw_logs = reader.extraction_meta().removed_raw_logs;

    ReportAnalyzers analyzers(req.want);
    analysis::run_fault_sinks(extraction.faults, {reader.window()},
                              analyzers.sinks(), scan.pool);

    const store::StoredScanProfile& profile = reader.scan_profile();
    ReportInputs inputs;
    inputs.window = reader.window();
    inputs.hours = &profile.hours;
    inputs.terabyte_hours = &profile.terabyte_hours;
    inputs.daily_terabyte_hours = profile.daily_terabyte_hours;
    inputs.total_hours = profile.total_hours;
    inputs.total_terabyte_hours = profile.total_terabyte_hours;
    inputs.monitored_nodes = profile.monitored_nodes;
    inputs.extraction = &extraction;
    analyzers.render(inputs, out);
  } else if (req.count_only) {
    store::Query query = req.query;
    query.projection = 0;  // predicate columns only
    (void)reader.run(query, scan, &s);
    std::fprintf(out, "%llu\n",
                 static_cast<unsigned long long>(s.rows_matched));
  } else {
    const std::vector<analysis::FaultRecord> faults =
        reader.materialize(req.query, scan, &s);
    print_query_rows(faults, req.limit, out);
  }
}

std::string render_request_to_string(const store::StoreReader& reader,
                                     const QueryRequest& req,
                                     const store::ScanOptions& options) {
  char* buf = nullptr;
  std::size_t len = 0;
  FILE* mem = open_memstream(&buf, &len);
  UNP_REQUIRE(mem != nullptr);
  try {
    render_request(reader, req, options, mem);
  } catch (...) {
    std::fclose(mem);
    std::free(buf);
    throw;
  }
  std::fclose(mem);
  std::string body(buf, len);
  std::free(buf);
  return body;
}

}  // namespace unp::bench
