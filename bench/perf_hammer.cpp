// Performance + correctness gate for the Rowhammer subsystem.
//
// Three promises are gated:
//
//   1. Solver - the DRAMA-style MappingSolver recovers every menu
//      geometry's bank XOR functions and row mask EXACTLY from the timing
//      oracle; any mismatch fails the gate (the attack is deterministic,
//      so a miss is a real regression, not noise).
//
//   2. Throughput - enabling the hammer generator must not tax the
//      campaign: a hammer-enabled campaign sustains >= 90% of the
//      time-driven baseline's record throughput over the same window
//      (best-of-2 wall times on both sides to damp scheduler noise).
//
//   3. Mitigation - the closed detect-and-retire loop recovers >= 95% of
//      the true victim rows (kRowhammer ground truth) with bounded false
//      retirement: spurious rows (neither hammered nor genuinely dense)
//      stay within 10% of all retirements.
//
// Writes machine-readable results to BENCH_hammer.json (override with
// --json <path>).  Exits non-zero on failure so CI can gate on it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dram/mapping/solver.hpp"
#include "policy/hammer.hpp"
#include "sim/campaign.hpp"
#include "telemetry/sink.hpp"
#include "util/bench_json.hpp"
#include "util/campaign_cache.hpp"
#include "util/cli_args.hpp"

namespace {

using namespace unp;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Swallows the record stream: both throughput legs pay identical sink
/// costs (none), so the measured delta is the generator's alone.
class DiscardSink final : public telemetry::RecordSink {
 public:
  void on_start(const telemetry::StartRecord&) override { ++records_; }
  void on_end(const telemetry::EndRecord&) override { ++records_; }
  void on_alloc_fail(const telemetry::AllocFailRecord&) override {
    ++records_;
  }
  void on_error_run(const telemetry::ErrorRun&) override { ++records_; }
  [[nodiscard]] std::uint64_t records() const noexcept { return records_; }

 private:
  std::uint64_t records_ = 0;
};

bool run_solver_gate() {
  dram::mapping::MappingSolver solver;
  bool ok = true;
  for (const std::string& name : dram::mapping::mapping_menu()) {
    const dram::mapping::DramMapping mapping(
        dram::mapping::make_mapping_config(name));
    dram::mapping::AccessTimingOracle oracle(mapping, {}, /*seed=*/1);
    const dram::mapping::SolveResult result =
        solver.solve(oracle, mapping.config().address_bits);
    const bool exact = result.bank_functions ==
                           mapping.canonical_bank_functions() &&
                       result.row_mask == mapping.config().row_mask;
    if (!exact) {
      std::printf("SOLVER MISS: %s not recovered exactly\n", name.c_str());
      ok = false;
    }
  }
  std::printf("solver                 : all menu geometries recovered "
              "exactly %s\n",
              ok ? "" : "FAILED");
  return ok;
}

/// Throughput legs run the generator at its DEFAULT loudness (2% of the
/// fleet hammered): the gate prices what enabling the subsystem costs a
/// realistic campaign, not an artificially loud one.
sim::CampaignConfig throughput_campaign(bool hammer) {
  sim::CampaignConfig config;
  config.seed = 17;
  config.window.start = from_civil_utc({2015, 9, 1, 0, 0, 0});
  config.window.end = from_civil_utc({2015, 11, 1, 0, 0, 0});
  config.faults.enable_hammer = hammer;
  return config;
}

/// The mitigation leg hammers a tenth of the fleet so the recall and
/// false-retirement statistics rest on hundreds of victim rows.
sim::CampaignConfig mitigation_campaign() {
  sim::CampaignConfig config = throughput_campaign(true);
  config.faults.hammer.hammered_node_fraction = 0.10;
  config.faults.hammer.episodes_per_node_mean = 2.0;
  return config;
}

double best_of_two_campaign_s(const sim::CampaignConfig& config,
                              std::uint64_t& records) {
  double best = 0.0;
  for (int attempt = 0; attempt < 2; ++attempt) {
    DiscardSink sink;
    const auto t0 = std::chrono::steady_clock::now();
    (void)sim::run_campaign_streaming(config, {&sink}, /*threads=*/8);
    const double elapsed = seconds_since(t0);
    records = sink.records();
    best = attempt == 0 ? elapsed : std::min(best, elapsed);
  }
  return best;
}

void write_json(const std::string& path, bool solver_ok, double baseline_s,
                double hammer_s, double ratio, bool throughput_ok,
                std::uint64_t true_rows, std::uint64_t retired_true,
                std::uint64_t retired_spurious, std::uint64_t rows_retired,
                double recall, bool mitigation_ok, bool pass) {
  std::FILE* f = bench::open_json(path);
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"perf_hammer\",\n"
               "  \"solver_ok\": %s,\n"
               "  \"baseline_s\": %.3f,\n"
               "  \"hammer_s\": %.3f,\n"
               "  \"throughput_ratio\": %.3f,\n"
               "  \"required_ratio\": 0.90,\n"
               "  \"throughput_ok\": %s,\n"
               "  \"true_victim_rows\": %llu,\n"
               "  \"retired_true\": %llu,\n"
               "  \"retired_spurious\": %llu,\n"
               "  \"rows_retired\": %llu,\n"
               "  \"recall\": %.4f,\n"
               "  \"required_recall\": 0.95,\n"
               "  \"mitigation_ok\": %s,\n"
               "  \"pass\": %s\n"
               "}\n",
               solver_ok ? "true" : "false", baseline_s, hammer_s, ratio,
               throughput_ok ? "true" : "false",
               static_cast<unsigned long long>(true_rows),
               static_cast<unsigned long long>(retired_true),
               static_cast<unsigned long long>(retired_spurious),
               static_cast<unsigned long long>(rows_retired), recall,
               mitigation_ok ? "true" : "false", pass ? "true" : "false");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_hammer.json";
  const bench::CliParser cli("bench_perf_hammer", argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      const char* v = cli.next_value(i, "--json");
      if (v == nullptr) return 2;
      json_path = v;
    } else {
      std::fprintf(stderr, "usage: %s [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header(
      "perf_hammer - solver exactness, campaign throughput, mitigation",
      "every geometry recovered from timing alone; hammer campaign >= 90% "
      "of baseline throughput; closed loop retires >= 95% of victim rows");

  const bool solver_ok = run_solver_gate();

  // --- Throughput: hammer-enabled vs time-driven baseline. ------------------
  std::uint64_t baseline_records = 0;
  std::uint64_t hammer_records = 0;
  const double baseline_s =
      best_of_two_campaign_s(throughput_campaign(false), baseline_records);
  const double hammer_s =
      best_of_two_campaign_s(throughput_campaign(true), hammer_records);
  const double baseline_rps = static_cast<double>(baseline_records) / baseline_s;
  const double hammer_rps = static_cast<double>(hammer_records) / hammer_s;
  const double ratio = hammer_rps / baseline_rps;
  const bool throughput_ok = ratio >= 0.90;
  std::printf("throughput             : baseline %.0f rec/s (%.2f s), "
              "hammer %.0f rec/s (%.2f s), ratio %.2f %s\n",
              baseline_rps, baseline_s, hammer_rps, hammer_s, ratio,
              throughput_ok ? "" : "FAILED");

  // --- Mitigation: the closed loop against ground truth. --------------------
  policy::HammerLoopConfig loop;
  loop.campaign = mitigation_campaign();
  loop.threads = 8;
  const policy::HammerMitigationResult result =
      policy::run_hammer_mitigation(loop);
  const bool recall_ok = result.recall >= 0.95;
  const bool spurious_ok =
      result.retired_spurious <= 1 + result.rows_retired / 10;
  const bool mitigation_ok = recall_ok && spurious_ok;
  std::printf("mitigation             : recall %.3f (%llu of %llu rows), "
              "%llu spurious of %llu retired %s\n",
              result.recall,
              static_cast<unsigned long long>(result.retired_true),
              static_cast<unsigned long long>(result.true_victim_rows),
              static_cast<unsigned long long>(result.retired_spurious),
              static_cast<unsigned long long>(result.rows_retired),
              mitigation_ok ? "" : "FAILED");

  const bool pass = solver_ok && throughput_ok && mitigation_ok;
  write_json(json_path, solver_ok, baseline_s, hammer_s, ratio, throughput_ok,
             result.true_victim_rows, result.retired_true,
             result.retired_spurious, result.rows_retired, result.recall,
             mitigation_ok, pass);
  std::printf("results written to %s\n", json_path.c_str());
  if (!pass) {
    std::printf("\nPERF GATE FAILED (%s%s%s)\n",
                solver_ok ? "" : "solver ",
                throughput_ok ? "" : "throughput ",
                mitigation_ok ? "" : "mitigation");
    return 1;
  }
  std::printf("\nperf gates met\n");
  return 0;
}
