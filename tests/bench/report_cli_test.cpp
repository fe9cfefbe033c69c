// CLI contract of the report/policy drivers: malformed arguments must fail
// fast with exit code 2 and a usage message, --help must succeed, and no
// campaign may be simulated on the error path (these run in milliseconds).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/wait.h>

namespace {

int run(const std::string& args_for_binary) {
  const std::string command = args_for_binary + " >/dev/null 2>&1";
  const int status = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(status)) << command;
  return WEXITSTATUS(status);
}

/// Run with one stream captured and the other discarded: `redirect` is the
/// shell redirection applied after the arguments.
std::string run_capture(const std::string& args_for_binary,
                        const char* redirect, int& exit_code) {
  const std::string command = args_for_binary + redirect;
  std::FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  std::string output;
  char buffer[256];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) output += buffer;
  const int status = pclose(pipe);
  EXPECT_TRUE(WIFEXITED(status)) << command;
  exit_code = WEXITSTATUS(status);
  return output;
}

/// Run with stderr captured (stdout discarded), for diagnostics contracts.
std::string run_stderr(const std::string& args_for_binary, int& exit_code) {
  return run_capture(args_for_binary, " 2>&1 >/dev/null", exit_code);
}

/// Run with stdout captured (stderr discarded).
std::string run_stdout(const std::string& args_for_binary, int& exit_code) {
  return run_capture(args_for_binary, " 2>/dev/null", exit_code);
}

const std::string kReport = UNP_REPORT_BIN;
const std::string kPolicy = UNP_POLICY_BIN;
const std::string kQuery = UNP_QUERY_BIN;
const std::string kEcc = UNP_ECC_BIN;
const std::string kHammer = UNP_HAMMER_BIN;
const std::string kCampaign = UNP_CAMPAIGN_BIN;

TEST(ReportCli, UnknownFlagExitsTwo) {
  EXPECT_EQ(run(kReport + " --frobnicate"), 2);
}

TEST(ReportCli, OutOfRangeFigExitsTwo) {
  EXPECT_EQ(run(kReport + " --fig 99"), 2);
  EXPECT_EQ(run(kReport + " --fig 0"), 2);
}

TEST(ReportCli, MalformedNumberExitsTwo) {
  EXPECT_EQ(run(kReport + " --fig 1x"), 2);
  EXPECT_EQ(run(kReport + " --seed banana"), 2);
  EXPECT_EQ(run(kReport + " --threads 0"), 2);
}

TEST(ReportCli, MissingValueExitsTwo) {
  EXPECT_EQ(run(kReport + " --fig"), 2);
}

TEST(ReportCli, HelpExitsZero) {
  EXPECT_EQ(run(kReport + " --help"), 0);
}

TEST(ReportCli, UnknownExtSectionListsRegisteredNames) {
  int exit_code = 0;
  const std::string err = run_stderr(kReport + " --ext bogus", exit_code);
  EXPECT_EQ(exit_code, 2);
  // The diagnostic enumerates the section registry, so a user who guesses
  // wrong learns every valid name - including newly registered ones.
  for (const char* name : {"temporal", "markov", "alignment", "ecc", "hammer"}) {
    EXPECT_NE(err.find(name), std::string::npos)
        << "missing '" << name << "' in: " << err;
  }
  EXPECT_NE(err.find("bogus"), std::string::npos) << err;
}

TEST(PolicyCli, UnknownFlagExitsTwo) {
  EXPECT_EQ(run(kPolicy + " --frobnicate"), 2);
}

TEST(PolicyCli, UnknownPolicyNameExitsTwo) {
  EXPECT_EQ(run(kPolicy + " --policy bogus"), 2);
}

TEST(PolicyCli, MalformedNumberExitsTwo) {
  EXPECT_EQ(run(kPolicy + " --period -3"), 2);
  EXPECT_EQ(run(kPolicy + " --trigger 3.5"), 2);
  EXPECT_EQ(run(kPolicy + " --threads 0"), 2);
}

TEST(PolicyCli, ExclusiveModesExitTwo) {
  EXPECT_EQ(run(kPolicy + " --sweep --closed-loop"), 2);
}

TEST(PolicyCli, HelpExitsZero) {
  EXPECT_EQ(run(kPolicy + " --help"), 0);
}

TEST(ReportCli, StoreExcludesLivePipelineFlags) {
  EXPECT_EQ(run(kReport + " --store x.unpf --seed 5"), 2);
  EXPECT_EQ(run(kReport + " --store x.unpf --merge-window 60"), 2);
  EXPECT_EQ(run(kReport + " --store x.unpf --cache-dir /tmp"), 2);
}

TEST(ReportCli, MissingStoreFileExitsTwo) {
  EXPECT_EQ(run(kReport + " --store /nonexistent/no.unpf"), 2);
}

TEST(ReportCli, CorruptStoreFileExitsTwo) {
  const std::string path = ::testing::TempDir() + "corrupt_report.unpf";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("UNPF this is not a valid store", f);
  std::fclose(f);
  EXPECT_EQ(run(kReport + " --store " + path), 2);
  std::remove(path.c_str());
}

TEST(QueryCli, UnknownFlagExitsTwo) {
  EXPECT_EQ(run(kQuery + " --frobnicate"), 2);
}

TEST(QueryCli, RequiresASource) {
  EXPECT_EQ(run(kQuery + " --count"), 2);
  EXPECT_EQ(run(kQuery), 2);
}

TEST(QueryCli, ExclusiveSourcesExitTwo) {
  EXPECT_EQ(run(kQuery + " --build a.unpf --store b.unpf"), 2);
}

TEST(QueryCli, MalformedPredicatesExitTwo) {
  EXPECT_EQ(run(kQuery + " --store x.unpf --blade 63"), 2);
  EXPECT_EQ(run(kQuery + " --store x.unpf --soc 15"), 2);
  EXPECT_EQ(run(kQuery + " --store x.unpf --node banana"), 2);
  EXPECT_EQ(run(kQuery + " --store x.unpf --class huge"), 2);
  EXPECT_EQ(run(kQuery + " --store x.unpf --min-bits 0"), 2);
  EXPECT_EQ(run(kQuery + " --store x.unpf --min-bits 5 --max-bits 2"), 2);
  EXPECT_EQ(run(kQuery + " --store x.unpf --fig 14"), 2);
}

TEST(QueryCli, MissingStoreFileExitsTwo) {
  EXPECT_EQ(run(kQuery + " --store /nonexistent/no.unpf --count"), 2);
}

TEST(QueryCli, CorruptStoreFileExitsTwo) {
  const std::string path = ::testing::TempDir() + "corrupt_query.unpf";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not even the right magic", f);
  std::fclose(f);
  EXPECT_EQ(run(kQuery + " --store " + path + " --count"), 2);
  std::remove(path.c_str());
}

TEST(QueryCli, HelpExitsZero) {
  EXPECT_EQ(run(kQuery + " --help"), 0);
}

TEST(EccCli, UnknownFlagExitsTwo) {
  EXPECT_EQ(run(kEcc + " --frobnicate"), 2);
}

TEST(EccCli, RequiresAMode) {
  EXPECT_EQ(run(kEcc), 2);
  EXPECT_EQ(run(kEcc + " --code secded72"), 2);
}

TEST(EccCli, MalformedCodeSpecExitsTwo) {
  EXPECT_EQ(run(kEcc + " --code bogus --exhaustive 2"), 2);
  EXPECT_EQ(run(kEcc + " --code hamming:zero --exhaustive 2"), 2);
  EXPECT_EQ(run(kEcc + " --code large:777B/8 --exhaustive 2"), 2);
}

TEST(EccCli, MalformedNumbersExitTwo) {
  EXPECT_EQ(run(kEcc + " --exhaustive 0"), 2);
  EXPECT_EQ(run(kEcc + " --exhaustive 65"), 2);
  EXPECT_EQ(run(kEcc + " --exhaustive banana"), 2);
  EXPECT_EQ(run(kEcc + " --threads 0 --exhaustive 2"), 2);
}

TEST(EccCli, ExhaustiveWorkloadRefusalExitsTwo) {
  // C(72,16) patterns is far beyond the enumerable ceiling; the CLI must
  // refuse with an estimate instead of starting a year-long loop.
  EXPECT_EQ(run(kEcc + " --code secded72 --exhaustive 16"), 2);
}

TEST(EccCli, DefaultMenuSkipsOverLimitCodes) {
  // With no --code, a menu code beyond the enumeration ceiling is listed as
  // skipped and the run goes on: K=3 over the large codes is ~10^10+
  // patterns, while every other menu code enumerates in milliseconds.
  int exit_code = 0;
  const std::string out = run_stdout(kEcc + " --exhaustive 3", exit_code);
  EXPECT_EQ(exit_code, 0);
  EXPECT_NE(out.find("large:512B/8  skipped ("), std::string::npos) << out;
  EXPECT_NE(out.find("large:4KB/8  skipped ("), std::string::npos) << out;
  EXPECT_NE(out.find("bch:64/2"), std::string::npos) << out;
}

TEST(EccCli, StoreRequiresPopulationMode) {
  EXPECT_EQ(run(kEcc + " --store x.unpf --exhaustive 2"), 2);
}

TEST(EccCli, StoreExcludesLivePipelineFlags) {
  EXPECT_EQ(run(kEcc + " --population --store x.unpf --seed 5"), 2);
}

TEST(EccCli, PopulationRefusesNarrowCodeUpFront) {
  // Population masks are 32-bit; a narrower code is refused at parse time,
  // naming the code and its data width, before any campaign is simulated.
  int exit_code = 0;
  const std::string err =
      run_stderr(kEcc + " --population --code hamming:8", exit_code);
  EXPECT_EQ(exit_code, 2);
  EXPECT_NE(err.find("hamming:8"), std::string::npos) << err;
  EXPECT_NE(err.find("8 data bits"), std::string::npos) << err;
  EXPECT_EQ(err.find("precondition"), std::string::npos) << err;
}

TEST(EccCli, ExhaustiveRefusesWeightBeyondCodeword) {
  int exit_code = 0;
  const std::string err =
      run_stderr(kEcc + " --code hamming:4 --exhaustive 20", exit_code);
  EXPECT_EQ(exit_code, 2);
  EXPECT_NE(err.find("hamming:4"), std::string::npos) << err;
  EXPECT_NE(err.find("8 bits"), std::string::npos) << err;
  EXPECT_EQ(err.find("precondition"), std::string::npos) << err;
}

TEST(EccCli, MissingStoreFileExitsTwo) {
  EXPECT_EQ(run(kEcc + " --population --store /nonexistent/no.unpf"), 2);
}

TEST(EccCli, HelpExitsZero) {
  EXPECT_EQ(run(kEcc + " --help"), 0);
}

TEST(EccCli, SmallExhaustiveSweepSucceeds) {
  EXPECT_EQ(run(kEcc + " --code secded72 --exhaustive 2"), 0);
}

TEST(HammerCli, UnknownFlagExitsTwo) {
  EXPECT_EQ(run(kHammer + " --frobnicate"), 2);
}

TEST(HammerCli, RequiresExactlyOneMode) {
  EXPECT_EQ(run(kHammer), 2);
  EXPECT_EQ(run(kHammer + " --solve --campaign"), 2);
  EXPECT_EQ(run(kHammer + " --campaign --mitigate"), 2);
}

TEST(HammerCli, UnknownGeometryListsMenu) {
  int exit_code = 0;
  const std::string err =
      run_stderr(kHammer + " --solve --geometry bogus", exit_code);
  EXPECT_EQ(exit_code, 2);
  EXPECT_NE(err.find("lpddr3:mb"), std::string::npos) << err;
  EXPECT_NE(err.find("ddr4:2ch"), std::string::npos) << err;
}

TEST(HammerCli, GeometryRequiresSolveMode) {
  EXPECT_EQ(run(kHammer + " --campaign --geometry lpddr3:mb"), 2);
}

TEST(HammerCli, MalformedNumbersExitTwo) {
  EXPECT_EQ(run(kHammer + " --solve --days 0"), 2);
  EXPECT_EQ(run(kHammer + " --solve --days 400"), 2);
  EXPECT_EQ(run(kHammer + " --solve --fraction-pct 101"), 2);
  EXPECT_EQ(run(kHammer + " --solve --episodes banana"), 2);
  EXPECT_EQ(run(kHammer + " --solve --threads 0"), 2);
}

TEST(HammerCli, HelpExitsZero) {
  EXPECT_EQ(run(kHammer + " --help"), 0);
}

TEST(HammerCli, SingleGeometrySolveSucceeds) {
  EXPECT_EQ(run(kHammer + " --solve --geometry ddr3:1ch"), 0);
}

TEST(CampaignCli, ShardCountBeyondIntRangeExitsTwo) {
  // ShardSpec holds ints: a --shards/--shard value past INT_MAX must be
  // refused, not truncated (4294967298 would wrap to a 2-way partition).
  const std::string out = ::testing::TempDir() + "campaign_cli_shards";
  std::filesystem::create_directories(out);
  EXPECT_EQ(run(kCampaign + " --shards 4294967298 --shard 1 --out " + out), 2);
  EXPECT_EQ(run(kCampaign + " --shards 2 --shard 4294967297 --out " + out), 2);
}

}  // namespace
