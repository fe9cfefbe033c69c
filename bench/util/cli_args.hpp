// Shared strict argument parsing for the CLI drivers (unp_report,
// unp_policy, unp_query, unp_campaign, unp_ecc, unp_hammer, unp_serve,
// unp_study, and the live_scan example).
//
// Every driver follows the same contract: malformed input prints one
// program-prefixed diagnostic to stderr and makes the driver exit 2 without
// touching the pipeline.  Number parsing is whole-string strict — "1x", ""
// and "3.5" are rejected rather than silently truncated the way bare
// strtol would.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace unp::bench {

/// Whole-string signed parse; rejects trailing garbage and empty input.
[[nodiscard]] bool parse_long_strict(const char* text, long& out);
/// Whole-string unsigned parse with the same strictness.
[[nodiscard]] bool parse_u64_strict(const char* text, std::uint64_t& out);

/// Cursor over argv that owns the diagnostic format, so all drivers report
/// missing values and out-of-range numbers identically.
class CliParser {
 public:
  CliParser(const char* program, int argc, char** argv)
      : program_(program), argc_(argc), argv_(argv) {}

  /// The value following argv[i], advancing i; nullptr (after printing
  /// "<program>: <flag> needs a value") when none follows.
  [[nodiscard]] const char* next_value(int& i, const char* flag) const;

  /// next_value parsed as a long constrained to [lo, hi].  The diagnostic
  /// adapts to the bound: a full range reads "expects an integer", a
  /// one-sided range "expects >= lo", a closed one "expects lo..hi".
  [[nodiscard]] bool long_in(int& i, const char* flag, long lo, long hi,
                             long& out) const;

  /// next_value parsed as an unsigned 64-bit integer.
  [[nodiscard]] bool u64(int& i, const char* flag, std::uint64_t& out) const;

  /// `--threads` parsed as a count in 1..kMaxThreads.  Each thread is an OS
  /// thread started up front, so the bound keeps a stray digit from asking
  /// for millions of them.
  [[nodiscard]] bool threads(int& i, std::size_t& out) const;

  /// Diagnostic for a value outside a fixed menu: "<program>: <flag>
  /// expects a | b | c, got '<value>'", so the user learns every valid name.
  void reject_choice(const char* flag, const char* value,
                     const std::vector<std::string>& menu) const;

  static constexpr long kMaxThreads = 1024;

  static constexpr long kNoUpperBound = std::numeric_limits<long>::max();
  static constexpr long kNoLowerBound = std::numeric_limits<long>::min();

 private:
  const char* program_;
  int argc_;
  char** argv_;
};

}  // namespace unp::bench
