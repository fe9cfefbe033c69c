#include "util/cli_args.hpp"

#include <cstdio>
#include <cstdlib>

namespace unp::bench {

bool parse_long_strict(const char* text, long& out) {
  char* end = nullptr;
  out = std::strtol(text, &end, 10);
  return end != text && *end == '\0';
}

bool parse_u64_strict(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

const char* CliParser::next_value(int& i, const char* flag) const {
  if (i + 1 >= argc_) {
    std::fprintf(stderr, "%s: %s needs a value\n", program_, flag);
    return nullptr;
  }
  return argv_[++i];
}

bool CliParser::long_in(int& i, const char* flag, long lo, long hi,
                        long& out) const {
  const char* v = next_value(i, flag);
  if (v == nullptr) return false;
  long n = 0;
  if (parse_long_strict(v, n) && n >= lo && n <= hi) {
    out = n;
    return true;
  }
  if (lo == kNoLowerBound && hi == kNoUpperBound) {
    std::fprintf(stderr, "%s: %s expects an integer, got '%s'\n", program_,
                 flag, v);
  } else if (hi == kNoUpperBound) {
    std::fprintf(stderr, "%s: %s expects >= %ld, got '%s'\n", program_, flag,
                 lo, v);
  } else {
    std::fprintf(stderr, "%s: %s expects %ld..%ld, got '%s'\n", program_, flag,
                 lo, hi, v);
  }
  return false;
}

bool CliParser::threads(int& i, std::size_t& out) const {
  long n = 0;
  if (!long_in(i, "--threads", 1, kMaxThreads, n)) return false;
  out = static_cast<std::size_t>(n);
  return true;
}

void CliParser::reject_choice(const char* flag, const char* value,
                              const std::vector<std::string>& menu) const {
  std::string names;
  for (const std::string& name : menu) {
    if (!names.empty()) names += " | ";
    names += name;
  }
  std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", program_, flag,
               names.c_str(), value);
}

bool CliParser::u64(int& i, const char* flag, std::uint64_t& out) const {
  const char* v = next_value(i, flag);
  if (v == nullptr) return false;
  if (parse_u64_strict(v, out)) return true;
  std::fprintf(stderr, "%s: %s expects an integer, got '%s'\n", program_, flag,
               v);
  return false;
}

}  // namespace unp::bench
