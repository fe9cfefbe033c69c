#include "ecc/registry.hpp"

#include <charconv>

#include "ecc/bch.hpp"
#include "ecc/chipkill.hpp"
#include "ecc/hamming.hpp"
#include "ecc/hsiao.hpp"
#include "ecc/large.hpp"

namespace unp::ecc {
namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

/// Parse a positive decimal integer occupying the whole of `text`.
bool parse_int(std::string_view text, int* out) {
  int value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size() || value <= 0) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

const char* to_string(Verdict verdict) noexcept {
  switch (verdict) {
    case Verdict::kCorrect: return "correct";
    case Verdict::kMiscorrect: return "miscorrect";
    case Verdict::kDetectOnly: return "detect_only";
    case Verdict::kSdc: return "sdc";
  }
  return "unknown";
}

std::unique_ptr<Code> make_code(std::string_view spec, std::string* error) {
  try {
    if (spec == "secded72") return std::make_unique<HsiaoCode>(64, 8, "secded72");
    if (spec == "chipkill") return std::make_unique<ChipkillCode>();

    const std::size_t colon = spec.find(':');
    if (colon == std::string_view::npos) {
      set_error(error, "unknown code spec '" + std::string(spec) +
                           "' (expected secded72, chipkill, hamming:D, "
                           "hsiao:D/K, bch:D/T, or large:SIZE/T)");
      return nullptr;
    }
    const std::string_view family = spec.substr(0, colon);
    const std::string_view params = spec.substr(colon + 1);
    const std::size_t slash = params.find('/');
    const std::string_view first =
        slash == std::string_view::npos ? params : params.substr(0, slash);
    const std::string_view second =
        slash == std::string_view::npos ? std::string_view{}
                                        : params.substr(slash + 1);

    if (family == "hamming") {
      int d = 0;
      if (slash != std::string_view::npos || !parse_int(first, &d)) {
        set_error(error, "bad hamming spec '" + std::string(spec) +
                             "' (expected hamming:D, D a positive integer)");
        return nullptr;
      }
      return std::make_unique<HammingCode>(d);
    }
    if (family == "hsiao") {
      int d = 0;
      int k = 0;
      if (!parse_int(first, &d) ||
          (slash != std::string_view::npos && !parse_int(second, &k))) {
        set_error(error, "bad hsiao spec '" + std::string(spec) +
                             "' (expected hsiao:D or hsiao:D/K)");
        return nullptr;
      }
      return std::make_unique<HsiaoCode>(d, k);
    }
    if (family == "bch") {
      int d = 0;
      int t = 0;
      if (!parse_int(first, &d) || slash == std::string_view::npos ||
          !parse_int(second, &t)) {
        set_error(error, "bad bch spec '" + std::string(spec) +
                             "' (expected bch:D/T)");
        return nullptr;
      }
      return std::make_unique<BchCode>(d, t);
    }
    if (family == "large") {
      int block_bytes = 0;
      if (first == "512B") {
        block_bytes = 512;
      } else if (first == "1KB") {
        block_bytes = 1024;
      } else if (first == "4KB") {
        block_bytes = 4096;
      } else {
        set_error(error, "bad large spec '" + std::string(spec) +
                             "' (size must be 512B, 1KB, or 4KB)");
        return nullptr;
      }
      int t = 8;
      if (slash != std::string_view::npos && !parse_int(second, &t)) {
        set_error(error, "bad large spec '" + std::string(spec) +
                             "' (expected large:SIZE or large:SIZE/T)");
        return nullptr;
      }
      return std::make_unique<LargeBlockCode>(block_bytes, t);
    }

    set_error(error, "unknown code family '" + std::string(family) +
                         "' (expected hamming, hsiao, bch, or large)");
    return nullptr;
  } catch (const std::exception& e) {
    set_error(error, "invalid parameters in code spec '" + std::string(spec) +
                         "': " + e.what());
    return nullptr;
  }
}

const std::vector<std::string>& default_code_specs() {
  static const std::vector<std::string> kSpecs = {
      "secded72",  "chipkill",    "hamming:64", "hsiao:64/8",
      "bch:64/2",  "large:512B/8", "large:4KB/8",
  };
  return kSpecs;
}

}  // namespace unp::ecc
