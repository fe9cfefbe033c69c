// SECDED(72,64) outcome characterization by error weight.
//
// Grounds the paper's SDC arithmetic: SECDED corrects weight-1, detects
// weight-2, and for wider errors splits between detection, miscorrection
// and (for even weights whose syndrome cancels) complete silence.  Weights
// 1 and 2 are verified exhaustively; higher weights are Monte Carlo.  The
// silent fractions here are what turns Table I's ">2 corrupted bits" rows
// into the paper's silent-data-corruption exposure.
#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/table.hpp"
#include "ecc/registry.hpp"
#include "util/campaign_cache.hpp"

int main() {
  using namespace unp;
  bench::print_header(
      "SECDED(72,64) outcome characterization by error weight",
      "w=1 always corrected; w=2 always detected; w>2 splits into detected / "
      "miscorrected / undetected - the SDC exposure");

  const auto code = ecc::make_code("secded72");
  RngStream rng(4242);

  TextTable table({"Flipped data bits", "Samples", "Corrected OK",
                   "Detected", "Miscorrected", "Silent (clean decode)"});

  std::vector<int> bits;
  for (int weight = 1; weight <= 8; ++weight) {
    ecc::VerdictCounts counts;

    // The code is linear, so a verdict depends only on the flipped data-bit
    // positions, never on the data word they land on.
    auto classify = [&](std::uint64_t mask) {
      bits.clear();
      for (int b = 0; b < 64; ++b) {
        if ((mask >> b) & 1u) bits.push_back(b);
      }
      counts.add(code->evaluate(bits));
    };

    if (weight <= 2) {
      // Exhaustive over bit positions.
      if (weight == 1) {
        for (int i = 0; i < 64; ++i) classify(1ULL << i);
      } else {
        for (int i = 0; i < 64; ++i) {
          for (int j = i + 1; j < 64; ++j) classify((1ULL << i) | (1ULL << j));
        }
      }
    } else {
      constexpr std::uint64_t kSamples = 200000;
      for (std::uint64_t s = 0; s < kSamples; ++s) {
        // Draw (and ignore) a data word before each mask: the verdict does
        // not depend on it, but the draw order fixes the sampled masks.
        static_cast<void>(rng.next_u64());
        std::uint64_t mask = 0;
        while (std::popcount(mask) < weight) {
          mask |= 1ULL << rng.uniform_u64(64);
        }
        classify(mask);
      }
    }
    const std::uint64_t samples = counts.total();

    auto pct = [&](std::uint64_t v) {
      return format_fixed(100.0 * static_cast<double>(v) /
                              static_cast<double>(samples),
                          3) + "%";
    };
    table.add_row({std::to_string(weight), format_count(samples),
                   pct(counts.correct), pct(counts.detect_only),
                   pct(counts.miscorrect), pct(counts.sdc)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "(miscorrected = the decoder 'fixed' a healthy bit; silent = the\n"
      " corrupted word decoded as valid.  Both reach the application as\n"
      " wrong data - the per-weight SDC exposure behind Section III-D)\n");
  return 0;
}
