// The pluggable ECC evaluation interface (ROADMAP item 1).
//
// The paper's counterfactual — "what would a protected system have seen?"
// (Sections III-C/D) — is answered here and only here, as real coding
// theory: a Code encodes data, an evaluator injects an error pattern, the
// code decodes, and the verdict is decided by comparing the decoded data
// with the truth.  Everything the study injects is a *bit-flip pattern*,
// and every implemented code is linear, so the verdict of a pattern is
// independent of the data word it lands on: evaluate() takes only the
// flipped codeword-bit positions.  That is what makes exhaustive
// enumeration of C(n,k) patterns (engine.hpp) affordable at billions of
// trials — no codeword buffers, just syndrome arithmetic per pattern.
//
// Codeword geometry convention: bit positions [0, data_bits) are the data
// bits (a 32-bit scanner fault mask embeds at position 0 upward, so the
// upper data bits stay clean — conservative, since extra clean bits never
// mask an error), positions [data_bits, codeword_bits) are check/EDC bits.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

namespace unp::ecc {

/// What the application sees after the decoder ran on a corrupted word.
enum class Verdict : std::uint8_t {
  kCorrect,     ///< decoded data equals the original (incl. the clean word)
  kMiscorrect,  ///< decoder claimed success but returned wrong data
  kDetectOnly,  ///< decoder signalled an uncorrectable error (crash, no SDC)
  kSdc,         ///< decoder saw a valid word: silent data corruption
};

[[nodiscard]] const char* to_string(Verdict verdict) noexcept;

/// Outcome tally over one evaluated error space or fault population.
struct VerdictCounts {
  std::uint64_t correct = 0;
  std::uint64_t miscorrect = 0;
  std::uint64_t detect_only = 0;
  std::uint64_t sdc = 0;

  void add(Verdict v, std::uint64_t n = 1) noexcept {
    switch (v) {
      case Verdict::kCorrect: correct += n; break;
      case Verdict::kMiscorrect: miscorrect += n; break;
      case Verdict::kDetectOnly: detect_only += n; break;
      case Verdict::kSdc: sdc += n; break;
    }
  }
  void add(const VerdictCounts& o) noexcept {
    correct += o.correct;
    miscorrect += o.miscorrect;
    detect_only += o.detect_only;
    sdc += o.sdc;
  }
  [[nodiscard]] std::uint64_t total() const noexcept {
    return correct + miscorrect + detect_only + sdc;
  }
  /// Wrong data reaching the application without any signal.
  [[nodiscard]] std::uint64_t silent() const noexcept {
    return miscorrect + sdc;
  }
  friend bool operator==(const VerdictCounts&, const VerdictCounts&) = default;
};

/// Static shape of one code, for reports and the policy cost model.
struct CodeGeometry {
  int data_bits = 0;      ///< payload width
  int check_bits = 0;     ///< redundancy (ECC + EDC)
  int codeword_bits = 0;  ///< data_bits + check_bits
  /// Bits the decoder is guaranteed to transparently repair.
  int guaranteed_correct = 0;
  /// Bits the decoder is guaranteed to at least signal (>= correct bound;
  /// beyond it patterns may miscorrect or pass silently).
  int guaranteed_detect = 0;

  /// Redundancy cost: check bits per data bit.
  [[nodiscard]] double overhead_fraction() const noexcept {
    return data_bits > 0
               ? static_cast<double>(check_bits) / static_cast<double>(data_bits)
               : 0.0;
  }
};

/// One encode/inject/decode-capable code.  Implementations are immutable
/// after construction and safe to share across threads.
class Code {
 public:
  virtual ~Code() = default;

  /// Canonical spec string ("hsiao:64/8", "bch:64/2", "large:4KB/8", ...).
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual CodeGeometry geometry() const noexcept = 0;

  /// Decode verdict for the error pattern flipping exactly the codeword-bit
  /// positions in `error_bits` (ascending, in [0, codeword_bits)).  An empty
  /// pattern is the clean word: kCorrect.
  [[nodiscard]] virtual Verdict evaluate(
      std::span<const int> error_bits) const = 0;
};

}  // namespace unp::ecc
