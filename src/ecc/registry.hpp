// Code registry: spec strings -> Code instances.
//
// The spec vocabulary (shared by unp_ecc, the report section, the perf
// gate, and the tests):
//
//   secded72          the study's SECDED(72,64): hsiao:64/8 by name
//   chipkill          SSC-DSD symbol code over x4 devices
//   hamming:D         extended Hamming SEC-DED, D data bits
//   hsiao:D/K         odd-weight-column SEC-DED, K=0 auto-sizes
//   bch:D/T           t-error-correcting binary BCH, D data bits
//   large:SIZE/T      EDC-first large-codeword scheme, SIZE in
//                     {512B, 1KB, 4KB}; /T optional (default 8)
//
// make_code returns nullptr and fills *error for a malformed spec so the
// CLI can exit 2 with a field-naming diagnostic instead of throwing.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ecc/code.hpp"

namespace unp::ecc {

/// Build the code a spec names; nullptr + *error on a malformed spec.
[[nodiscard]] std::unique_ptr<Code> make_code(std::string_view spec,
                                              std::string* error = nullptr);

/// The default evaluation sweep, in canonical report order: the two paper
/// schemes, then the configurable families at the study's word width, then
/// the large-codeword points.
[[nodiscard]] const std::vector<std::string>& default_code_specs();

/// The default sweep's codes in default_code_specs() order, built once per
/// process on first use.  Codes are immutable, so every caller and thread
/// shares the one set (building large:4KB/8 alone fills a 32,768-entry CRC
/// table).
[[nodiscard]] const std::vector<std::shared_ptr<const Code>>& default_codes();

/// The default-sweep code named `spec` (see default_codes()); nullptr for a
/// spec outside the sweep.
[[nodiscard]] std::shared_ptr<const Code> default_code(std::string_view spec);

}  // namespace unp::ecc
