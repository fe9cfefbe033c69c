// Opens a perf gate's BENCH_*.json result file; each gate prints its own
// keys, key order and number formats into it.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

namespace unp::bench {

/// `path` opened for writing, or exit(1) with a FATAL line if it cannot be.
inline std::FILE* open_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "FATAL: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return f;
}

}  // namespace unp::bench
