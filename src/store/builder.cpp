#include "store/builder.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "common/require.hpp"

namespace unp::store {

using telemetry::put_varint;
using telemetry::zigzag_encode;

StoredScanProfile scan_profile_from(const analysis::ScanProfileSink& scan) {
  StoredScanProfile profile;
  profile.monitored_nodes = scan.monitored_nodes();
  profile.hours = scan.hours_grid();
  profile.terabyte_hours = scan.terabyte_hours_grid();
  profile.daily_terabyte_hours = scan.daily_terabyte_hours();
  profile.total_hours = scan.total_monitored_hours();
  profile.total_terabyte_hours = scan.total_terabyte_hours();
  return profile;
}

StoredExtractionMeta extraction_meta_from(
    const analysis::ExtractionResult& extraction) {
  StoredExtractionMeta meta;
  meta.removed_nodes = extraction.removed_nodes;
  meta.total_raw_logs = extraction.total_raw_logs;
  meta.removed_raw_logs = extraction.removed_raw_logs;
  return meta;
}

StoreBuilder::StoreBuilder(const Config& config) : config_(config) {
  UNP_REQUIRE(config_.segment_rows > 0);
}

void StoreBuilder::begin_faults(const analysis::FaultStreamContext& ctx) {
  UNP_REQUIRE(!stream_open_);
  window_ = ctx.window;
  stream_open_ = true;
}

void StoreBuilder::on_fault(const analysis::FaultRecord& fault) {
  pending_.push_back(fault);
  ++rows_;
  if (pending_.size() >= config_.segment_rows) flush_segment();
}

void StoreBuilder::end_faults() {
  flush_segment();
  stream_open_ = false;
}

void StoreBuilder::set_scan_profile(StoredScanProfile profile) {
  scan_profile_ = std::move(profile);
}

void StoreBuilder::set_extraction_meta(StoredExtractionMeta meta) {
  extraction_meta_ = std::move(meta);
}

void StoreBuilder::flush_segment() {
  if (pending_.empty()) return;
  SegmentZone zone;
  zone.offset = data_.size();
  // Encode straight into the data section — no per-segment body string to
  // allocate and copy.
  encode_segment_into(pending_, zone, data_, arena_);
  zones_.push_back(zone);
  pending_.clear();
}

std::string StoreBuilder::encode() const {
  UNP_REQUIRE(!stream_open_ && pending_.empty());
  std::string out;
  out.append(kStoreMagic, sizeof kStoreMagic);
  out.push_back(static_cast<char>(kStoreVersion));
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>((fingerprint_ >> (8 * i)) & 0xFF));
  put_varint(out, zigzag_encode(window_.start));
  put_varint(out, zigzag_encode(window_.end));
  encode_scan_profile(out, scan_profile_);
  encode_extraction_meta(out, extraction_meta_);
  put_varint(out, zones_.size());
  for (const SegmentZone& zone : zones_) encode_zone(out, zone);
  out += data_;
  return out;
}

void StoreBuilder::write(const std::string& path) const {
  const std::string bytes = encode();
  // Same-directory temp name unique per process, so concurrent builders
  // racing on one path each rename a complete file into place.
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    UNP_REQUIRE(os.good());
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    UNP_REQUIRE(os.good());
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ContractViolation("cannot rename store temp file over " + path);
  }
}

void write_store(const std::string& path,
                 const analysis::ExtractionResult& extraction,
                 const analysis::ScanProfileSink& scan,
                 std::uint64_t fingerprint,
                 const StoreBuilder::Config& config) {
  StoreBuilder builder(config);
  builder.set_fingerprint(fingerprint);
  builder.set_scan_profile(scan_profile_from(scan));
  builder.set_extraction_meta(extraction_meta_from(extraction));
  builder.begin_faults({scan.window()});
  for (const analysis::FaultRecord& fault : extraction.faults)
    builder.on_fault(fault);
  builder.end_faults();
  builder.write(path);
}

void write_partitioned_store(const std::vector<std::string>& part_paths,
                             const analysis::ExtractionResult& extraction,
                             const analysis::ScanProfileSink& scan,
                             std::uint64_t fingerprint,
                             const StoreBuilder::Config& config) {
  UNP_REQUIRE(!part_paths.empty());
  const std::size_t parts = part_paths.size();
  const std::size_t rows = extraction.faults.size();
  const std::size_t stride = (rows + parts - 1) / parts;  // ceil; 0 if empty
  for (std::size_t p = 0; p < parts; ++p) {
    StoreBuilder builder(config);
    builder.set_fingerprint(fingerprint);
    builder.set_scan_profile(scan_profile_from(scan));
    builder.set_extraction_meta(extraction_meta_from(extraction));
    builder.begin_faults({scan.window()});
    const std::size_t lo = std::min(p * stride, rows);
    const std::size_t hi = std::min(lo + stride, rows);
    for (std::size_t i = lo; i < hi; ++i) builder.on_fault(extraction.faults[i]);
    builder.end_faults();
    builder.write(part_paths[p]);
  }
}

}  // namespace unp::store
