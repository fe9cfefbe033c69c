#include "store/handle.hpp"

#include <cstring>
#include <utility>

#include "common/require.hpp"

namespace unp::store {

using telemetry::check_campaign_window;
using telemetry::get_varint;
using telemetry::zigzag_decode;

void StoreHandle::add_part(Part part) {
  const std::string_view buf = part.bytes;

  std::size_t pos = 0;
  if (buf.size() < sizeof kStoreMagic + 1 + 8)
    throw DecodeError("truncated store header", buf.size());
  if (std::memcmp(buf.data(), kStoreMagic, sizeof kStoreMagic) != 0)
    throw DecodeError("bad UNPF magic", 0);
  pos = sizeof kStoreMagic;
  const int version = static_cast<unsigned char>(buf[pos]);
  if (version != kStoreVersion)
    throw DecodeError("unsupported UNPF version " + std::to_string(version),
                      pos);
  ++pos;
  std::uint64_t fingerprint = 0;
  for (std::size_t i = 0; i < 8; ++i)
    fingerprint |= static_cast<std::uint64_t>(
                       static_cast<unsigned char>(buf[pos + i]))
                   << (8 * i);
  pos += 8;
  CampaignWindow window;
  const std::size_t window_offset = pos;
  window.start = zigzag_decode(get_varint(buf, pos));
  window.end = zigzag_decode(get_varint(buf, pos));
  check_campaign_window(window, window_offset);
  StoredScanProfile scan_profile = decode_scan_profile(buf, pos);
  StoredExtractionMeta extraction_meta = decode_extraction_meta(buf, pos);
  const std::uint64_t segment_count = get_varint(buf, pos);
  if (segment_count > buf.size())  // each segment occupies >= 1 byte
    throw DecodeError("segment count out of range", pos);
  std::vector<SegmentZone> zones;
  zones.reserve(static_cast<std::size_t>(segment_count));
  for (std::uint64_t i = 0; i < segment_count; ++i)
    zones.push_back(decode_zone(buf, pos));
  part.data_offset = pos;

  // The data section must be exactly the contiguous concatenation the
  // directory declares — anything else is a torn or corrupt file.
  std::uint64_t expected_offset = 0;
  std::uint64_t part_rows = 0;
  for (const SegmentZone& zone : zones) {
    if (zone.offset != expected_offset)
      throw DecodeError("zone directory not contiguous", part.data_offset);
    expected_offset += zone.size;
    part_rows += zone.rows;
  }
  if (part.data_offset + expected_offset != buf.size())
    throw DecodeError("data section size mismatch (directory declares " +
                          std::to_string(expected_offset) + " bytes, file has " +
                          std::to_string(buf.size() - part.data_offset) + ")",
                      part.data_offset);

  if (parts_.empty()) {
    fingerprint_ = fingerprint;
    window_ = window;
    scan_profile_ = std::move(scan_profile);
    extraction_meta_ = std::move(extraction_meta);
  } else {
    if (fingerprint != fingerprint_)
      throw DecodeError("store part fingerprint mismatch", 0);
    if (window.start != window_.start || window.end != window_.end)
      throw DecodeError("store part campaign window mismatch", 0);
  }
  const std::size_t part_index = parts_.size();
  for (const SegmentZone& zone : zones) {
    zones_.push_back(zone);
    zone_part_.push_back(part_index);
  }
  rows_total_ += part_rows;
  parts_.push_back(std::move(part));
  // Moving a Part (and any vector growth) can relocate the owned string's
  // bytes; re-derive every view from its storage of record.
  for (Part& p : parts_)
    p.bytes = p.owned.empty() ? p.file.view() : std::string_view(p.owned);
}

std::shared_ptr<const StoreHandle> StoreHandle::open(const std::string& path) {
  auto handle = std::shared_ptr<StoreHandle>(new StoreHandle());
  Part part;
  part.file = MappedFile::map(path);
  part.bytes = part.file.view();
  handle->add_part(std::move(part));
  return handle;
}

std::shared_ptr<const StoreHandle> StoreHandle::open_partitioned(
    const std::vector<std::string>& paths) {
  UNP_REQUIRE(!paths.empty());
  auto handle = std::shared_ptr<StoreHandle>(new StoreHandle());
  for (const std::string& path : paths) {
    try {
      Part part;
      part.file = MappedFile::map(path);
      part.bytes = part.file.view();
      handle->add_part(std::move(part));
    } catch (const DecodeError& e) {
      throw DecodeError("store part " + path + ": " + e.detail(),
                        e.byte_offset());
    }
  }
  return handle;
}

std::shared_ptr<const StoreHandle> StoreHandle::from_bytes(std::string bytes) {
  auto handle = std::shared_ptr<StoreHandle>(new StoreHandle());
  Part part;
  part.owned = std::move(bytes);
  part.bytes = part.owned;
  handle->add_part(std::move(part));
  return handle;
}

std::vector<std::string> StoreHandle::part_paths() const {
  std::vector<std::string> out;
  out.reserve(parts_.size());
  for (const Part& part : parts_)
    if (!part.file.path().empty()) out.push_back(part.file.path());
  return out;
}

StoreHandle::SegmentLocation StoreHandle::segment_location(
    std::size_t zone_index) const noexcept {
  const Part& part = parts_[zone_part_[zone_index]];
  return {part.bytes,
          part.data_offset + static_cast<std::size_t>(zones_[zone_index].offset)};
}

}  // namespace unp::store
