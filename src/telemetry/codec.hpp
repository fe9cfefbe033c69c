// Text codec for telemetry streams.
//
// One record per line, in the spirit of the original tool's log files:
//
//   START 2015-02-01T00:12:03 host=07-03 bytes=3221225472 temp=33.4
//   ERROR 2015-02-01T04:55:41 host=07-03 vaddr=0x12345678 expected=0xffffffff
//         actual=0xffff7bff temp=34.1 page=0x00012345
//   ERRRUN <...same fields...> period=90 count=12000
//   END   2015-02-01T06:00:00 host=07-03 temp=33.9
//   ALLOCFAIL 2015-02-02T10:00:00 host=07-03
//
// Fields are space-separated key=value pairs after the kind and timestamp;
// `temp` is omitted for records predating the sensors.  The parser is strict:
// unknown kinds or malformed fields throw ContractViolation.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/node_log.hpp"
#include "telemetry/record.hpp"

namespace unp::telemetry {

[[nodiscard]] std::string serialize(const StartRecord& r);
[[nodiscard]] std::string serialize(const EndRecord& r);
[[nodiscard]] std::string serialize(const AllocFailRecord& r);
[[nodiscard]] std::string serialize(const ErrorRecord& r);
[[nodiscard]] std::string serialize(const ErrorRun& r);

/// Write every record of a node log, one line each, in time order per
/// record class (the on-disk format mirrors the per-node files).
void write_node_log(std::ostream& os, const NodeLog& log);

/// Parse one line into `log`.  Empty lines and '#' comments are ignored.
/// Returns false for ignored lines, true when a record was added.
bool parse_line(const std::string& line, NodeLog& log);

/// Parse a whole stream into a node log.
[[nodiscard]] NodeLog read_node_log(std::istream& is);

}  // namespace unp::telemetry
