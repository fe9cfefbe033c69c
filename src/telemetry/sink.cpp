#include "telemetry/sink.hpp"

#include "telemetry/archive.hpp"
#include "telemetry/binary_codec.hpp"

namespace unp::telemetry {

void replay_node_log(const NodeLog& log, RecordSink& sink) {
  for (const auto& r : log.starts()) sink.on_start(r);
  for (const auto& r : log.ends()) sink.on_end(r);
  for (const auto& r : log.alloc_fails()) sink.on_alloc_fail(r);
  for (const auto& r : log.error_runs()) sink.on_error_run(r);
}

void RecordSink::on_node_log(EncodedNodeLog& log) {
  replay_node_log(log.log(), *this);
}

const std::string& EncodedNodeLog::bytes() {
  if (!encoded_) {
    scratch_->clear();
    encode_node_log_into(*log_, *scratch_);
    encoded_ = true;
  }
  return *scratch_;
}

bool EncodedNodeLog::empty() const noexcept { return log_->empty(); }

}  // namespace unp::telemetry
