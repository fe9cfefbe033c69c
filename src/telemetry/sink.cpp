#include "telemetry/sink.hpp"

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

EncodedNodeLog::EncodedNodeLog(cluster::NodeId node, std::string body)
    : node_(node),
      body_(std::make_shared<std::string>(std::move(body))),
      raw_known_(true),
      encoded_(true) {
  scratch_ = body_.get();
  std::size_t pos = 0;
  decode_session_sections(*body_, pos, node, own_);
  runs_at_ = pos;
  const RunSectionCount count = count_error_runs(*body_, pos);
  if (pos != body_->size()) throw DecodeError("body size mismatch", pos);
  runs_ = static_cast<std::size_t>(count.runs);
  raw_ = count.raw;
}

const NodeLog& EncodedNodeLog::log() {
  if (live_ != nullptr) return *live_;
  if (!runs_decoded_) {
    // The run section passed count_error_runs at construction, so this
    // decode cannot throw.
    std::size_t pos = runs_at_;
    decode_error_runs(*body_, pos, node_, own_);
    runs_decoded_ = true;
  }
  return own_;
}

const std::string& EncodedNodeLog::bytes() {
  if (!encoded_) {
    scratch_->clear();
    runs_at_ = encode_node_log_into(*live_, *scratch_);
    encoded_ = true;
  }
  return *scratch_;
}

SharedBody EncodedNodeLog::share_body() {
  const std::string& body = bytes();
  if (body_) return {body_, runs_at_};
  return {std::make_shared<const std::string>(body), runs_at_};
}

void EncodedNodeLog::adopt_body() {
  if (body_) return;
  body_ = std::make_shared<std::string>(std::move(*scratch_));
  scratch_->clear();
  scratch_ = body_.get();
}

}  // namespace unp::telemetry
