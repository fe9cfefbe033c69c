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

namespace {

/// `bytes` as a NodeBody, every check decode_node_log makes passed.
NodeBody validated_body(cluster::NodeId node, std::string bytes) {
  NodeBody body;
  std::size_t pos = 0;
  decode_session_sections(bytes, pos, node, body.sessions);
  body.runs_at = pos;
  const RunSectionCount count = count_error_runs(bytes, pos);
  if (pos != bytes.size()) throw DecodeError("body size mismatch", pos);
  body.runs = static_cast<std::size_t>(count.runs);
  body.raw = count.raw;
  body.bytes = std::move(bytes);
  return body;
}

}  // namespace

EncodedNodeLog::EncodedNodeLog(cluster::NodeId node, NodeBody body)
    : node_(node),
      own_(std::move(body.sessions)),
      body_(std::make_shared<std::string>(std::move(body.bytes))),
      runs_at_(body.runs_at),
      runs_(body.runs),
      raw_(body.raw),
      raw_known_(true),
      encoded_(true) {
  scratch_ = body_.get();
}

EncodedNodeLog::EncodedNodeLog(cluster::NodeId node, std::string body)
    : EncodedNodeLog(node, validated_body(node, std::move(body))) {}

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
