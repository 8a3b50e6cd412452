#include "net/receiver.h"

#include <algorithm>
#include <utility>

#include "net/sender.h"

namespace fecsched::net {

NetReceiver::NetReceiver(std::shared_ptr<const StreamPlan> plan,
                         std::size_t payload_bytes, std::uint32_t object_id)
    : plan_(std::move(plan)),
      payload_bytes_(payload_bytes),
      object_id_(object_id) {
  core_.reset(*plan_, payload_bytes_);
  if (plan_->rse()) rse_.emplace(plan_->rse(), payload_bytes_);
}

NetReceiver::NetReceiver(const StreamTrialConfig& cfg,
                         std::size_t payload_bytes, std::uint64_t seed,
                         std::uint32_t object_id)
    : NetReceiver(std::make_shared<const StreamPlan>(cfg, seed), payload_bytes,
                  object_id) {}

void NetReceiver::verify(std::uint64_t s,
                         std::span<const std::uint8_t> payload) {
  NetSender::source_payload(plan_->seed(), s, payload_bytes_, expected_);
  if (payload.size() == expected_.size() &&
      std::equal(payload.begin(), payload.end(), expected_.begin()))
    ++verified_;
  else
    ++mismatches_;
}

bool NetReceiver::accept(const ParsedFrame& parsed) const {
  // A report frame has no business on the data path.
  if (parsed.type != FrameType::kData) return false;
  const DataFrame& frame = parsed.data;
  const StreamTrialConfig& cfg = plan_->config();
  const std::uint64_t S = cfg.source_count;
  if (frame.object_id != object_id_ ||
      frame.scheme != static_cast<std::uint8_t>(cfg.scheme) ||
      frame.coding_seed != plan_->coding_seed() ||
      frame.payload.size() != payload_bytes_)
    return false;
  if (!is_paced(cfg.scheme)) return frame.symbol_id < plan_->code_length();
  if (!frame.repair) return frame.symbol_id < S;
  if (frame.symbol_id < S) return false;  // repair ids continue past S
  // Replication names the duplicated source; a sliding repair covers
  // [span_first, span_last), at most one window wide.
  if (cfg.scheme == StreamScheme::kSlidingWindow)
    return frame.span_last <= S &&
           frame.span_last - frame.span_first <= cfg.window;
  return frame.span_first < S && frame.span_last == frame.span_first;
}

void NetReceiver::on_slot(const ParsedFrame* frame, std::uint64_t slot) {
  with_scheme(plan_->config().scheme,
              [&](auto scheme) { on_slot(scheme, frame, slot); });
}

ReportFrame NetReceiver::take_report() {
  ReportFrame frame;
  frame.object_id = object_id_;
  frame.report = LossReport::from_events(events_);
  events_.clear();
  return frame;
}

}  // namespace fecsched::net
