#include "stream/stream_receiver.h"

namespace fecsched {

void StreamReceiver::reset(const StreamPlan& plan, std::size_t payload_bytes) {
  plan_ = &plan;
  hook_ = obs::Hook();
  const std::uint32_t S = plan.source_count();
  tracker_.reset();
  for (std::uint32_t s = 0; s < S; ++s)
    tracker_.on_sent(s, static_cast<double>(plan.tx_slot(s)));
  switch (plan.config().scheme) {
    case StreamScheme::kSlidingWindow:
      if (decoder_ && decoder_bytes_ == payload_bytes) {
        decoder_->reset(plan.sliding());
      } else {
        decoder_.emplace(plan.sliding(), payload_bytes);
        decoder_bytes_ = payload_bytes;
      }
      settled_.clear();
      break;
    case StreamScheme::kReplication:
      seen_.assign(S, 0);
      horizon_ = 0;
      break;
    case StreamScheme::kBlockRse:
      seen_.assign(plan.code_length(), 0);
      block_received_.assign(plan.rse()->block_count(), 0);
      break;
    case StreamScheme::kLdgm:
      seen_.assign(plan.code_length(), 0);
      if (peeler_)
        peeler_->rebind(plan.ldgm()->matrix(), S, payload_bytes);
      else
        peeler_.emplace(plan.ldgm()->matrix(), S, payload_bytes);
      break;
  }
}

void StreamReceiver::give_up_before(std::uint64_t horizon, double t) {
  if (plan_->config().scheme == StreamScheme::kSlidingWindow) {
    hook_.timed(obs::Phase::kDecode,
                [&] { decoder_->give_up_before(horizon, settled_); });
    for (const std::uint64_t s : settled_) tracker_.on_lost(s, t);
    settled_.clear();
    return;
  }
  for (; horizon_ < horizon; ++horizon_)
    if (!seen_[horizon_]) tracker_.on_lost(horizon_, t);
}

void StreamReceiver::block_ended(std::uint32_t b, double t) {
  const BlockInfo& info = plan_->rse()->block(b);
  if (block_received_[b] == info.k) return;  // decoded
  for (PacketId src = info.source_offset; src < info.source_offset + info.k;
       ++src)
    if (!seen_[src]) {
      seen_[src] = 1;  // released as lost: no later availability
      tracker_.on_lost(src, t);
    }
}

void StreamReceiver::flush(double t) {
  switch (plan_->config().scheme) {
    case StreamScheme::kSlidingWindow:
    case StreamScheme::kReplication:
      give_up_before(plan_->source_count(), t);
      return;
    case StreamScheme::kBlockRse:
      for (std::uint32_t b = 0; b < plan_->rse()->block_count(); ++b)
        block_ended(b, t);
      return;
    case StreamScheme::kLdgm:
      for (PacketId s = 0; s < plan_->source_count(); ++s)
        if (!peeler_->is_known(s)) tracker_.on_lost(s, t);
      return;
  }
}

StreamTrialResult StreamReceiver::finish(std::uint64_t sent,
                                         std::uint64_t received) const {
  const std::uint32_t S = plan_->source_count();
  StreamTrialResult result;
  result.delay = tracker_.summary();
  result.residual = tracker_.residual_loss();
  result.delays = tracker_.delays();
  result.packets_sent = sent;
  result.packets_received = received;
  result.overhead_actual =
      static_cast<double>(sent - S) / static_cast<double>(S);
  result.all_delivered = tracker_.drained() && result.residual.lost == 0;
  return result;
}

}  // namespace fecsched
