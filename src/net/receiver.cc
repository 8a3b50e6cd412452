#include "net/receiver.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "net/sender.h"
#include "sched/tx_models.h"
#include "util/rng.h"

namespace fecsched::net {

NetReceiver::NetReceiver(const StreamTrialConfig& cfg,
                         std::size_t payload_bytes, std::uint64_t seed,
                         std::uint32_t object_id)
    : cfg_(cfg),
      payload_bytes_(payload_bytes),
      seed_(seed),
      object_id_(object_id) {
  const std::uint32_t S = cfg_.source_count;
  paced_ = cfg_.scheme == StreamScheme::kSlidingWindow ||
           cfg_.scheme == StreamScheme::kReplication;
  tracker_.reset();

  if (paced_) {
    const std::uint32_t interval = cfg_.repair_interval();
    for (std::uint32_t s = 0; s < S; ++s)
      tracker_.on_sent(s, static_cast<double>(s) + s / interval);
    if (cfg_.scheme == StreamScheme::kSlidingWindow) {
      SlidingWindowConfig sw;
      sw.window = cfg_.window;
      sw.repair_interval = interval;
      sw.coefficients = cfg_.coefficients;
      sw.seed = derive_seed(seed_, {2});
      coding_seed_ = sw.seed;
      decoder_.emplace(sw, payload_bytes_);
    } else {
      have_.assign(S, 0);
    }
    return;
  }

  // Block schemes: rebuild the sender's plan, graph and schedule from the
  // shared seed (the out-of-band code configuration).
  const double ratio = 1.0 + cfg_.overhead;
  const bool rse = cfg_.scheme == StreamScheme::kBlockRse;
  const PacketPlan* plan = nullptr;
  if (rse) {
    const auto cap = static_cast<std::uint32_t>(
        std::min(255.0, std::floor(static_cast<double>(cfg_.block_k) * ratio)));
    plan_ = std::make_shared<RsePlan>(S, ratio, cap);
    plan = plan_.get();
  } else {
    LdgmParams params;
    params.k = S;
    params.n = std::max(S + 1,
                        static_cast<std::uint32_t>(std::llround(
                            static_cast<double>(S) * ratio)));
    params.variant = cfg_.ldgm_variant;
    params.left_degree = cfg_.left_degree;
    params.triangle_extra_per_row = cfg_.triangle_extra_per_row;
    params.seed = derive_seed(seed_, {3});
    coding_seed_ = params.seed;
    ldgm_ = std::make_shared<LdgmCode>(params);
    plan = ldgm_.get();
  }
  Rng rng(derive_seed(seed_, {1}));
  switch (cfg_.scheduling) {
    case StreamScheduling::kInterleaved:
      make_schedule(*plan, TxModel::kTx5Interleaved, rng, schedule_);
      break;
    case StreamScheduling::kSequential:
    case StreamScheduling::kCarousel:
      if (rse)
        per_block_sequential(*plan_, schedule_);
      else
        make_schedule(*plan, TxModel::kTx1SeqSourceSeqParity, rng, schedule_);
      break;
  }

  std::vector<std::uint64_t> tx_slot(S, 0);
  for (std::size_t t = 0; t < schedule_.size(); ++t)
    if (schedule_[t] < S) tx_slot[schedule_[t]] = t;
  for (std::uint32_t s = 0; s < S; ++s)
    tracker_.on_sent(s, static_cast<double>(tx_slot[s]));

  const std::uint64_t cycles =
      cfg_.scheduling == StreamScheduling::kCarousel ? cfg_.max_cycles : 1;
  use_block_ends_ = rse && cycles == 1;
  if (use_block_ends_) {
    ends_at_slot_.resize(schedule_.size());
    std::vector<std::int64_t> last(plan_->block_count(), -1);
    for (std::size_t t = 0; t < schedule_.size(); ++t)
      last[plan_->position(schedule_[t]).block] = static_cast<std::int64_t>(t);
    for (std::uint32_t b = 0; b < plan_->block_count(); ++b)
      ends_at_slot_[static_cast<std::size_t>(last[b])].push_back(b);
  }

  seen_.assign(S, 0);
  if (rse)
    rse_.emplace(plan_, payload_bytes_);
  else
    peeler_.emplace(ldgm_->matrix(), S, payload_bytes_);
}

void NetReceiver::verify(std::uint64_t s,
                         std::span<const std::uint8_t> payload) {
  NetSender::source_payload(seed_, s, payload_bytes_, expected_);
  if (payload.size() == expected_.size() &&
      std::equal(payload.begin(), payload.end(), expected_.begin()))
    ++verified_;
  else
    ++mismatches_;
}

void NetReceiver::on_slot(const ParsedFrame* frame, std::uint64_t slot) {
  events_.push_back(frame == nullptr);
  if (frame != nullptr) {
    if (frame->type == FrameType::kData)
      on_data(frame->data, slot);
    else
      ++rejected_;  // a report frame has no business on the data path
  }
  if (!paced_) block_ends_check(slot);
}

bool NetReceiver::in_range(const DataFrame& frame) const {
  const std::uint64_t S = cfg_.source_count;
  if (frame.payload.size() != payload_bytes_) return false;
  if (!paced_) return frame.symbol_id < (plan_ ? plan_->n() : ldgm_->n());
  if (!frame.repair) return frame.symbol_id < S;
  if (frame.symbol_id < S) return false;  // repair ids continue past S
  // Replication names the duplicated source; a sliding repair covers
  // [span_first, span_last), at most one window wide.
  if (decoder_)
    return frame.span_last <= S &&
           frame.span_last - frame.span_first <= cfg_.window;
  return frame.span_first < S && frame.span_last == frame.span_first;
}

void NetReceiver::on_data(const DataFrame& frame, std::uint64_t slot) {
  if (frame.object_id != object_id_ ||
      frame.scheme != static_cast<std::uint8_t>(cfg_.scheme) ||
      frame.coding_seed != coding_seed_ || !in_range(frame)) {
    ++rejected_;
    return;
  }
  if (paced_)
    paced_deliver(frame, slot);
  else
    block_deliver(frame, slot);
}

void NetReceiver::paced_deliver(const DataFrame& frame, std::uint64_t slot) {
  if (decoder_) {
    if (frame.repair) {
      RepairPacket repair;
      repair.repair_seq = frame.symbol_id - cfg_.source_count;
      repair.first = frame.span_first;
      repair.last = frame.span_last;
      repair.payload = frame.payload;
      hook_.timed(obs::Phase::kDecode,
                  [&] { decoder_->on_repair(repair, settled_); });
    } else {
      hook_.timed(obs::Phase::kDecode, [&] {
        decoder_->on_source(frame.symbol_id, frame.payload, settled_);
      });
    }
    for (std::uint64_t s : settled_) {
      tracker_.on_available(s, static_cast<double>(slot));
      verify(s, decoder_->symbol(s));
    }
    settled_.clear();
    return;
  }
  // Replication: both the original and every duplicate deliver the source.
  const std::uint64_t s = frame.repair ? frame.span_first : frame.symbol_id;
  if (!have_[s]) {
    have_[s] = 1;
    tracker_.on_available(s, static_cast<double>(slot));
    verify(s, frame.payload);
  }
}

void NetReceiver::block_deliver(const DataFrame& frame, std::uint64_t slot) {
  const auto id = static_cast<PacketId>(frame.symbol_id);
  recovered_.clear();
  hook_.timed(obs::Phase::kDecode, [&] {
    if (rse_)
      rse_->on_packet(id, frame.payload, &recovered_);
    else
      peeler_->add_packet(id, frame.payload, &recovered_);
  });
  if (!rse_) std::sort(recovered_.begin(), recovered_.end());
  for (PacketId s : recovered_) {
    seen_[s] = 1;
    tracker_.on_available(s, static_cast<double>(slot));
    ++delivered_sources_;
    verify(s, rse_ ? rse_->source_symbol(s) : peeler_->symbol(s));
  }
  // A decoded block has been verified in full: drop its symbols.
  if (rse_) {
    const std::uint32_t b = plan_->position(id).block;
    if (rse_->block_decoded(b)) rse_->release(b);
  }
}

void NetReceiver::block_ends_check(std::uint64_t slot) {
  if (!use_block_ends_) return;
  for (std::uint32_t b : ends_at_slot_[slot % schedule_.size()]) {
    if (rse_->block_decoded(b)) continue;
    const BlockInfo& info = plan_->block(b);
    for (std::uint32_t i = 0; i < info.k; ++i) {
      const PacketId src = info.source_offset + i;
      if (!seen_[src]) {
        seen_[src] = 1;  // released as lost: no later availability
        tracker_.on_lost(src, static_cast<double>(slot));
        ++delivered_sources_;
      }
    }
    rse_->release(b);
  }
}

void NetReceiver::give_up_before(std::uint64_t horizon, std::uint64_t slot) {
  if (decoder_) {
    hook_.timed(obs::Phase::kDecode,
                [&] { decoder_->give_up_before(horizon, settled_); });
    for (std::uint64_t s : settled_)
      tracker_.on_lost(s, static_cast<double>(slot));
    settled_.clear();
    return;
  }
  for (; repl_horizon_ < horizon; ++repl_horizon_)
    if (!have_[repl_horizon_])
      tracker_.on_lost(repl_horizon_, static_cast<double>(slot));
}

void NetReceiver::flush(std::uint64_t slot) {
  for (PacketId s = 0; s < seen_.size(); ++s)
    if (!seen_[s]) {
      seen_[s] = 1;
      tracker_.on_lost(s, static_cast<double>(slot));
    }
}

StreamTrialResult NetReceiver::finish_stream(std::uint64_t sent,
                                             std::uint64_t received) const {
  StreamTrialResult result;
  result.delay = tracker_.summary();
  result.residual = tracker_.residual_loss();
  result.delays = tracker_.delays();
  result.packets_sent = sent;
  result.packets_received = received;
  result.overhead_actual =
      static_cast<double>(sent - cfg_.source_count) /
      static_cast<double>(cfg_.source_count);
  result.all_delivered = tracker_.drained() && result.residual.lost == 0;
  return result;
}

ReportFrame NetReceiver::take_report() {
  const std::vector<bool> slice(events_.begin() +
                                    static_cast<std::ptrdiff_t>(reported_events_),
                                events_.end());
  reported_events_ = events_.size();
  ReportFrame frame;
  frame.object_id = object_id_;
  frame.report = LossReport::from_events(slice);
  return frame;
}

}  // namespace fecsched::net
