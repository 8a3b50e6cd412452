#include "net/sender.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sched/tx_models.h"
#include "util/rng.h"

namespace fecsched::net {

namespace {

/// Stores `w` least significant byte first.  Spelled out byte by byte so
/// it is portable; compilers merge it into one 8-byte store.
void store_le64(std::uint8_t* p, std::uint64_t w) {
  p[0] = static_cast<std::uint8_t>(w);
  p[1] = static_cast<std::uint8_t>(w >> 8);
  p[2] = static_cast<std::uint8_t>(w >> 16);
  p[3] = static_cast<std::uint8_t>(w >> 24);
  p[4] = static_cast<std::uint8_t>(w >> 32);
  p[5] = static_cast<std::uint8_t>(w >> 40);
  p[6] = static_cast<std::uint8_t>(w >> 48);
  p[7] = static_cast<std::uint8_t>(w >> 56);
}

}  // namespace

void NetSender::source_payload(std::uint64_t seed, std::uint64_t s,
                               std::size_t bytes,
                               std::vector<std::uint8_t>& out) {
  Rng rng(derive_seed(seed, {4, s}));
  out.resize(bytes);
  // One rng() word per 8 bytes; a short tail takes the low bytes of one
  // more word.
  const std::size_t whole = bytes / 8 * 8;
  for (std::size_t i = 0; i < whole; i += 8) store_le64(out.data() + i, rng());
  if (whole < bytes) {
    const std::uint64_t word = rng();
    for (std::size_t i = whole; i < bytes; ++i)
      out[i] = static_cast<std::uint8_t>(word >> (8 * (i - whole)));
  }
}

NetSender::NetSender(const StreamTrialConfig& cfg, std::size_t payload_bytes,
                     std::uint64_t seed, std::uint32_t object_id)
    : cfg_(cfg),
      payload_bytes_(payload_bytes),
      seed_(seed),
      object_id_(object_id) {
  const std::uint32_t S = cfg_.source_count;
  payloads_.resize(S);
  for (std::uint32_t s = 0; s < S; ++s)
    source_payload(seed_, s, payload_bytes_, payloads_[s]);

  const double ratio = 1.0 + cfg_.overhead;
  switch (cfg_.scheme) {
    case StreamScheme::kSlidingWindow: {
      SlidingWindowConfig sw;
      sw.window = cfg_.window;
      sw.repair_interval = cfg_.repair_interval();
      sw.coefficients = cfg_.coefficients;
      sw.seed = derive_seed(seed_, {2});
      coding_seed_ = sw.seed;
      encoder_.emplace(sw, payload_bytes_);
      return;
    }
    case StreamScheme::kReplication:
      return;
    case StreamScheme::kBlockRse: {
      const auto cap = static_cast<std::uint32_t>(std::min(
          255.0, std::floor(static_cast<double>(cfg_.block_k) * ratio)));
      plan_ = std::make_shared<RsePlan>(S, ratio, cap);
      rse_.emplace(plan_, std::move(payloads_));
      break;
    }
    case StreamScheme::kLdgm: {
      LdgmParams params;
      params.k = S;
      params.n = std::max(
          S + 1, static_cast<std::uint32_t>(
                     std::llround(static_cast<double>(S) * ratio)));
      params.variant = cfg_.ldgm_variant;
      params.left_degree = cfg_.left_degree;
      params.triangle_extra_per_row = cfg_.triangle_extra_per_row;
      params.seed = derive_seed(seed_, {3});
      coding_seed_ = params.seed;
      ldgm_ = std::make_shared<LdgmCode>(params);
      parity_ = ldgm_->encode(payloads_);
      break;
    }
  }

  // Block schemes: the same schedule derivation as run_block_trial.
  const PacketPlan* plan =
      plan_ ? static_cast<const PacketPlan*>(plan_.get()) : ldgm_.get();
  Rng rng(derive_seed(seed_, {1}));
  switch (cfg_.scheduling) {
    case StreamScheduling::kInterleaved:
      make_schedule(*plan, TxModel::kTx5Interleaved, rng, schedule_);
      break;
    case StreamScheduling::kSequential:
    case StreamScheduling::kCarousel:
      if (plan_)
        per_block_sequential(*plan_, schedule_);
      else
        make_schedule(*plan, TxModel::kTx1SeqSourceSeqParity, rng, schedule_);
      break;
  }
}

void NetSender::fill_common(DataFrame& out) const {
  out.scheme = static_cast<std::uint8_t>(cfg_.scheme);
  out.object_id = object_id_;
  out.coding_seed = coding_seed_;
  out.span_first = 0;
  out.span_last = 0;
}

void NetSender::source_frame(std::uint64_t s, DataFrame& out) {
  fill_common(out);
  out.repair = false;
  out.symbol_id = s;
  out.payload = payloads_[s];
  if (encoder_) {
    const std::uint64_t seq = encoder_->push_source(payloads_[s]);
    if (seq != s)
      throw std::logic_error("NetSender: source frames must be built in order");
  }
}

void NetSender::repair_frame(std::uint64_t produced, DataFrame& out) {
  const std::uint32_t S = cfg_.source_count;
  fill_common(out);
  out.repair = true;
  if (encoder_) {
    encoder_->make_repair(repair_scratch_);
    if (repair_scratch_.last != produced)
      throw std::logic_error(
          "NetSender: sliding repair out of step with the driver's pacing");
    out.symbol_id = S + repair_scratch_.repair_seq;
    out.span_first = repair_scratch_.first;
    out.span_last = repair_scratch_.last;
    out.payload = repair_scratch_.payload;
    return;
  }
  // Replication: round-robin duplicate over the last min(W, produced)
  // sources — run_paced_trial's exact pick.
  const std::uint64_t span = std::min<std::uint64_t>(cfg_.window, produced);
  const std::uint64_t dup = produced - 1 - repl_repairs_ % span;
  out.symbol_id = S + repl_repairs_;
  out.span_first = dup;
  out.span_last = dup;
  out.payload = payloads_[dup];
  ++repl_repairs_;
}

void NetSender::packet_frame(PacketId id, DataFrame& out) {
  const std::uint32_t S = cfg_.source_count;
  fill_common(out);
  out.repair = id >= S;
  out.symbol_id = id;
  if (rse_)
    out.payload = rse_->payload(id);
  else
    out.payload = id < S ? payloads_[id] : parity_[id - S];
}

}  // namespace fecsched::net
