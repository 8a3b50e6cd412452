#include "stream/stream_plan.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"
#include "sched/tx_models.h"
#include "util/rng.h"

namespace fecsched {

void StreamTrialConfig::validate() const {
  if (source_count == 0)
    throw std::invalid_argument("StreamTrialConfig: source_count must be >= 1");
  if (!(overhead > 0.0) || overhead > 4.0)
    throw std::invalid_argument(
        "StreamTrialConfig: overhead must be in (0, 4]");
  if (is_paced(scheme) && overhead > 1.0)
    throw std::invalid_argument(
        "StreamTrialConfig: the paced schemes emit at most one repair per "
        "source (overhead <= 1)");
  if (window == 0)
    throw std::invalid_argument("StreamTrialConfig: window must be >= 1");
  if (block_k == 0)
    throw std::invalid_argument("StreamTrialConfig: block_k must be >= 1");
  if (scheme == StreamScheme::kBlockRse &&
      static_cast<double>(block_k) * (1.0 + overhead) > 255.0)
    throw std::invalid_argument(
        "StreamTrialConfig: block_k * (1 + overhead) exceeds the RSE block "
        "cap of 255");
  if (max_cycles == 0)
    throw std::invalid_argument("StreamTrialConfig: max_cycles must be >= 1");
}

std::uint32_t StreamTrialConfig::repair_interval() const {
  // Clamp before narrowing: a vanishing overhead must yield a huge
  // interval (no repairs within any realistic stream), not a uint32 wrap
  // to a small one.
  const long long interval = std::llround(1.0 / overhead);
  return static_cast<std::uint32_t>(
      std::clamp<long long>(interval, 1, std::int64_t{1} << 30));
}

StreamPlan::StreamPlan(const StreamTrialConfig& cfg, std::uint64_t seed) {
  build(cfg, seed);
}

void StreamPlan::build(const StreamTrialConfig& cfg, std::uint64_t seed) {
  cfg_ = cfg;
  seed_ = seed;
  coding_seed_ = 0;
  emissions_.clear();
  rse_.reset();
  ldgm_.reset();
  schedule_.clear();
  cycles_ = 1;
  block_end_.clear();
  if (is_paced(cfg.scheme))
    obs::Hook().timed(obs::Phase::kEncode, [this] { build_paced(); });
  else
    build_block();
}

void StreamPlan::build_paced() {
  const std::uint32_t S = cfg_.source_count;
  const std::uint32_t W = cfg_.window;
  const std::uint32_t interval = cfg_.repair_interval();
  const bool sliding = cfg_.scheme == StreamScheme::kSlidingWindow;
  sliding_.window = W;
  sliding_.repair_interval = interval;
  sliding_.coefficients = cfg_.coefficients;
  sliding_.seed = derive_seed(seed_, {2});
  if (sliding) coding_seed_ = sliding_.seed;

  const std::uint64_t tail = (W + interval - 1) / interval;
  emissions_.reserve(S + S / interval + tail);
  tx_slot_.resize(S);
  std::uint64_t repairs = 0;
  // Repair ids continue past the source ids, mirroring the PacketId
  // convention (sources [0, S), repairs from S up).
  const auto repair = [&](std::uint64_t produced, bool step_end) {
    StreamEmission e;
    e.packet.id = S + repairs;
    e.packet.repair = true;
    e.produced = produced;
    e.step_end = step_end;
    const auto [first, last] = repair_window(produced);
    if (sliding) {
      e.packet.first = first;
      e.packet.last = last;
    } else {
      // Replication: a round-robin duplicate of one of the last
      // min(W, produced) sources.
      e.packet.first = e.packet.last = last - 1 - repairs % (last - first);
    }
    ++repairs;
    emissions_.push_back(e);
  };
  for (std::uint32_t s = 0; s < S; ++s) {
    tx_slot_[s] = emissions_.size();
    const std::uint64_t produced = s + 1;
    const bool repair_due = produced % interval == 0;
    emissions_.push_back({{s, 0, 0, false}, produced, !repair_due});
    if (repair_due) repair(produced, true);
  }
  // End-of-stream flush: one extra window's worth of repairs protects the
  // tail.
  for (std::uint64_t i = 0; i < tail; ++i) repair(S, false);
}

void StreamPlan::build_block() {
  const obs::Hook hook;
  const std::uint32_t S = cfg_.source_count;
  const double ratio = 1.0 + cfg_.overhead;
  const bool rse = cfg_.scheme == StreamScheme::kBlockRse;
  hook.timed(obs::Phase::kEncode, [&] {
    if (rse) {
      const auto cap = static_cast<std::uint32_t>(std::min(
          255.0, std::floor(static_cast<double>(cfg_.block_k) * ratio)));
      rse_ = std::make_shared<RsePlan>(S, ratio, cap);
    } else {
      LdgmParams params;
      params.k = S;
      params.n = std::max(
          S + 1, static_cast<std::uint32_t>(
                     std::llround(static_cast<double>(S) * ratio)));
      params.variant = cfg_.ldgm_variant;
      params.left_degree = cfg_.left_degree;
      params.triangle_extra_per_row = cfg_.triangle_extra_per_row;
      params.seed = derive_seed(seed_, {3});
      ldgm_ = std::make_shared<LdgmCode>(params);
      coding_seed_ = params.seed;
    }
  });
  const PacketPlan& code = rse ? static_cast<const PacketPlan&>(*rse_)
                               : static_cast<const PacketPlan&>(*ldgm_);

  Rng rng(derive_seed(seed_, {1}));
  hook.timed(obs::Phase::kSchedule, [&] {
    if (cfg_.scheduling == StreamScheduling::kInterleaved) {
      make_schedule(code, TxModel::kTx5Interleaved, rng, schedule_);
    } else if (rse) {
      // A streaming block-FEC sender flushes per block: each block's
      // sources, then its parity (unlike Tx_model_1's bulk order).
      schedule_.reserve(code.n());
      for (std::uint32_t b = 0; b < rse_->block_count(); ++b) {
        const BlockInfo& info = rse_->block(b);
        for (std::uint32_t i = 0; i < info.k; ++i)
          schedule_.push_back(info.source_offset + i);
        for (std::uint32_t i = 0; i < info.n - info.k; ++i)
          schedule_.push_back(info.parity_offset + i);
      }
    } else {
      make_schedule(code, TxModel::kTx1SeqSourceSeqParity, rng, schedule_);
    }
  });
  cycles_ = cfg_.scheduling == StreamScheduling::kCarousel ? cfg_.max_cycles : 1;

  // Cycle 0 covers every id, so this is each source's first slot.
  tx_slot_.assign(S, 0);
  for (std::size_t t = 0; t < schedule_.size(); ++t)
    if (schedule_[t] < S) tx_slot_[schedule_[t]] = t;

  if (rse && cycles_ == 1) {
    block_last_.resize(rse_->block_count());
    for (std::size_t t = 0; t < schedule_.size(); ++t)
      block_last_[rse_->position(schedule_[t]).block] =
          static_cast<std::uint32_t>(t);
    block_end_.assign(schedule_.size(), kNoBlock);
    for (std::uint32_t b = 0; b < rse_->block_count(); ++b)
      block_end_[block_last_[b]] = b;
  }
}

}  // namespace fecsched
