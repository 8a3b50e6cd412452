#include "stream/stream_trial.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>

#include "fec/block_partition.h"
#include "fec/peeling_decoder.h"
#include "obs/obs.h"
#include "sched/carousel.h"
#include "sched/tx_models.h"
#include "util/rng.h"

namespace fecsched {

void StreamTrialConfig::validate() const {
  if (source_count == 0)
    throw std::invalid_argument("StreamTrialConfig: source_count must be >= 1");
  if (!(overhead > 0.0) || overhead > 4.0)
    throw std::invalid_argument(
        "StreamTrialConfig: overhead must be in (0, 4]");
  if ((scheme == StreamScheme::kSlidingWindow ||
       scheme == StreamScheme::kReplication) &&
      overhead > 1.0)
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

namespace {

/// Shared aggregation tail: pull the tracker's numbers into the result.
/// The stream.* counters here are the engine-side aggregates the trace
/// summary line carries — computed from the tracker's accounting, NOT
/// from the emitted events, so tools/trace_stats can cross-check the two.
StreamTrialResult finish(const DelayTracker& tracker, std::uint64_t sent,
                         std::uint64_t received, std::uint32_t source_count,
                         const obs::Hook& hook) {
  StreamTrialResult result;
  result.delay = tracker.summary();
  result.residual = tracker.residual_loss();
  result.delays = tracker.delays();
  result.packets_sent = sent;
  result.packets_received = received;
  result.overhead_actual =
      static_cast<double>(sent - source_count) /
      static_cast<double>(source_count);
  result.all_delivered = tracker.drained() && result.residual.lost == 0;
  if (hook.counting()) {
    hook.count("stream.trials");
    hook.count("stream.packets_sent", sent);
    hook.count("stream.packets_received", received);
    hook.count("stream.sources", source_count);
    hook.count("stream.sources_delivered", result.delay.delivered);
    hook.count("stream.residual_lost", result.residual.lost);
    hook.count("stream.residual_runs", result.residual.runs);
    hook.gauge_max("stream.residual_max_run", result.residual.max_run_length);
  }
  return result;
}

// ------------------------------------------------- sliding / replication

StreamTrialResult run_paced_trial(const StreamTrialConfig& cfg,
                                  LossModel& channel, std::uint64_t seed,
                                  StreamTrialWorkspace& ws) {
  const obs::Hook hook;
  const std::uint32_t S = cfg.source_count;
  const std::uint32_t W = cfg.window;
  const std::uint32_t interval = cfg.repair_interval();
  const bool sliding = cfg.scheme == StreamScheme::kSlidingWindow;

  SlidingWindowConfig sw;
  sw.window = W;
  sw.repair_interval = interval;
  sw.coefficients = cfg.coefficients;
  sw.seed = derive_seed(seed, {2});
  hook.timed(obs::Phase::kEncode, [&] {
    if (ws.decoder)
      ws.decoder->reset(sw);
    else
      ws.decoder.emplace(sw);
  });
  SlidingWindowDecoder& decoder = *ws.decoder;

  DelayTracker& tracker = ws.tracker;
  tracker.reset();
  // Source s occupies slot s plus one slot per earlier repair.
  for (std::uint32_t s = 0; s < S; ++s)
    tracker.on_sent(s, static_cast<double>(s) + s / interval);

  // Replication baseline state: plain availability bitmap + give-up line.
  std::vector<char>& have = ws.have;
  have.assign(S, 0);
  std::uint64_t repl_horizon = 0;

  std::uint64_t slot = 0, sent = 0, received = 0, repairs = 0;
  const auto deliver = [&](std::uint64_t s) {
    if (!have[s]) {
      have[s] = 1;
      tracker.on_available(s, static_cast<double>(slot));
    }
  };
  // Seqs the last sliding-window decoder call settled (known or lost).
  std::vector<std::uint64_t>& settled = ws.settled;
  settled.clear();
  const auto sliding_deliver = [&] {
    for (std::uint64_t s : settled)
      tracker.on_available(s, static_cast<double>(slot));
    settled.clear();
  };
  const auto give_up_before = [&](std::uint64_t h) {
    if (sliding) {
      hook.timed(obs::Phase::kDecode,
                 [&] { decoder.give_up_before(h, settled); });
      for (std::uint64_t s : settled)
        tracker.on_lost(s, static_cast<double>(slot));
      settled.clear();
    } else {
      for (; repl_horizon < h; ++repl_horizon)
        if (!have[repl_horizon])
          tracker.on_lost(repl_horizon, static_cast<double>(slot));
    }
  };
  const auto send_repair = [&](std::uint64_t produced) {
    ++sent;
    // Repair ids continue past the source ids, mirroring the PacketId
    // convention (sources [0, S), repairs from S up).
    hook.sent(static_cast<double>(slot), S + repairs, true);
    const bool delivered = hook.timed(obs::Phase::kChannelDraw,
                                      [&] { return !channel.lost(); });
    if (delivered) {
      ++received;
      hook.received(static_cast<double>(slot), S + repairs, true);
    } else {
      hook.lost(static_cast<double>(slot), S + repairs, true);
    }
    if (sliding) {
      RepairPacket repair;
      repair.repair_seq = repairs;
      repair.last = produced;
      repair.first = produced >= W ? produced - W : 0;
      if (delivered) {
        hook.timed(obs::Phase::kDecode,
                   [&] { decoder.on_repair(repair, settled); });
        sliding_deliver();
      }
    } else if (delivered) {
      // Round-robin duplicate of one of the last min(W, produced) sources.
      const std::uint64_t span = std::min<std::uint64_t>(W, produced);
      deliver(produced - 1 - repairs % span);
    }
    ++repairs;
    ++slot;
  };

  channel.reset(derive_seed(seed, {0}));
  for (std::uint32_t s = 0; s < S; ++s) {
    ++sent;
    hook.sent(static_cast<double>(slot), s, false);
    const bool delivered = hook.timed(obs::Phase::kChannelDraw,
                                      [&] { return !channel.lost(); });
    if (delivered) {
      ++received;
      hook.received(static_cast<double>(slot), s, false);
      if (sliding) {
        hook.timed(obs::Phase::kDecode,
                   [&] { decoder.on_source(s, {}, settled); });
        sliding_deliver();
      } else {
        deliver(s);
      }
    } else {
      hook.lost(static_cast<double>(slot), s, false);
    }
    ++slot;
    const std::uint64_t produced = s + 1;
    // The window has slid W past every source below this line; no future
    // repair can cover them any more.
    if (produced > W) give_up_before(produced - W);
    if (produced % interval == 0) send_repair(produced);
  }
  // End-of-stream flush: one extra window's worth of repairs protects the
  // tail, then everything still missing is final.
  const std::uint64_t tail = (W + interval - 1) / interval;
  for (std::uint64_t i = 0; i < tail; ++i) send_repair(S);
  give_up_before(S);
  return finish(tracker, sent, received, S, hook);
}

// ----------------------------------------------------------- block codes

StreamTrialResult run_block_trial(const StreamTrialConfig& cfg,
                                  LossModel& channel, std::uint64_t seed,
                                  StreamTrialWorkspace& ws) {
  const obs::Hook hook;
  const std::uint32_t S = cfg.source_count;
  const double ratio = 1.0 + cfg.overhead;
  const bool rse = cfg.scheme == StreamScheme::kBlockRse;

  std::shared_ptr<const RsePlan> rse_plan;
  std::shared_ptr<const LdgmCode> ldgm;
  const PacketPlan* plan = nullptr;
  hook.timed(obs::Phase::kEncode, [&] {
    if (rse) {
      const auto cap = static_cast<std::uint32_t>(
          std::min(255.0, std::floor(static_cast<double>(cfg.block_k) * ratio)));
      rse_plan = std::make_shared<RsePlan>(S, ratio, cap);
      plan = rse_plan.get();
    } else {
      LdgmParams params;
      params.k = S;
      params.n = std::max(
          S + 1, static_cast<std::uint32_t>(
                     std::llround(static_cast<double>(S) * ratio)));
      params.variant = cfg.ldgm_variant;
      params.left_degree = cfg.left_degree;
      params.triangle_extra_per_row = cfg.triangle_extra_per_row;
      params.seed = derive_seed(seed, {3});
      ldgm = std::make_shared<LdgmCode>(params);
      plan = ldgm.get();
    }
  });

  Rng rng(derive_seed(seed, {1}));
  std::vector<PacketId>& schedule = ws.schedule;
  hook.timed(obs::Phase::kSchedule, [&] {
    switch (cfg.scheduling) {
      case StreamScheduling::kInterleaved:
        make_schedule(*plan, TxModel::kTx5Interleaved, rng, schedule);
        break;
      case StreamScheduling::kSequential:
      case StreamScheduling::kCarousel:
        if (rse)
          per_block_sequential(*rse_plan, schedule);
        else
          make_schedule(*plan, TxModel::kTx1SeqSourceSeqParity, rng, schedule);
        break;
    }
  });
  const std::uint64_t cycles =
      cfg.scheduling == StreamScheduling::kCarousel ? cfg.max_cycles : 1;

  // First transmission slot of every source (cycle 0 covers all ids).
  std::vector<std::uint64_t>& tx_slot = ws.tx_slot;
  tx_slot.assign(S, 0);
  for (std::size_t t = 0; t < schedule.size(); ++t)
    if (schedule[t] < S) tx_slot[schedule[t]] = t;
  DelayTracker& tracker = ws.tracker;
  tracker.reset();
  for (std::uint32_t s = 0; s < S; ++s)
    tracker.on_sent(s, static_cast<double>(tx_slot[s]));

  // Non-carousel runs can give a block up the moment its last scheduled
  // packet has passed; a carousel always has another cycle coming.
  const bool use_block_ends = rse && cycles == 1;
  std::vector<std::vector<std::uint32_t>>& ends_at_slot = ws.ends_at_slot;
  if (use_block_ends) {
    for (auto& v : ends_at_slot) v.clear();
    ends_at_slot.resize(schedule.size());
    std::vector<std::int64_t> last(rse_plan->block_count(), -1);
    for (std::size_t t = 0; t < schedule.size(); ++t)
      last[rse_plan->position(schedule[t]).block] =
          static_cast<std::int64_t>(t);
    for (std::uint32_t b = 0; b < rse_plan->block_count(); ++b)
      ends_at_slot[static_cast<std::size_t>(last[b])].push_back(b);
  }

  // Decode state.
  std::vector<char>& seen = ws.seen;
  seen.assign(plan->n(), 0);
  std::vector<std::uint32_t>& block_received = ws.block_received;
  std::vector<char>& block_decoded = ws.block_decoded;
  std::uint32_t blocks_done = 0;
  if (rse) {
    block_received.assign(rse_plan->block_count(), 0);
    block_decoded.assign(rse_plan->block_count(), 0);
  }
  std::optional<PeelingDecoder>& peeler = ws.peeler;
  std::vector<PacketId>& recovered = ws.recovered;
  if (!rse) {
    if (peeler)
      peeler->rebind(ldgm->matrix(), S);
    else
      peeler.emplace(ldgm->matrix(), S);
  }
  std::uint32_t delivered_sources = 0;

  channel.reset(derive_seed(seed, {0}));
  std::uint64_t slot = 0, sent = 0, received = 0;
  Carousel carousel(schedule);
  const std::uint64_t budget = schedule.size() * cycles;
  const auto complete = [&] { return delivered_sources == S; };

  // No back channel: a single-pass sender emits its whole schedule
  // regardless; only the carousel stops spinning once everything has been
  // delivered.
  while (slot < budget && (cycles == 1 || !complete())) {
    const PacketId id = carousel.next();
    ++sent;
    hook.sent(static_cast<double>(slot), id, id >= S);
    const bool delivered = hook.timed(obs::Phase::kChannelDraw,
                                      [&] { return !channel.lost(); });
    if (delivered) {
      ++received;
      hook.received(static_cast<double>(slot), id, id >= S);
      if (!seen[id]) {
        seen[id] = 1;
        if (rse) {
          const BlockPosition pos = rse_plan->position(id);
          if (id < S) {
            tracker.on_available(id, static_cast<double>(slot));
            ++delivered_sources;
          }
          if (!block_decoded[pos.block]) {
            if (++block_received[pos.block] == rse_plan->block(pos.block).k) {
              // MDS: k_b distinct packets solve the block (sim/tracker rule);
              // every source not received directly is recovered now.
              block_decoded[pos.block] = 1;
              ++blocks_done;
              const BlockInfo& info = rse_plan->block(pos.block);
              for (std::uint32_t i = 0; i < info.k; ++i) {
                const PacketId src = info.source_offset + i;
                if (!seen[src]) {
                  seen[src] = 1;
                  tracker.on_available(src, static_cast<double>(slot));
                  ++delivered_sources;
                }
              }
            }
          }
        } else {
          // Ascending, so the tracker and trace see each packet's
          // recoveries in source order.
          recovered.clear();
          hook.timed(obs::Phase::kDecode,
                     [&] { peeler->add_packet(id, {}, &recovered); });
          std::sort(recovered.begin(), recovered.end());
          for (PacketId s : recovered) {
            tracker.on_available(s, static_cast<double>(slot));
            ++delivered_sources;
          }
        }
      }
    } else {
      hook.lost(static_cast<double>(slot), id, id >= S);
    }
    if (use_block_ends) {
      for (std::uint32_t b : ends_at_slot[slot % schedule.size()]) {
        if (block_decoded[b]) continue;
        const BlockInfo& info = rse_plan->block(b);
        for (std::uint32_t i = 0; i < info.k; ++i) {
          const PacketId src = info.source_offset + i;
          if (!seen[src]) {
            seen[src] = 1;  // released as lost: no later availability
            tracker.on_lost(src, static_cast<double>(slot));
            ++delivered_sources;
          }
        }
      }
    }
    ++slot;
  }

  // Whatever is still missing when the schedule (or carousel budget) runs
  // out is final.
  const auto flush_lost = [&](PacketId src) {
    if (!seen[src]) {
      seen[src] = 1;
      tracker.on_lost(src, static_cast<double>(slot));
    }
  };
  if (rse) {
    for (std::uint32_t b = 0; b < rse_plan->block_count(); ++b) {
      if (block_decoded[b]) continue;
      const BlockInfo& info = rse_plan->block(b);
      for (std::uint32_t i = 0; i < info.k; ++i) flush_lost(info.source_offset + i);
    }
  } else {
    for (PacketId s = 0; s < S; ++s)
      if (!peeler->is_known(s)) flush_lost(s);
  }
  return finish(tracker, sent, received, S, hook);
}

}  // namespace

void per_block_sequential(const RsePlan& plan, std::vector<PacketId>& out) {
  out.clear();
  out.reserve(plan.n());
  for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
    const BlockInfo& info = plan.block(b);
    for (std::uint32_t i = 0; i < info.k; ++i)
      out.push_back(info.source_offset + i);
    for (std::uint32_t i = 0; i < info.n - info.k; ++i)
      out.push_back(info.parity_offset + i);
  }
}

std::vector<PacketId> per_block_sequential(const RsePlan& plan) {
  std::vector<PacketId> out;
  per_block_sequential(plan, out);
  return out;
}

StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                   LossModel& channel, std::uint64_t seed,
                                   StreamTrialWorkspace& ws) {
  cfg.validate();
  switch (cfg.scheme) {
    case StreamScheme::kSlidingWindow:
    case StreamScheme::kReplication:
      return run_paced_trial(cfg, channel, seed, ws);
    case StreamScheme::kBlockRse:
    case StreamScheme::kLdgm:
      return run_block_trial(cfg, channel, seed, ws);
  }
  throw std::logic_error("run_stream_trial: unreachable scheme");
}

StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                   LossModel& channel, std::uint64_t seed) {
  StreamTrialWorkspace ws;
  return run_stream_trial(cfg, channel, seed, ws);
}

}  // namespace fecsched
