#include "stream/stream_trial.h"

#include "obs/obs.h"
#include "util/rng.h"

namespace fecsched {

StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                   LossModel& channel, std::uint64_t seed,
                                   StreamTrialWorkspace& ws) {
  cfg.validate();
  const obs::Hook hook;
  ws.plan.build(cfg, seed);
  ws.receiver.reset(ws.plan);
  channel.reset(derive_seed(seed, {0}));
  // The in-process link: each slot's fate is one draw of the channel.
  const auto transmit = [&](auto scheme, const StreamPacket& p,
                            std::uint64_t slot) {
    const auto t = static_cast<double>(slot);
    hook.sent(t, p.id, p.repair);
    const bool delivered = hook.timed(obs::Phase::kChannelDraw,
                                      [&] { return !channel.lost(); });
    if (delivered) {
      hook.received(t, p.id, p.repair);
      ws.receiver.on_packet(scheme, p, {}, t, [](std::uint64_t) {});
    } else {
      hook.lost(t, p.id, p.repair);
    }
    return delivered;
  };
  const SlotCounts n = with_scheme(cfg.scheme, [&](auto scheme) {
    return run_slots(scheme, ws.plan, ws.receiver, transmit, [] {});
  });
  StreamTrialResult result = ws.receiver.finish(n.sent, n.received);
  // The stream.* counters are the engine-side aggregates the trace summary
  // line carries — computed from the tracker's accounting, NOT from the
  // emitted events, so tools/trace_stats can cross-check the two.
  if (hook.counting()) {
    hook.count("stream.trials");
    hook.count("stream.packets_sent", n.sent);
    hook.count("stream.packets_received", n.received);
    hook.count("stream.sources", cfg.source_count);
    hook.count("stream.sources_delivered", result.delay.delivered);
    hook.count("stream.residual_lost", result.residual.lost);
    hook.count("stream.residual_runs", result.residual.runs);
    hook.gauge_max("stream.residual_max_run", result.residual.max_run_length);
  }
  return result;
}

StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                   LossModel& channel, std::uint64_t seed) {
  StreamTrialWorkspace ws;
  return run_stream_trial(cfg, channel, seed, ws);
}

}  // namespace fecsched
