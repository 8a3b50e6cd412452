#include "sim/trial.h"

#include <algorithm>
#include <vector>

#include "channel/gilbert.h"

namespace fecsched {

namespace {

/// The observed trial's tail: per-source fates (received directly, or
/// recovered because the whole object decoded; partial LDGM recovery is
/// not credited — the grid's completion rule is all-or-nothing) as release
/// events, and the trial's grid.* metrics.
void observe_end(const obs::Hook& hook, const TrialResult& r,
                 const std::vector<char>& got, std::size_t n_slots) {
  const double end_slot = static_cast<double>(n_slots);
  std::uint64_t residual_lost = 0;
  std::uint64_t residual_runs = 0;
  std::uint64_t max_run = 0;
  std::uint64_t run = 0;
  for (std::uint32_t s = 0; s < got.size(); ++s) {
    const bool ok = r.decoded || got[s] != 0;
    hook.released(end_slot, s, ok, 0.0);
    if (!ok) {
      ++residual_lost;
      ++run;
      if (run > max_run) max_run = run;
    } else if (run > 0) {
      ++residual_runs;
      run = 0;
    }
  }
  if (run > 0) ++residual_runs;

  hook.count("grid.trials");
  hook.count("grid.packets_sent", r.n_sent);
  hook.count("grid.packets_received", r.n_received);
  if (r.decoded) hook.count("grid.trials_decoded");
  hook.count("grid.released", got.size());
  hook.count("grid.residual_lost", residual_lost);
  hook.count("grid.residual_runs", residual_runs);
  hook.gauge_max("grid.residual_max_run", max_run);
}

/// The one trial loop.  kObserved adds phase timing of every draw and
/// tracker call, trace events and the grid.* metrics; without it every
/// observation compiles out.
template <bool kObserved, class Tracker, class Channel>
TrialResult trial_loop(Tracker& tracker, std::span<const PacketId> schedule,
                       Channel& channel, const obs::Hook* hook,
                       std::uint32_t k) {
  TrialResult r;
  r.n_sent = static_cast<std::uint32_t>(schedule.size());
  r.peak_memory_symbols = tracker.working_memory_symbols();
  std::vector<char> got(kObserved ? k : 0, 0);  // sources received
  const auto lost = [&](std::size_t slot) {
    if constexpr (!kObserved) {
      return channel.lost();
    } else {
      const PacketId id = schedule[slot];
      const double at = static_cast<double>(slot);
      const bool repair = id >= k;
      hook->sent(at, id, repair);
      if (hook->timed(obs::Phase::kChannelDraw, [&] { return channel.lost(); })) {
        hook->lost(at, id, repair);
        return true;
      }
      hook->received(at, id, repair);
      if (!repair) got[id] = 1;
      return false;
    }
  };
  std::size_t slot = 0;
  for (; slot < schedule.size() && !r.decoded; ++slot) {
    if (lost(slot)) continue;
    ++r.n_received;
    const PacketId id = schedule[slot];
    if constexpr (kObserved)
      hook->timed(obs::Phase::kDecode, [&] { tracker.on_packet(id); });
    else
      tracker.on_packet(id);
    r.peak_memory_symbols =
        std::max(r.peak_memory_symbols, tracker.working_memory_symbols());
    if (tracker.complete()) {
      r.decoded = true;
      r.n_needed = r.n_received;
      if constexpr (kObserved) hook->decoded(static_cast<double>(slot), id);
    }
  }
  // After decoding the remaining draws only count n_received.
  for (; slot < schedule.size(); ++slot) r.n_received += lost(slot) ? 0 : 1;
  if constexpr (kObserved) observe_end(*hook, r, got, schedule.size());
  return r;
}

}  // namespace

template <class Tracker, class Channel>
TrialResult run_trial_with(Tracker& tracker, std::span<const PacketId> schedule,
                           Channel& channel, const obs::Hook* hook,
                           std::uint32_t k) {
  if (hook != nullptr && hook->engaged())
    return trial_loop<true>(tracker, schedule, channel, hook, k);
  return trial_loop<false>(tracker, schedule, channel, hook, k);
}

TrialResult run_trial(ErasureTracker& tracker,
                      std::span<const PacketId> schedule, LossModel& channel) {
  return run_trial_with(tracker, schedule, channel);
}

using Schedule = std::span<const PacketId>;
template TrialResult run_trial_with(RseTracker&, Schedule, GilbertModel&,
                                    const obs::Hook*, std::uint32_t);
template TrialResult run_trial_with(LdgmTracker&, Schedule, GilbertModel&,
                                    const obs::Hook*, std::uint32_t);
template TrialResult run_trial_with(ReplicationTracker&, Schedule,
                                    GilbertModel&, const obs::Hook*,
                                    std::uint32_t);
template TrialResult run_trial_with(LdgmTracker&, Schedule, PerfectChannel&,
                                    const obs::Hook*, std::uint32_t);

}  // namespace fecsched
