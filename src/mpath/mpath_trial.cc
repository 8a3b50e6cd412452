#include "mpath/mpath_trial.h"

#include <algorithm>
#include <stdexcept>

#include "mpath/resequencer.h"
#include "obs/obs.h"

namespace fecsched {

void MpathTrialConfig::validate() const {
  stream.validate();
  if (stream.scheduling == StreamScheduling::kCarousel)
    throw std::invalid_argument(
        "MpathTrialConfig: kCarousel needs completion feedback no multipath "
        "sender has in this model");
  if (paths.empty())
    throw std::invalid_argument("MpathTrialConfig: at least one path");
  for (const PathSpec& p : paths) p.validate();
  if (!repair_weights.empty() && repair_weights.size() != paths.size())
    throw std::invalid_argument(
        "MpathTrialConfig: repair_weights must have one entry per path");
}

namespace {

/// Event discriminators for the Resequencer replay.
constexpr std::uint32_t kArrival = 0;
constexpr std::uint32_t kDeadline = 1;

using Transport = detail::MpathTransport;

/// Paced deadlines.  Source s waits one step past the latest (would-be)
/// arrival of anything that can still matter for it — the source itself,
/// every repair whose window covers it, and the window-slide witness (the
/// slot after which the single-path trial gives s up, or the final
/// emission for the last W sources).  The witness term makes the 1-path
/// degenerate case give up in exactly the single-path trial's slot.
void paced_deadlines(const StreamPlan& plan, const Transport& transport,
                     std::vector<double>& deadline) {
  const std::uint32_t S = plan.source_count();
  const std::span<const StreamEmission> emissions = plan.emissions();
  deadline.assign(S, transport.resolve.back());
  for (std::size_t e = 0; e < emissions.size(); ++e)
    if (const std::uint64_t h = plan.give_up_after(emissions[e]))
      deadline[h - 1] = transport.resolve[e];
  for (std::uint32_t s = 0; s < S; ++s)
    deadline[s] = std::max(deadline[s], transport.resolve[plan.tx_slot(s)]);
  for (std::size_t e = 0; e < emissions.size(); ++e) {
    if (!emissions[e].packet.repair) continue;
    const auto [first, last] = plan.repair_window(emissions[e].produced);
    for (std::uint64_t s = first; s < last && s < S; ++s)
      deadline[s] = std::max(deadline[s], transport.resolve[e]);
  }
}

template <StreamScheme kScheme>
MpathTrialResult replay(SchemeTag<kScheme> scheme, PathSet& paths,
                        PathScheduler& scheduler, MpathTrialWorkspace& ws) {
  constexpr bool paced = is_paced(kScheme);
  const obs::Hook hook;
  const StreamPlan& plan = ws.stream.plan;
  StreamReceiver& rx = ws.stream.receiver;
  const std::uint32_t S = plan.source_count();
  const std::size_t count =
      paced ? plan.emissions().size() : plan.schedule().size();
  const auto packet = [&](std::size_t e) {
    if constexpr (paced)
      return plan.emissions()[e].packet;
    else
      return plan.block_packet(plan.schedule()[e]);
  };

  // Every emission through the scheduler and its path.
  Transport& transport = ws.transport;
  transport.resolve.assign(count, 0.0);
  transport.delivered.assign(count, 0);
  for (auto& events : transport.path_events) events.clear();
  transport.path_events.resize(paths.size());
  for (std::size_t e = 0; e < count; ++e) {
    const StreamPacket p = packet(e);
    const double slot = static_cast<double>(e);
    const std::size_t path = hook.timed(obs::Phase::kSchedule, [&] {
      return scheduler.pick(paths, slot, p.repair);
    });
    const Transmission tx = hook.timed(obs::Phase::kChannelDraw, [&] {
      return paths.transmit(path, slot);
    });
    transport.resolve[e] = tx.arrival;
    transport.delivered[e] = tx.lost ? 0 : 1;
    transport.path_events[path].push_back(tx.lost);
    if (hook.tracing()) {
      const auto path_id = static_cast<std::int32_t>(path);
      hook.sent(slot, p.id, p.repair, path_id);
      if (tx.lost)
        hook.lost(tx.arrival, p.id, p.repair, path_id);
      else
        hook.received(tx.arrival, p.id, p.repair, path_id);
    }
  }

  // Tie-break at the same instant.  Paced: deadlines (phase 0) before
  // arrivals (phase 1), matching the single-path give-up-then-receive
  // order.  Block: arrivals (phase 0) before deadlines (phase 1) — a
  // block's last packet may complete it in the very slot the block would
  // otherwise be declared dead, exactly like the single-path trial.
  constexpr std::uint32_t arrival_phase = paced ? 1 : 0;
  constexpr std::uint32_t deadline_phase = paced ? 0 : 1;
  Resequencer& queue = ws.queue;
  queue.clear();
  for (std::size_t e = 0; e < count; ++e)
    if (transport.delivered[e])
      queue.push(transport.resolve[e], arrival_phase, e, kArrival, e);
  std::vector<double>& deadline = ws.deadline;
  if constexpr (paced) {
    // Give-up is a prefix operation on the receiver, so the effective
    // deadline is the running prefix max: under cross-path reordering
    // deadline[s] is not monotone in s, and declaring the whole prefix at
    // a later source's earlier deadline would discard repairs that could
    // still recover an earlier source.  The prefix max fires each give-up
    // only once every source at or below it is past its own deadline; on
    // a single path deadlines are already monotone and this is the
    // identity (the degenerate oracle is unaffected).
    paced_deadlines(plan, transport, deadline);
    double deadline_prefix_max = 0.0;
    for (std::uint32_t s = 0; s < S; ++s) {
      deadline_prefix_max = std::max(deadline_prefix_max, deadline[s]);
      queue.push(deadline_prefix_max + 1.0, deadline_phase, s, kDeadline, s);
    }
  } else if constexpr (kScheme == StreamScheme::kBlockRse) {
    // A block is dead once its last packet has resolved.
    const RsePlan& rse = *plan.rse();
    deadline.assign(rse.block_count(), 0.0);
    for (std::size_t e = 0; e < count; ++e) {
      const std::uint32_t b = rse.position(plan.schedule()[e]).block;
      deadline[b] = std::max(deadline[b], transport.resolve[e]);
    }
    for (std::uint32_t b = 0; b < rse.block_count(); ++b)
      queue.push(deadline[b], deadline_phase, b, kDeadline, b);
  } else {
    // One large block: the stream is dead after its last resolve.
    double last = 0.0;
    for (const double r : transport.resolve) last = std::max(last, r);
    queue.push(last + 1.0, deadline_phase, 0, kDeadline, 0);
  }

  std::uint64_t received = 0, reordered = 0, max_arrived = 0;
  bool any_arrived = false;
  const std::vector<RxEvent>& rx_events = hook.timed(
      obs::Phase::kResequence,
      [&]() -> const std::vector<RxEvent>& { return queue.drain(); });
  for (const RxEvent& ev : rx_events) {
    const double t = ev.time;
    if (ev.kind == kDeadline) {
      if constexpr (paced)
        rx.give_up_before(ev.value + 1, t);
      else if constexpr (kScheme == StreamScheme::kBlockRse)
        rx.block_ended(static_cast<std::uint32_t>(ev.value), t);
      else
        rx.flush(t);
      continue;
    }
    const std::uint64_t e = ev.value;
    ++received;
    if (any_arrived && e < max_arrived) ++reordered;
    max_arrived = std::max(max_arrived, e);
    any_arrived = true;
    rx.on_packet(scheme, packet(e), {}, t, [](std::uint64_t) {});
  }

  MpathTrialResult result;
  result.stream = rx.finish(count, received);
  result.paths = paths.stats();
  result.path_reports.reserve(transport.path_events.size());
  for (const auto& events : transport.path_events)
    result.path_reports.push_back(LossReport::from_events(events));
  result.reordered = reordered;
  result.reordered_fraction =
      received ? static_cast<double>(reordered) / static_cast<double>(received)
               : 0.0;
  if (hook.counting()) {
    // Engine-side aggregates, computed from the tracker's own accounting
    // (independent of trace-event emission) so tools/trace_stats can
    // cross-check a JSONL trace against them.
    hook.count("mpath.trials");
    hook.count("mpath.packets_sent", count);
    hook.count("mpath.packets_received", received);
    hook.count("mpath.reordered", reordered);
    hook.count("mpath.sources", S);
    hook.count("mpath.sources_delivered", result.stream.delay.delivered);
    hook.count("mpath.residual_lost", result.stream.residual.lost);
    hook.count("mpath.residual_runs", result.stream.residual.runs);
    hook.gauge_max("mpath.residual_max_run",
                   result.stream.residual.max_run_length);
  }
  return result;
}

}  // namespace

MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                 std::uint64_t seed,
                                 MpathTrialWorkspace& ws) {
  cfg.validate();
  PathSet paths(cfg.paths);
  paths.reset(seed);
  PathScheduler scheduler(cfg.scheduler, paths, cfg.repair_weights);
  ws.stream.plan.build(cfg.stream, seed);
  ws.stream.receiver.reset(ws.stream.plan);
  return with_scheme(cfg.stream.scheme, [&](auto scheme) {
    return replay(scheme, paths, scheduler, ws);
  });
}

MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                 std::uint64_t seed) {
  MpathTrialWorkspace ws;
  return run_mpath_trial(cfg, seed, ws);
}

}  // namespace fecsched
