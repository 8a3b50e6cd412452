// One simulated multipath streaming reception (src/mpath/): the
// stream/stream_trial workload — a paced source stream protected by
// sliding-window, replication, blocked-RSE or LDGM FEC — with the packet
// sequence spread over K paths by a PathScheduler, each path applying its
// own loss process, propagation delay and capacity (mpath/path).
//
// The sender is the single-path trial's StreamPlan (stream/stream_plan):
// one packet per global slot in the same emission order (sources with
// interleaved repairs for the paced schemes; the block schedule for
// RSE/LDGM).  The scheduler maps each emission to a path; the path
// assigns departure (FIFO + capacity) and arrival (+ propagation delay)
// times; the merged arrival sequence is replayed through a Resequencer in
// time order — cross-path reordering included — into the single-path
// trial's StreamReceiver (stream/stream_receiver), which owns the
// decoders and the stream/DelayTracker.
//
// Loss declaration is deadline-driven: a source (or block) is declared
// unrecoverable one step after every packet that could still recover it
// has resolved — where a packet's resolve time is its (would-be) arrival
// time whether or not the channel erased it, i.e. the receiver times out
// on the latest possible useful arrival.  For the paced schemes the
// deadline additionally waits for the window-slide witness (source s+W),
// matching the single-path trial's give-up slot exactly; and because
// in-order give-up is a prefix operation, each source's effective
// deadline is the running prefix max over all sources at or below it
// (under reordering a later source can time out earlier — its
// declaration waits so no still-coverable predecessor is discarded).
//
// Degenerate-config oracle: a 1-path PathSet with zero delay and unit
// capacity reproduces run_stream_trial *bit-identically* — same channel
// substream (mpath/path seeding), same plan, same receiver, and deadlines
// that fall in the single-path give-up slots, so the decode/give-up call
// sequence and the DelayTracker timestamps match.  What remains specific
// to this file is the path transport and the deadline rule; the
// regression test in tests/mpath_test.cc pins them.

#pragma once

#include <cstdint>
#include <vector>

#include "adapt/channel_estimator.h"
#include "mpath/path.h"
#include "mpath/resequencer.h"
#include "mpath/scheduler.h"
#include "stream/stream_trial.h"

namespace fecsched {

namespace detail {
/// Per-emission transport outcome of the multipath replay.  Exposed only
/// so MpathTrialWorkspace can own the buffers; the fields are an
/// implementation detail of mpath_trial.cc.
struct MpathTransport {
  std::vector<double> resolve;    ///< (would-be) arrival time, by emission
  std::vector<char> delivered;    ///< channel verdict, by emission
  std::vector<std::vector<bool>> path_events;  ///< loss trace per path
};
}  // namespace detail

/// Everything that defines one multipath streaming trial.
struct MpathTrialConfig {
  /// The FEC workload (scheme, scheduling, source_count, overhead, window,
  /// block_k, ...).  StreamScheduling::kCarousel is rejected: a carousel
  /// needs completion feedback no multipath sender has in this model.
  StreamTrialConfig stream;
  std::vector<PathSpec> paths;  ///< at least one
  PathScheduling scheduler = PathScheduling::kRoundRobin;
  /// Repair-packet path bias for PathScheduling::kWeighted (empty = path
  /// capacities) — the knob PathAdapter::allocate_overhead drives.
  std::vector<double> repair_weights;

  /// Throws std::invalid_argument on inconsistent parameters.
  void validate() const;
};

/// Outcome of one multipath trial.
struct MpathTrialResult {
  /// Delay / residual-loss metrics, identical semantics to the single-path
  /// trial (delays measured from production slot to in-order release).
  StreamTrialResult stream;
  std::vector<PathStats> paths;  ///< per-path counters
  /// Per-path compressed loss statistics in path-transmission order — the
  /// feedback PathAdapter's per-path ChannelEstimators consume.
  std::vector<LossReport> path_reports;
  /// Delivered packets that arrived after a later-emitted packet had
  /// already arrived (cross-path reordering experienced by the receiver).
  std::uint64_t reordered = 0;
  double reordered_fraction = 0.0;  ///< reordered / packets_received
};

/// Reusable per-trial state for run_mpath_trial (see StreamTrialWorkspace
/// for the contract: fully re-initialised per trial, reuse only saves
/// allocations).  The embedded stream workspace carries the plan and the
/// receiver shared with the single-path trial.
struct MpathTrialWorkspace {
  StreamTrialWorkspace stream;
  detail::MpathTransport transport;
  std::vector<double> deadline;  ///< by source (paced) or block (block-rse)
  Resequencer queue;
};

/// Run one multipath trial.  All randomness (path channels, schedules,
/// LDGM graph, repair coefficients) derives from `seed`; path schedulers
/// are deterministic, so the trial is reproducible.
[[nodiscard]] MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                               std::uint64_t seed);

/// Workspace-reusing variant (identical output, fewer allocations).
[[nodiscard]] MpathTrialResult run_mpath_trial(const MpathTrialConfig& cfg,
                                               std::uint64_t seed,
                                               MpathTrialWorkspace& ws);

}  // namespace fecsched
