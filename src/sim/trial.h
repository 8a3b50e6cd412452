// One simulated reception: a schedule replayed through a loss model into a
// decoding tracker (the Reality column of Fig. 3).

#pragma once

#include <cstdint>
#include <span>

#include "channel/loss_model.h"
#include "obs/obs.h"
#include "sim/tracker.h"

namespace fecsched {

/// Outcome of one trial.
struct TrialResult {
  bool decoded = false;        ///< object recovered before schedule ended
  std::uint32_t n_needed = 0;  ///< packets received (duplicates included) when
                               ///< decoding completed; 0 if it never did
  std::uint32_t n_received = 0;  ///< packets received over the whole schedule
  std::uint32_t n_sent = 0;      ///< schedule length
  /// Peak decoder working memory in packet-sized symbols (see
  /// ErasureTracker::working_memory_symbols) — the paper's future-work
  /// "maximum memory requirements" metric.
  std::uint32_t peak_memory_symbols = 0;

  /// inefficiency ratio n_necessary_for_decoding / k (Sec. 4.1).
  [[nodiscard]] double inefficiency(std::uint32_t k) const noexcept {
    return static_cast<double>(n_needed) / static_cast<double>(k);
  }
  /// n_received / k — the ceiling any inefficiency can reach (Sec. 4.1).
  [[nodiscard]] double received_ratio(std::uint32_t k) const noexcept {
    return static_cast<double>(n_received) / static_cast<double>(k);
  }
};

/// Replay `schedule` through `channel` into `tracker`.
///
/// Every delivered packet counts towards n_received (duplicates too — they
/// consume channel capacity); the tracker decides which ones carry new
/// information.  The run continues after decoding completes so n_received
/// reflects the full transmission (used by the paper's n_received/k
/// curves).  The type-erased form of run_trial_with.
[[nodiscard]] TrialResult run_trial(ErasureTracker& tracker,
                                    std::span<const PacketId> schedule,
                                    LossModel& channel);

/// The trial loop over concrete types, as Experiment::run_once runs it:
/// with a final tracker and channel no call per packet is virtual.  With
/// an engaged `hook` the same loop also times every draw and tracker call
/// and emits trace events and the grid.* metrics (`k` is the source count:
/// ids below k are sources); otherwise observation compiles out.  Every
/// instantiation makes the identical draws and tracker calls, so the
/// TrialResult depends on neither the types nor the hook.  Instantiated in
/// trial.cc for the grid trackers with GilbertModel (and LdgmTracker with
/// PerfectChannel).
template <class Tracker, class Channel>
[[nodiscard]] TrialResult run_trial_with(Tracker& tracker,
                                         std::span<const PacketId> schedule,
                                         Channel& channel,
                                         const obs::Hook* hook = nullptr,
                                         std::uint32_t k = 0);

}  // namespace fecsched
