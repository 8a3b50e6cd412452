// One simulated streaming reception: a paced source stream protected by a
// FEC scheme, replayed through a channel/ loss model into a delay tracker.
//
// This is the delay-axis counterpart of sim/trial: instead of "how many
// packets until the object decodes", it answers "how long until each
// source packet can be released in order" (stream/delay_tracker) under
// four protection schemes at matched repair overhead:
//
//  * kSlidingWindow — stream/sliding_window: sources go out as produced,
//    one repair over the last W sources every `1/overhead` sources.
//  * kReplication  — same pacing, but every repair slot re-sends one of
//    the last W sources round-robin (the no-FEC baseline).
//  * kBlockRse     — blocked Reed-Solomon (fec/block_partition geometry,
//    MDS completion rule as in sim/tracker): a block's missing sources
//    are recovered when k_b distinct packets of the block arrived.
//  * kLdgm         — one large-block LDGM code over the whole stream with
//    the iterative peeling decoder (fec/peeling_decoder).
//
// Block schemes take a scheduling axis (the paper's Sec. 4 knob, via
// sched/): per-block sequential, interleaved (Tx_model_5 order), or a
// block carousel (the sequential schedule looped up to max_cycles times
// until everything is delivered).  Time is discrete: the channel
// transmits exactly one packet per slot, and all delays are measured in
// slots from the source's own transmission slot.
//
// The sender's decisions are a StreamPlan (stream/stream_plan) and the
// decoding a StreamReceiver (stream/stream_receiver), both shared with
// the multipath and net engines; this trial is run_slots over a link
// that draws each slot's fate from the in-process channel.

#pragma once

#include <cstdint>

#include "channel/loss_model.h"
#include "stream/stream_plan.h"
#include "stream/stream_receiver.h"

namespace fecsched {

/// Reusable per-trial state for run_stream_trial: the plan and the
/// receiver (decoders and delay tracker).  Sweeps keep one workspace per
/// worker thread so the inner trial loop stops allocating; both are fully
/// re-initialised at the start of each trial, so reuse never changes a
/// result bit (the threads=1-vs-N grid tests pin this).
struct StreamTrialWorkspace {
  StreamPlan plan;
  StreamReceiver receiver;
};

/// Run one streaming trial.  The channel is reset from `seed`; all other
/// randomness (schedules, LDGM graph, repair coefficients) derives from
/// `seed` too, so the trial is reproducible.
[[nodiscard]] StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                                 LossModel& channel,
                                                 std::uint64_t seed);

/// Workspace-reusing variant (identical output, fewer allocations).
[[nodiscard]] StreamTrialResult run_stream_trial(const StreamTrialConfig& cfg,
                                                 LossModel& channel,
                                                 std::uint64_t seed,
                                                 StreamTrialWorkspace& ws);

}  // namespace fecsched
