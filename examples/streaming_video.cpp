// Streaming video over a bursty channel with sliding-window FEC
// (src/stream/), end to end with real payload bytes.
//
//   $ ./example_streaming_video
//
// A 30 fps "video" source produces one 1 KiB packet per frame slice; the
// sender emits one repair packet over the last W slices every 4 slices
// (25% overhead).  The receiver decodes on the fly, releases slices in
// order, and the demo reports the in-order delivery delay both in packet
// slots and in milliseconds at the stream's packet rate — the number a
// player would add to its jitter buffer.  Every released slice is
// verified byte-for-byte against the original.
//
// The window size comes from the adaptive subsystem's streaming hook
// (AdaptiveController::recommend_window) fed with the channel estimate a
// receiver report would produce; the channel itself is instantiated by
// name through the scenario API's registry (src/api/) — swap "gilbert"
// for any registered loss model to re-run the demo on it.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "adapt/controller.h"
#include "api/registry.h"
#include "stream/delay_tracker.h"
#include "stream/sliding_window.h"

int main() {
  using namespace fecsched;

  constexpr std::uint32_t kSlices = 3000;     // ~100 s of video at 30 fps
  constexpr std::size_t kSliceBytes = 1024;
  constexpr double kPacketsPerSecond = 30.0 * 1.25;  // source + repair pacing
  constexpr double kSlotMs = 1000.0 / kPacketsPerSecond;

  // A bursty last-mile link: 3% loss in bursts of 4 packets on average
  // (the "gilbert" entry of the scenario registry).
  const double p_global = 0.03, mean_burst = 4.0;
  const double q = 1.0 / mean_burst;
  const double p = p_global * q / (1.0 - p_global);
  const auto channel_ptr = api::registry().make_channel("gilbert", {p, q});
  LossModel& channel = *channel_ptr;
  channel.reset(2026);

  // Window recommendation from the adaptive hook at the true channel.
  ChannelEstimate estimate;
  estimate.p = p;
  estimate.q = q;
  estimate.p_global = p_global;
  estimate.mean_burst = mean_burst;
  estimate.bursty = true;
  estimate.confidence = 1.0;
  AdaptiveController controller;
  SlidingWindowConfig config = controller.recommend_window(estimate, 0.25);
  std::printf("channel: %.1f%% loss, mean burst %.1f packets\n",
              p_global * 100.0, mean_burst);
  std::printf("sliding window: W=%u slices, one repair every %u slices\n\n",
              config.window, config.repair_interval);

  // Deterministic "video" content.
  std::vector<std::vector<std::uint8_t>> slices(kSlices);
  for (std::uint32_t s = 0; s < kSlices; ++s) {
    slices[s].resize(kSliceBytes);
    for (std::size_t i = 0; i < kSliceBytes; ++i)
      slices[s][i] = static_cast<std::uint8_t>((s * 31 + i * 2654435761u) >> 7);
  }

  SlidingWindowEncoder encoder(config, kSliceBytes);
  SlidingWindowDecoder decoder(config, kSliceBytes);
  DelayTracker tracker;

  std::uint64_t slot = 0, received = 0, verified = 0, corrupt = 0;
  std::vector<std::uint64_t> newly;  // seqs the last decoder call settled
  const auto absorb = [&] {
    for (std::uint64_t seq : newly) {
      tracker.on_available(seq, static_cast<double>(slot));
      const auto got = decoder.symbol(seq);
      const auto& want = slices[static_cast<std::size_t>(seq)];
      const bool ok = std::equal(got.begin(), got.end(), want.begin(),
                                 want.end());
      verified += ok ? 1 : 0;
      corrupt += ok ? 0 : 1;
    }
    newly.clear();
  };
  const auto declare_lost = [&] {
    for (std::uint64_t seq : newly)
      tracker.on_lost(seq, static_cast<double>(slot));
    newly.clear();
  };

  for (std::uint32_t s = 0; s < kSlices; ++s) {
    tracker.on_sent(s, static_cast<double>(slot));
    encoder.push_source(slices[s]);
    if (!channel.lost()) {
      ++received;
      decoder.on_source(s, slices[s], newly);
      absorb();
    }
    ++slot;
    if (encoder.source_count() > config.window) {
      decoder.give_up_before(encoder.source_count() - config.window, newly);
      declare_lost();
    }
    if (encoder.source_count() % config.repair_interval == 0) {
      const RepairPacket repair = encoder.make_repair();
      if (!channel.lost()) {
        ++received;
        decoder.on_repair(repair, newly);
      absorb();
      }
      ++slot;
    }
  }
  // Flush the tail window, then finalise.
  for (std::uint32_t i = 0;
       i < (config.window + config.repair_interval - 1) / config.repair_interval;
       ++i) {
    const RepairPacket repair = encoder.make_repair();
    if (!channel.lost()) {
      ++received;
      decoder.on_repair(repair, newly);
      absorb();
    }
    ++slot;
  }
  decoder.give_up_before(kSlices, newly);
  declare_lost();

  const DelaySummary delay = tracker.summary();
  const ResidualLossStats residual = tracker.residual_loss();
  std::printf("streamed %u slices (%llu packets, %llu received)\n", kSlices,
              static_cast<unsigned long long>(slot),
              static_cast<unsigned long long>(received));
  std::printf("delivered %llu slices, %llu lost past the deadline, "
              "%llu byte-verified, %llu corrupt\n",
              static_cast<unsigned long long>(delay.delivered),
              static_cast<unsigned long long>(delay.lost),
              static_cast<unsigned long long>(verified),
              static_cast<unsigned long long>(corrupt));
  std::printf("\nin-order delivery delay (slots / ms at %.1f pkt/s):\n",
              kPacketsPerSecond);
  std::printf("  mean %6.2f / %7.1f ms    (transport %.2f + HOL %.2f)\n",
              delay.mean, delay.mean * kSlotMs, delay.mean_transport,
              delay.mean_hol);
  std::printf("  p95  %6.2f / %7.1f ms\n", delay.p95, delay.p95 * kSlotMs);
  std::printf("  p99  %6.2f / %7.1f ms\n", delay.p99, delay.p99 * kSlotMs);
  std::printf("  max  %6.2f / %7.1f ms   -> jitter-buffer requirement\n",
              delay.max, delay.max * kSlotMs);
  if (residual.lost > 0)
    std::printf("\nresidual loss after FEC: %llu slices in %llu bursts "
                "(mean burst %.2f, max %llu)\n",
                static_cast<unsigned long long>(residual.lost),
                static_cast<unsigned long long>(residual.runs),
                residual.mean_run_length,
                static_cast<unsigned long long>(residual.max_run_length));
  else
    std::printf("\nno residual loss: every slice beat the deadline\n");
  return corrupt == 0 ? 0 : 1;
}
