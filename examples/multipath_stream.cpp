// Multipath streaming with sliding-window FEC (src/mpath/), end to end
// with real payload bytes.
//
//   $ ./example_multipath_stream
//
// A video-ish source produces one 1 KiB slice per slot and protects the
// stream with one GF(256) repair over the last W slices every 4 slices
// (25% overhead).  The packets are spread over two paths — a fast clean
// link (3-slot delay, ~1% bursty loss) and a slow lossier one (30-slot
// delay, ~5% loss in bursts of 4) — first by naive round-robin, then by
// the Kurant-style earliest-arrival mapping.  The receiver resequences
// the merged arrivals (mpath/Resequencer), decodes on the fly, releases
// slices in order, and verifies every released slice byte-for-byte
// against the original.  The delay gap between the two mappings is the
// whole point: same paths, same FEC, same overhead — only the
// packet-to-path schedule differs.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "mpath/path.h"
#include "mpath/resequencer.h"
#include "mpath/scheduler.h"
#include "stream/delay_tracker.h"
#include "stream/sliding_window.h"

using namespace fecsched;

namespace {

constexpr std::uint32_t kSlices = 2000;
constexpr std::size_t kSliceBytes = 1024;

struct RunOutcome {
  DelaySummary delay;
  std::uint64_t verified = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t lost = 0;
  std::uint64_t reordered = 0;
  std::vector<PathStats> paths;
};

RunOutcome run(PathScheduling mode,
               const std::vector<std::vector<std::uint8_t>>& slices,
               const SlidingWindowConfig& config, std::uint64_t seed) {
  PathSet paths({PathSpec::gilbert(0.0051, 0.5, 3.0, 1.0, "fast/clean"),
                 PathSpec::gilbert(0.0132, 0.25, 30.0, 1.0, "slow/lossy")});
  paths.reset(seed);
  PathScheduler scheduler(mode, paths);
  SlidingWindowEncoder encoder(config, kSliceBytes);
  SlidingWindowDecoder decoder(config, kSliceBytes);
  DelayTracker tracker;
  Resequencer queue;

  // Sender pass: sources with interleaved repairs, one emission per slot,
  // each mapped to a path.  Arrivals and per-source decode deadlines (one
  // step past the last packet that could still recover the source) are
  // collected for the resequenced receiver replay below.
  const std::uint32_t W = config.window;
  const std::uint32_t interval = config.repair_interval;
  std::vector<RepairPacket> repairs;
  std::vector<double> resolve;     // (would-be) arrival time per emission
  std::vector<char> delivered;
  std::vector<std::uint64_t> kind;  // source seq, or ~repair index
  std::vector<std::size_t> source_emission(kSlices);
  std::vector<std::size_t> repair_emission;
  const auto emit = [&](bool is_repair, std::uint64_t id) {
    const double slot = static_cast<double>(resolve.size());
    const Transmission tx =
        paths.transmit(scheduler.pick(paths, slot, is_repair), slot);
    resolve.push_back(tx.arrival);
    delivered.push_back(tx.lost ? 0 : 1);
    kind.push_back(is_repair ? ~id : id);
  };
  const auto emit_repair = [&] {
    repairs.push_back(encoder.make_repair());
    repair_emission.push_back(resolve.size());
    emit(true, repairs.size() - 1);
  };
  for (std::uint32_t s = 0; s < kSlices; ++s) {
    tracker.on_sent(s, static_cast<double>(resolve.size()));
    source_emission[s] = resolve.size();
    encoder.push_source(slices[s]);
    emit(false, s);
    if (encoder.source_count() % interval == 0) emit_repair();
  }
  for (std::uint32_t i = 0; i < (W + interval - 1) / interval; ++i)
    emit_repair();

  for (std::size_t e = 0; e < resolve.size(); ++e)
    if (delivered[e]) queue.push(resolve[e], 1, e, 0, e);
  std::vector<double> deadline(kSlices);
  for (std::uint32_t s = 0; s < kSlices; ++s)
    deadline[s] = std::max(resolve[source_emission[s]],
                           s + W < kSlices ? resolve[source_emission[s + W]]
                                           : resolve.back());
  for (std::size_t r = 0; r < repairs.size(); ++r)
    for (std::uint64_t s = repairs[r].first;
         s < repairs[r].last && s < kSlices; ++s)
      deadline[s] = std::max(deadline[s], resolve[repair_emission[r]]);
  // Give-up is a prefix operation (give_up_before), so fire each one at
  // the running prefix max — never before a predecessor's own deadline.
  double prefix_max = 0.0;
  for (std::uint32_t s = 0; s < kSlices; ++s) {
    prefix_max = std::max(prefix_max, deadline[s]);
    queue.push(prefix_max + 1.0, 0, s, 1, s);
  }

  // Receiver pass: resequenced replay with byte verification.
  RunOutcome out;
  std::uint64_t max_emission = 0;
  bool any = false;
  std::vector<std::uint64_t> newly;  // seqs the last decoder call settled
  const auto absorb = [&](double t) {
    for (std::uint64_t seq : newly) {
      tracker.on_available(seq, t);
      const auto got = decoder.symbol(seq);
      const auto& want = slices[static_cast<std::size_t>(seq)];
      const bool ok =
          std::equal(got.begin(), got.end(), want.begin(), want.end());
      out.verified += ok ? 1 : 0;
      out.corrupt += ok ? 0 : 1;
    }
    newly.clear();
  };
  for (const RxEvent& ev : queue.drain()) {
    if (ev.kind == 1) {  // deadline
      decoder.give_up_before(ev.value + 1, newly);
      for (std::uint64_t seq : newly) tracker.on_lost(seq, ev.time);
      newly.clear();
      continue;
    }
    const std::uint64_t e = ev.value;
    if (any && e < max_emission) ++out.reordered;
    max_emission = std::max(max_emission, e);
    any = true;
    if (kind[e] < kSlices)
      decoder.on_source(kind[e], slices[kind[e]], newly);
    else
      decoder.on_repair(repairs[~kind[e]], newly);
    absorb(ev.time);
  }
  out.delay = tracker.summary();
  out.lost = out.delay.lost;
  out.paths = paths.stats();
  return out;
}

}  // namespace

int main() {
  SlidingWindowConfig config;
  config.window = 64;
  config.repair_interval = 4;  // 25% repair overhead

  std::vector<std::vector<std::uint8_t>> slices(kSlices);
  for (std::uint32_t s = 0; s < kSlices; ++s) {
    slices[s].resize(kSliceBytes);
    for (std::size_t i = 0; i < kSliceBytes; ++i)
      slices[s][i] =
          static_cast<std::uint8_t>((s * 31 + i * 2654435761u) >> 7);
  }

  std::printf("multipath streaming: %u slices of %zu B, window %u, one "
              "repair every %u slices\n",
              kSlices, kSliceBytes, config.window, config.repair_interval);
  std::printf("paths: fast/clean (3 slots, ~1%% loss) + slow/lossy "
              "(30 slots, ~5%% loss, bursts of 4)\n\n");

  std::uint64_t corrupt = 0;
  for (const PathScheduling mode :
       {PathScheduling::kRoundRobin, PathScheduling::kEarliestArrival}) {
    const RunOutcome out = run(mode, slices, config, 2026);
    corrupt += out.corrupt;
    std::printf("%s:\n", std::string(to_string(mode)).c_str());
    std::printf("  delivered %llu, lost %llu, byte-verified %llu, corrupt "
                "%llu, reordered arrivals %llu\n",
                static_cast<unsigned long long>(out.delay.delivered),
                static_cast<unsigned long long>(out.lost),
                static_cast<unsigned long long>(out.verified),
                static_cast<unsigned long long>(out.corrupt),
                static_cast<unsigned long long>(out.reordered));
    std::printf("  in-order delay: mean %.2f (transport %.2f + HOL %.2f), "
                "p99 %.2f, max %.2f slots\n",
                out.delay.mean, out.delay.mean_transport, out.delay.mean_hol,
                out.delay.p99, out.delay.max);
    for (const PathStats& p : out.paths)
      std::printf("  %-11s carried %5llu packets (%llu erased)\n",
                  p.label.c_str(), static_cast<unsigned long long>(p.sent),
                  static_cast<unsigned long long>(p.lost));
    std::printf("\n");
  }
  std::printf("same paths, same FEC, same overhead — only the "
              "packet-to-path mapping changed.\n");
  return corrupt == 0 ? 0 : 1;
}
