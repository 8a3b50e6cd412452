// Streaming FEC subsystem (src/stream/): sliding-window decoder
// cross-checked against the brute-force GF(2) solver, payload-mode
// correctness, delay-tracker invariants, stream-trial sanity, and pinned
// digests of every scheme x scheduling output.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "adapt/controller.h"
#include "channel/gilbert.h"
#include "fec/ge_decoder.h"
#include "fec/peeling_decoder.h"
#include "sim/stream_delay.h"
#include "stream/delay_tracker.h"
#include "stream/sliding_window.h"
#include "stream/stream_trial.h"
#include "util/rng.h"

namespace fecsched {
namespace {

// ---------------------------------------------------------- cross-check

// In binary-coefficient mode every repair is the XOR of its window, so the
// linear system the sliding decoder solves over GF(2^8) has 0/1
// coefficients; the rank of such a system is the same over GF(2) and any
// extension field, which makes the brute-force GF(2) solver
// (fec/peeling_decoder + fec/ge_decoder on the support structure) an
// *exact* oracle: the two decoders must recover exactly the same sources
// on every erasure pattern.
class SlidingCrossCheck : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SlidingCrossCheck, MatchesBruteForceGf2OnRandomErasures) {
  const std::uint32_t W = GetParam();
  constexpr std::uint32_t kSources = 24;
  constexpr std::uint32_t kInterval = 2;
  constexpr int kPatterns = 1000;

  SlidingWindowConfig cfg;
  cfg.window = W;
  cfg.repair_interval = kInterval;
  cfg.coefficients = SlidingCoefficients::kBinary;

  const SparseBinaryMatrix support = sliding_support_matrix(cfg, kSources);
  const std::uint32_t repairs = kSources / kInterval;
  ASSERT_EQ(support.rows(), repairs);
  ASSERT_EQ(support.cols(), kSources + repairs);

  Rng rng(0xc0ffee ^ W);
  for (int pattern = 0; pattern < kPatterns; ++pattern) {
    const double loss = 0.05 + 0.55 * rng.uniform01();
    std::vector<bool> source_ok(kSources), repair_ok(repairs);
    for (std::uint32_t s = 0; s < kSources; ++s)
      source_ok[s] = !rng.bernoulli(loss);
    for (std::uint32_t r = 0; r < repairs; ++r)
      repair_ok[r] = !rng.bernoulli(loss);

    // Streaming decoder, transmission order, no deadline.
    SlidingWindowDecoder dec(cfg);
    std::vector<std::uint64_t> newly;
    std::uint32_t next_repair = 0;
    for (std::uint32_t s = 0; s < kSources; ++s) {
      if (source_ok[s]) dec.on_source(s, {}, newly);
      if ((s + 1) % kInterval == 0) {
        if (repair_ok[next_repair]) {
          RepairPacket rp;
          rp.repair_seq = next_repair;
          rp.last = s + 1;
          rp.first = s + 1 >= W ? s + 1 - W : 0;
          dec.on_repair(rp, newly);
        }
        ++next_repair;
      }
    }

    // Brute-force GF(2) oracle on the same received set.
    PeelingDecoder oracle(support, kSources);
    for (std::uint32_t s = 0; s < kSources; ++s)
      if (source_ok[s]) oracle.add_packet(s);
    for (std::uint32_t r = 0; r < repairs; ++r)
      if (repair_ok[r]) oracle.add_packet(kSources + r);
    (void)ge_solve(oracle);

    for (std::uint32_t s = 0; s < kSources; ++s)
      ASSERT_EQ(dec.is_known(s), oracle.is_known(s))
          << "pattern " << pattern << " source " << s << " W " << W;
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, SlidingCrossCheck,
                         ::testing::Values(4u, 6u, 8u));

// ------------------------------------------------------------- payloads

TEST(SlidingWindow, PayloadRoundtripUnderRandomLoss) {
  constexpr std::uint32_t kSources = 200;
  constexpr std::size_t kSymbol = 64;
  SlidingWindowConfig cfg;
  cfg.window = 16;
  cfg.repair_interval = 3;
  cfg.seed = 77;

  Rng content(5), loss(9);
  std::vector<std::vector<std::uint8_t>> sources(kSources);
  for (auto& s : sources) {
    s.resize(kSymbol);
    for (auto& b : s) b = static_cast<std::uint8_t>(content.below(256));
  }

  SlidingWindowEncoder enc(cfg, kSymbol);
  SlidingWindowDecoder dec(cfg, kSymbol);
  std::vector<std::uint64_t> newly;
  for (std::uint32_t s = 0; s < kSources; ++s) {
    enc.push_source(sources[s]);
    if (!loss.bernoulli(0.15)) dec.on_source(s, sources[s], newly);
    if (enc.source_count() % cfg.repair_interval == 0) {
      const RepairPacket rp = enc.make_repair();
      if (!loss.bernoulli(0.15)) dec.on_repair(rp, newly);
    }
  }
  for (std::uint32_t i = 0; i < cfg.window; ++i) {
    const RepairPacket rp = enc.make_repair();
    if (!loss.bernoulli(0.15)) dec.on_repair(rp, newly);
  }

  // Whatever the decoder claims to know must be byte-exact, and with this
  // much tail redundancy nearly everything must be known.
  std::uint32_t known = 0;
  for (std::uint32_t s = 0; s < kSources; ++s) {
    if (!dec.is_known(s)) continue;
    ++known;
    const auto got = dec.symbol(s);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), sources[s].begin(),
                           sources[s].end()))
        << "source " << s;
  }
  EXPECT_GE(known, kSources * 95 / 100);
}

TEST(SlidingWindow, DeadlineDeclaresExactlyTheUnrecoverable) {
  SlidingWindowConfig cfg;
  cfg.window = 4;
  cfg.repair_interval = 2;
  SlidingWindowDecoder dec(cfg);
  std::vector<std::uint64_t> known, lost;
  // Sources 0 and 1 lost, 2 and 3 received; no repairs at all.
  dec.on_source(2, {}, known);
  dec.on_source(3, {}, known);
  dec.give_up_before(2, lost);
  EXPECT_EQ(lost, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(dec.is_lost(0));
  EXPECT_TRUE(dec.is_lost(1));
  EXPECT_FALSE(dec.is_lost(2));
  // The horizon never regresses, and re-declaring is a no-op.
  lost.clear();
  dec.give_up_before(1, lost);
  EXPECT_TRUE(lost.empty());
  EXPECT_EQ(dec.horizon(), 2u);
  // A repair pinned on an expired source is useless and must be dropped.
  RepairPacket rp;
  rp.repair_seq = 0;
  rp.first = 0;
  rp.last = 2;
  known.clear();
  dec.on_repair(rp, known);
  EXPECT_TRUE(known.empty());
  EXPECT_EQ(dec.active_equations(), 0u);
}

TEST(SlidingWindow, RepairSpanReversedThrows) {
  SlidingWindowConfig cfg;
  cfg.window = 8;
  SlidingWindowDecoder dec(cfg);
  std::vector<std::uint64_t> newly;
  RepairPacket rp;
  rp.first = 5;
  rp.last = 4;
  EXPECT_THROW(dec.on_repair(rp, newly), std::invalid_argument);
  EXPECT_TRUE(newly.empty());
  EXPECT_EQ(dec.active_equations(), 0u);
}

TEST(SlidingWindow, RepairSpanWiderThanWindowThrows) {
  SlidingWindowConfig cfg;
  cfg.window = 8;
  SlidingWindowDecoder dec(cfg);
  std::vector<std::uint64_t> newly;
  RepairPacket rp;
  rp.first = 0;
  rp.last = 9;
  EXPECT_THROW(dec.on_repair(rp, newly), std::invalid_argument);
  // A full-window span is the widest a sender emits, and is accepted.
  rp.last = 8;
  EXPECT_NO_THROW(dec.on_repair(rp, newly));
  EXPECT_EQ(dec.active_equations(), 1u);
}

TEST(SlidingWindow, EncoderWindowMatchesDeclaredSpan) {
  SlidingWindowConfig cfg;
  cfg.window = 8;
  cfg.repair_interval = 4;
  SlidingWindowEncoder enc(cfg, 4);
  const std::vector<std::uint8_t> sym{1, 2, 3, 4};
  for (int i = 0; i < 20; ++i) enc.push_source(sym);
  const RepairPacket rp = enc.make_repair();
  EXPECT_EQ(rp.last, 20u);
  EXPECT_EQ(rp.first, 12u);
  EXPECT_EQ(rp.payload.size(), 4u);
}

// --------------------------------------------------------- delay tracker

TEST(DelayTracker, InvariantsOnRandomisedSchedule) {
  constexpr std::uint32_t kSources = 400;
  Rng rng(31337);
  DelayTracker tracker;
  // Events: every source is sent at t = seq; fate lands at a random later
  // time, 12% lost.  Feed fates in time order.
  std::vector<std::pair<double, std::uint64_t>> fates;  // (time, seq)
  std::vector<bool> lost(kSources);
  for (std::uint32_t s = 0; s < kSources; ++s) {
    tracker.on_sent(s, s);
    lost[s] = rng.bernoulli(0.12);
    fates.emplace_back(s + 60.0 * rng.uniform01(), s);
  }
  std::sort(fates.begin(), fates.end());
  for (const auto& [t, seq] : fates) {
    if (lost[seq])
      tracker.on_lost(seq, t);
    else
      tracker.on_available(seq, t);
  }

  EXPECT_TRUE(tracker.drained());
  EXPECT_EQ(tracker.released_through(), kSources);

  const DelaySummary sum = tracker.summary();
  const ResidualLossStats residual = tracker.residual_loss();
  EXPECT_EQ(sum.delivered + sum.lost, kSources);
  EXPECT_EQ(sum.delivered, tracker.delays().size());

  // delay >= 0 for every delivered source.
  for (double d : tracker.delays()) {
    EXPECT_GE(d, 0.0);
  }

  // HOL accounting: mean delay == mean transport + mean HOL, exactly.
  EXPECT_NEAR(sum.mean, sum.mean_transport + sum.mean_hol, 1e-9);
  EXPECT_GE(sum.mean_transport, 0.0);
  EXPECT_GE(sum.mean_hol, 0.0);

  // Monotone in-order release: delivery order is seq order, and the
  // reconstructed release times never decrease.
  double last_release = 0.0;
  std::size_t j = 0;
  for (std::uint32_t s = 0; s < kSources; ++s) {
    if (lost[s]) continue;
    const double release = s + tracker.delays()[j++];
    EXPECT_GE(release, last_release) << "seq " << s;
    last_release = release;
  }
  EXPECT_EQ(j, tracker.delays().size());

  // Residual run-length accounting sums back to the loss count.
  std::uint64_t expect_lost = 0;
  for (bool l : lost) expect_lost += l ? 1 : 0;
  EXPECT_EQ(residual.lost, expect_lost);
  if (residual.runs > 0) {
    EXPECT_NEAR(residual.mean_run_length * static_cast<double>(residual.runs),
                static_cast<double>(residual.lost), 1e-9);
  }
  EXPECT_LE(residual.max_run_length, residual.lost);
  EXPECT_LE(residual.runs, residual.lost);

  // Percentiles are ordered.
  EXPECT_LE(sum.p50, sum.p95);
  EXPECT_LE(sum.p95, sum.p99);
  EXPECT_LE(sum.p99, sum.max);
}

TEST(DelayTracker, RecoveryBeforeSendIsPinnedToSendTime) {
  DelayTracker tracker;
  tracker.on_sent(0, 0.0);
  tracker.on_sent(1, 10.0);
  // Source 1 "recovered" at t=2 (parity-early schedule): pinned to t=10.
  tracker.on_available(1, 2.0);
  tracker.on_available(0, 3.0);
  ASSERT_EQ(tracker.delays().size(), 2u);
  EXPECT_DOUBLE_EQ(tracker.delays()[0], 3.0);   // seq 0: 3 - 0
  EXPECT_DOUBLE_EQ(tracker.delays()[1], 0.0);   // seq 1: max(3,10,10) - 10
  const DelaySummary sum = tracker.summary();
  EXPECT_NEAR(sum.mean, sum.mean_transport + sum.mean_hol, 1e-9);
}

// ---------------------------------------------------------- stream trial

class StreamTrialSequentialSchemes
    : public ::testing::TestWithParam<StreamScheme> {};

TEST_P(StreamTrialSequentialSchemes, PerfectChannelDeliversAtZeroDelay) {
  StreamTrialConfig cfg;
  cfg.scheme = GetParam();
  cfg.scheduling = StreamScheduling::kSequential;
  cfg.source_count = 500;
  cfg.overhead = 0.25;
  cfg.window = 32;
  cfg.block_k = 50;
  PerfectChannel channel;
  const StreamTrialResult r = run_stream_trial(cfg, channel, 1);
  EXPECT_TRUE(r.all_delivered);
  EXPECT_EQ(r.delay.delivered, cfg.source_count);
  EXPECT_EQ(r.delay.lost, 0u);
  EXPECT_DOUBLE_EQ(r.delay.mean, 0.0);
  EXPECT_DOUBLE_EQ(r.delay.max, 0.0);
  EXPECT_EQ(r.residual.lost, 0u);
  EXPECT_GT(r.overhead_actual, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Schemes, StreamTrialSequentialSchemes,
                         ::testing::Values(StreamScheme::kSlidingWindow,
                                           StreamScheme::kReplication,
                                           StreamScheme::kBlockRse,
                                           StreamScheme::kLdgm));

TEST(StreamTrial, AccountsEverySourceExactlyOnce) {
  for (const StreamScheme scheme :
       {StreamScheme::kSlidingWindow, StreamScheme::kReplication,
        StreamScheme::kBlockRse, StreamScheme::kLdgm}) {
    for (const StreamScheduling sched :
         {StreamScheduling::kSequential, StreamScheduling::kInterleaved,
          StreamScheduling::kCarousel}) {
      StreamTrialConfig cfg;
      cfg.scheme = scheme;
      cfg.scheduling = sched;
      cfg.source_count = 400;
      cfg.overhead = 0.25;
      cfg.window = 40;
      cfg.block_k = 40;
      GilbertModel channel(0.02, 0.25);  // 7.4% loss, mean burst 4
      const StreamTrialResult r = run_stream_trial(cfg, channel, 99);
      EXPECT_EQ(r.delay.delivered + r.delay.lost, cfg.source_count)
          << to_string(scheme) << "/" << to_string(sched);
      EXPECT_EQ(r.delay.delivered, r.delays.size());
      EXPECT_GE(r.packets_sent, cfg.source_count);
      EXPECT_LE(r.packets_received, r.packets_sent);
      for (double d : r.delays) {
        EXPECT_GE(d, 0.0);
      }
      EXPECT_NEAR(r.delay.mean, r.delay.mean_transport + r.delay.mean_hol,
                  1e-9);
    }
  }
}

TEST(StreamTrial, DeterministicForSeed) {
  StreamTrialConfig cfg;
  cfg.scheme = StreamScheme::kSlidingWindow;
  cfg.source_count = 600;
  cfg.window = 48;
  GilbertModel a(0.01, 0.2), b(0.01, 0.2);
  const StreamTrialResult r1 = run_stream_trial(cfg, a, 4242);
  const StreamTrialResult r2 = run_stream_trial(cfg, b, 4242);
  EXPECT_EQ(r1.delays, r2.delays);
  EXPECT_EQ(r1.packets_sent, r2.packets_sent);
  EXPECT_EQ(r1.packets_received, r2.packets_received);
  EXPECT_EQ(r1.residual.lost, r2.residual.lost);
}

TEST(StreamTrial, CarouselRecoversWhatSequentialLoses) {
  // A harsh channel: the carousel's extra cycles must strictly reduce the
  // undelivered fraction of the plain sequential block schedule.
  StreamTrialConfig cfg;
  cfg.scheme = StreamScheme::kBlockRse;
  cfg.source_count = 400;
  cfg.overhead = 0.25;
  cfg.block_k = 40;
  cfg.max_cycles = 4;
  std::uint64_t seq_lost = 0, carousel_lost = 0;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    GilbertModel channel(0.05, 0.2);  // 20% loss, mean burst 5
    cfg.scheduling = StreamScheduling::kSequential;
    seq_lost += run_stream_trial(cfg, channel, seed).residual.lost;
    cfg.scheduling = StreamScheduling::kCarousel;
    carousel_lost += run_stream_trial(cfg, channel, seed).residual.lost;
  }
  EXPECT_LT(carousel_lost, seq_lost);
}

/// FNV-1a (64-bit) over every field a trial's pinned digest covers: the
/// release-order delays (bit patterns), the channel counts and the
/// residual-loss run statistics.
void fnv1a(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
}

void digest_trial(std::uint64_t& h, const StreamTrialResult& r) {
  fnv1a(h, r.delays.size());
  for (const double d : r.delays) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    fnv1a(h, bits);
  }
  fnv1a(h, r.packets_sent);
  fnv1a(h, r.packets_received);
  fnv1a(h, r.residual.lost);
  fnv1a(h, r.residual.runs);
  fnv1a(h, r.residual.max_run_length);
}

TEST(StreamTrialDigest, EverySchemeAndSchedulingMatchesPinnedOutputs) {
  // The mpath and net oracles compare those engines with this one, and
  // all three share one plan and receiver, so a change that moves every
  // engine together passes them; these digests of every scheme and
  // scheduling do not.  Paced schemes ignore the scheduling axis, so
  // their three digests per scheme must agree.
  struct Pin {
    StreamScheme scheme;
    StreamScheduling scheduling;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {StreamScheme::kSlidingWindow, StreamScheduling::kSequential,
       0x80e265ca24d07515ull},
      {StreamScheme::kSlidingWindow, StreamScheduling::kInterleaved,
       0x80e265ca24d07515ull},
      {StreamScheme::kSlidingWindow, StreamScheduling::kCarousel,
       0x80e265ca24d07515ull},
      {StreamScheme::kReplication, StreamScheduling::kSequential,
       0xdfaa1661a7edacfull},
      {StreamScheme::kReplication, StreamScheduling::kInterleaved,
       0xdfaa1661a7edacfull},
      {StreamScheme::kReplication, StreamScheduling::kCarousel,
       0xdfaa1661a7edacfull},
      {StreamScheme::kBlockRse, StreamScheduling::kSequential,
       0xf1e5eb7a65242059ull},
      {StreamScheme::kBlockRse, StreamScheduling::kInterleaved,
       0x149b314f4242cce8ull},
      {StreamScheme::kBlockRse, StreamScheduling::kCarousel,
       0xd199adf992060610ull},
      {StreamScheme::kLdgm, StreamScheduling::kSequential,
       0xc78e9ac3d3fac124ull},
      {StreamScheme::kLdgm, StreamScheduling::kInterleaved,
       0x8ed6458eaaf02243ull},
      {StreamScheme::kLdgm, StreamScheduling::kCarousel,
       0x99ff01593b00ec17ull},
  };
  StreamTrialWorkspace ws;
  for (const Pin& pin : pins) {
    StreamTrialConfig cfg;
    cfg.scheme = pin.scheme;
    cfg.scheduling = pin.scheduling;
    cfg.source_count = 500;
    cfg.overhead = 0.25;
    cfg.window = 40;
    cfg.block_k = 40;
    cfg.max_cycles = 3;
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      GilbertModel channel(0.04, 0.3);  // 11.8% loss, mean burst 3.3
      digest_trial(h, run_stream_trial(cfg, channel, seed, ws));
    }
    EXPECT_EQ(h, pin.digest) << to_string(pin.scheme) << "/"
                             << to_string(pin.scheduling) << " digest 0x"
                             << std::hex << h;
  }
}

// ------------------------------------------------------ delay grid / hook

TEST(StreamDelayGrid, AggregatesAndIsThreadCountIndependent) {
  StreamGridConfig cfg;
  cfg.overheads = {0.25};
  cfg.base.source_count = 300;
  cfg.base.window = 32;
  cfg.base.block_k = 40;
  cfg.variants = {
      {"sliding", StreamScheme::kSlidingWindow, StreamScheduling::kSequential},
      {"rse", StreamScheme::kBlockRse, StreamScheduling::kSequential},
  };
  const std::vector<ChannelPoint> points = {gilbert_point(0.02, 3.0),
                                            gilbert_point(0.05, 3.0)};
  GridRunOptions opt;
  opt.trials_per_cell = 4;
  opt.threads = 1;
  const StreamGridResult r1 = run_stream_delay_grid(points, cfg, opt);
  opt.threads = 4;
  const StreamGridResult r2 = run_stream_delay_grid(points, cfg, opt);
  ASSERT_EQ(r1.stats.size(), points.size() * 2);
  for (std::size_t i = 0; i < r1.stats.size(); ++i) {
    EXPECT_EQ(r1.stats[i].trials, 4u);
    EXPECT_EQ(r1.stats[i].mean_delay.mean(), r2.stats[i].mean_delay.mean());
    EXPECT_EQ(r1.stats[i].undelivered_fraction.mean(),
              r2.stats[i].undelivered_fraction.mean());
  }
}

TEST(GilbertPoint, RoundTripsStationaryLossAndBurst) {
  const ChannelPoint pt = gilbert_point(0.1, 5.0);
  const GilbertModel model(pt.p, pt.q);
  EXPECT_NEAR(model.global_loss_probability(), 0.1, 1e-12);
  EXPECT_NEAR(1.0 / pt.q, 5.0, 1e-12);
  EXPECT_THROW((void)gilbert_point(-0.1, 2.0), std::invalid_argument);
  EXPECT_THROW((void)gilbert_point(0.2, 0.5), std::invalid_argument);
}

TEST(RecommendWindow, GrowsWithBurstLengthAndLossRate) {
  AdaptiveController controller;
  ChannelEstimate est;
  est.confidence = 1.0;
  est.p_global = 0.05;

  est.mean_burst = 2.0;
  const std::uint32_t w2 =
      controller.recommend_window(est, 0.25).window;
  est.mean_burst = 8.0;
  const std::uint32_t w8 =
      controller.recommend_window(est, 0.25).window;
  EXPECT_GT(w8, w2);

  est.mean_burst = 4.0;
  est.p_global = 0.02;
  const std::uint32_t w_low =
      controller.recommend_window(est, 0.25).window;
  est.p_global = 0.15;
  const std::uint32_t w_high =
      controller.recommend_window(est, 0.25).window;
  EXPECT_GT(w_high, w_low);

  // Loss rate at/above the repair budget: defensive maximum.
  est.p_global = 0.30;
  EXPECT_EQ(controller.recommend_window(est, 0.25).window, 1024u);

  // Cold start (no confidence): the default window.
  est.confidence = 0.0;
  EXPECT_EQ(controller.recommend_window(est, 0.25).window, 64u);

  // The pacing always realises the overhead budget.
  est.confidence = 1.0;
  est.p_global = 0.01;
  EXPECT_EQ(controller.recommend_window(est, 0.25).repair_interval, 4u);
  EXPECT_EQ(controller.recommend_window(est, 0.125).repair_interval, 8u);
}

}  // namespace
}  // namespace fecsched
