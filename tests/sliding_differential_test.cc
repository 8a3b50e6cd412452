// Sliding-window decoder pinned to its map-based predecessor
// (tests/sliding_reference.h): randomized arrival orders, reorders that
// put repairs ahead of the sources they cover, duplicates, interleaved
// deadline advances and reset() reuse, in both coefficient modes, with
// and without payload bytes.  After every call the two decoders must
// report the same settled seqs in the same order, the same counters and
// (payload mode) the same recovered bytes.  A second suite pins
// sliding_coefficient to golden values, so the per-repair hoisting of its
// derivation cannot drift.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "sliding_reference.h"
#include "stream/sliding_window.h"
#include "util/rng.h"

namespace fecsched {
namespace {

using reference::ReferenceSlidingWindowDecoder;

// One transmitted packet: a source seq, or an index into the repairs.
struct Packet {
  bool repair = false;
  std::uint64_t index = 0;
};

class SlidingDifferential
    : public ::testing::TestWithParam<
          std::tuple<SlidingCoefficients, std::size_t>> {};

TEST_P(SlidingDifferential, MatchesReferenceDecoderCallByCall) {
  const auto [mode, symbol_size] = GetParam();
  constexpr int kRounds = 300;
  Rng rng(0x5d1f ^ symbol_size ^ (mode == SlidingCoefficients::kBinary));

  std::optional<SlidingWindowDecoder> dec;
  std::optional<ReferenceSlidingWindowDecoder> ref;
  std::vector<std::uint64_t> got;

  for (int round = 0; round < kRounds; ++round) {
    SlidingWindowConfig cfg;
    cfg.window = 2 + static_cast<std::uint32_t>(rng.below(19));
    cfg.repair_interval = 1 + static_cast<std::uint32_t>(rng.below(5));
    cfg.coefficients = mode;
    cfg.seed = rng();
    const auto sources = 20 + static_cast<std::uint32_t>(rng.below(140));

    // Both decoders are reused through reset() most rounds and rebuilt
    // from scratch on the others.
    if (!dec || rng.below(4) == 0) {
      dec.emplace(cfg, symbol_size);
      ref.emplace(cfg, symbol_size);
    } else {
      dec->reset(cfg);
      ref->reset(cfg);
    }

    // Emission order of a paced sender, with a one-window repair tail.
    SlidingWindowEncoder enc(cfg, symbol_size);
    std::vector<std::vector<std::uint8_t>> payloads(sources);
    std::vector<RepairPacket> repairs;
    std::vector<Packet> sent;
    for (std::uint32_t s = 0; s < sources; ++s) {
      payloads[s].resize(symbol_size);
      for (auto& b : payloads[s]) b = static_cast<std::uint8_t>(rng.below(256));
      enc.push_source(payloads[s]);
      sent.push_back({false, s});
      if (enc.source_count() % cfg.repair_interval == 0) {
        sent.push_back({true, repairs.size()});
        repairs.push_back(enc.make_repair());
      }
    }
    for (std::uint32_t i = 0; i < cfg.window / cfg.repair_interval + 1; ++i) {
      sent.push_back({true, repairs.size()});
      repairs.push_back(enc.make_repair());
    }

    // Loss, duplication and reordering: each survivor arrives at its send
    // index plus a random delay of up to a few windows, so repairs often
    // overtake the sources they cover.
    const double loss = 0.05 + 0.45 * rng.uniform01();
    const std::uint64_t max_delay = rng.below(3 * cfg.window + 1);
    std::vector<std::pair<std::uint64_t, Packet>> arrivals;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (rng.bernoulli(loss)) continue;
      arrivals.emplace_back(i + rng.below(max_delay + 1), sent[i]);
      if (rng.below(20) == 0)
        arrivals.emplace_back(i + rng.below(max_delay + 1), sent[i]);
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });

    const auto check = [&](const std::vector<std::uint64_t>& want,
                           const char* call, std::size_t step) {
      ASSERT_EQ(got, want) << call << " round " << round << " step " << step;
      ASSERT_EQ(dec->known_count(), ref->known_count());
      ASSERT_EQ(dec->lost_count(), ref->lost_count());
      ASSERT_EQ(dec->active_equations(), ref->active_equations())
          << call << " round " << round << " step " << step;
      if (symbol_size == 0) return;
      for (std::uint64_t seq : got) {
        if (!ref->is_known(seq)) continue;  // a give-up list
        const auto a = dec->symbol(seq);
        const auto b = ref->symbol(seq);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << "seq " << seq << " round " << round;
        ASSERT_TRUE(std::equal(a.begin(), a.end(), payloads[seq].begin(),
                               payloads[seq].end()))
            << "seq " << seq << " round " << round;
      }
    };

    for (std::size_t step = 0; step < arrivals.size(); ++step) {
      const Packet& p = arrivals[step].second;
      got.clear();
      if (p.repair) {
        dec->on_repair(repairs[p.index], got);
        check(ref->on_repair(repairs[p.index]), "on_repair", step);
      } else {
        dec->on_source(p.index, payloads[p.index], got);
        check(ref->on_source(p.index, payloads[p.index]), "on_source", step);
      }
      // The deadline trails the sources produced by this arrival's time by
      // a random slack: sometimes past sources still in flight, sometimes
      // behind the current horizon (a no-op).
      if (rng.below(3) == 0) {
        const std::uint64_t produced = arrivals[step].first *
                                       cfg.repair_interval /
                                       (cfg.repair_interval + 1);
        const std::uint64_t slack = rng.below(2 * cfg.window + 1);
        const std::uint64_t h = std::min<std::uint64_t>(
            produced > slack ? produced - slack : 0, sources);
        got.clear();
        dec->give_up_before(h, got);
        check(ref->give_up_before(h), "give_up_before", step);
      }
    }
    got.clear();
    dec->give_up_before(sources, got);
    check(ref->give_up_before(sources), "final give_up_before", 0);
    for (std::uint64_t s = 0; s < sources + 2; ++s) {
      ASSERT_EQ(dec->is_known(s), ref->is_known(s)) << "seq " << s;
      ASSERT_EQ(dec->is_lost(s), ref->is_lost(s)) << "seq " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SlidingDifferential,
    ::testing::Combine(::testing::Values(SlidingCoefficients::kRandomGf256,
                                         SlidingCoefficients::kBinary),
                       ::testing::Values(std::size_t{0}, std::size_t{16})),
    [](const auto& info) {
      const std::size_t symbol_size = std::get<1>(info.param);
      return std::string(std::get<0>(info.param) == SlidingCoefficients::kBinary
                             ? "Binary"
                             : "RandomGf256") +
             (symbol_size == 0 ? "_StructureOnly"
                               : "_Payload" + std::to_string(symbol_size));
    });

// Golden values recorded from the per-term derive_seed derivation.
TEST(SlidingCoefficientPin, MatchesGoldenValues) {
  struct Golden {
    std::uint64_t seed, repair_seq, source_seq;
    std::uint8_t coefficient;
  };
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const Golden golden[] = {
      {0x57e4a11dULL, 0, 0, 63},
      {0x57e4a11dULL, 0, 1, 132},
      {0x57e4a11dULL, 1, 0, 140},
      {0x57e4a11dULL, 3, 17, 57},
      {0x57e4a11dULL, 499, 1996, 124},
      {0x57e4a11dULL, 1048576, 4194303, 39},
      {0x0ULL, 0, 0, 112},
      {0x0ULL, 7, 63, 79},
      {0x1ULL, 1, 1, 87},
      {0x4dULL, 12, 40, 123},
      {0x4dULL, 66, 199, 104},
      {0xdeadbeefcafef00dULL, 123456789, 987654321, 104},
      {kMax, kMax, kMax, 226},
      {0x2aULL, 0, kMax, 54},
      {0x2aULL, kMax, 0, 38},
      {0x9e3779b97f4a7c15ULL, 5, 5, 56},
  };
  SlidingWindowConfig cfg;
  for (const Golden& g : golden) {
    cfg.seed = g.seed;
    EXPECT_EQ(sliding_coefficient(cfg, g.repair_seq, g.source_seq),
              g.coefficient)
        << "seed " << g.seed << " repair " << g.repair_seq << " source "
        << g.source_seq;
    EXPECT_EQ(RepairCoefficients(cfg, g.repair_seq)(g.source_seq),
              g.coefficient);
  }
  cfg.coefficients = SlidingCoefficients::kBinary;
  for (const Golden& g : golden)
    EXPECT_EQ(sliding_coefficient(cfg, g.repair_seq, g.source_seq), 1);
}

}  // namespace
}  // namespace fecsched
