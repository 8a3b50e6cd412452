// Peeling decoder: cascade correctness, payload recovery, duplicate
// handling, equivalence between the structure-only and payload modes, and
// the recovered-source report contract used by in-order release.

#include <algorithm>
#include <limits>
#include <span>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "channel/gilbert.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "sched/tx_models.h"
#include "util/rng.h"

namespace fecsched {
namespace {

LdgmCode make_code(std::uint32_t k, std::uint32_t n, LdgmVariant v,
                   std::uint64_t seed = 99) {
  LdgmParams p;
  p.k = k;
  p.n = n;
  p.variant = v;
  p.seed = seed;
  return LdgmCode(p);
}

std::vector<std::vector<std::uint8_t>> random_symbols(std::uint32_t count,
                                                      std::size_t size,
                                                      Rng& rng) {
  std::vector<std::vector<std::uint8_t>> out(count);
  for (auto& s : out) {
    s.resize(size);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return out;
}

TEST(PeelingDecoder, ConstructionValidated) {
  const auto code = make_code(10, 20, LdgmVariant::kStaircase);
  EXPECT_THROW(PeelingDecoder(code.matrix(), 0), std::invalid_argument);
  EXPECT_THROW(PeelingDecoder(code.matrix(), 20), std::invalid_argument);
  EXPECT_THROW(PeelingDecoder(code.matrix(), 5), std::invalid_argument);
  EXPECT_NO_THROW(PeelingDecoder(code.matrix(), 10));
}

TEST(PeelingDecoder, AllSourcesReceivedCompletes) {
  const auto code = make_code(50, 100, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 50);
  for (PacketId id = 0; id < 50; ++id) {
    EXPECT_FALSE(d.source_complete());
    d.add_packet(id);
  }
  EXPECT_TRUE(d.source_complete());
  EXPECT_EQ(d.known_source_count(), 50u);
}

TEST(PeelingDecoder, DuplicatesReturnZero) {
  const auto code = make_code(50, 100, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 50);
  EXPECT_GE(d.add_packet(7), 1u);
  EXPECT_EQ(d.add_packet(7), 0u);
  EXPECT_EQ(d.known_variable_count(), 1u);
}

TEST(PeelingDecoder, BadIdThrows) {
  const auto code = make_code(10, 20, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 10);
  EXPECT_THROW(d.add_packet(20), std::invalid_argument);
}

TEST(PeelingDecoder, PayloadSizeValidated) {
  const auto code = make_code(10, 20, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 10, 8);
  std::vector<std::uint8_t> wrong(7);
  EXPECT_THROW(d.add_packet(0, wrong), std::invalid_argument);
}

TEST(PeelingDecoder, StructureOnlySymbolAccessThrows) {
  const auto code = make_code(10, 20, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 10);
  d.add_packet(0);
  EXPECT_THROW((void)d.symbol(0), std::logic_error);
  EXPECT_THROW((void)d.row_accumulator(0), std::logic_error);
}

TEST(PeelingDecoder, CascadeFromParity) {
  // Staircase, all parity + one source: with balanced source row-degree,
  // one received source triggers a cascade (see Tx_model_3 analysis,
  // Sec. 4.5: LDGM-* "need exactly one source packet").
  const auto code = make_code(200, 500, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 200);
  for (PacketId id = 200; id < 500; ++id) d.add_packet(id);
  EXPECT_FALSE(d.source_complete());
  // Feed random sources until complete; typically very few are needed.
  Rng rng(3);
  std::uint32_t fed = 0;
  while (!d.source_complete()) {
    d.add_packet(static_cast<PacketId>(rng.below(200)));
    ++fed;
    ASSERT_LE(fed, 200u);
  }
  EXPECT_LE(fed, 10u);  // cascades should resolve almost immediately
}

TEST(PeelingDecoder, ResetRestoresFreshState) {
  const auto code = make_code(30, 60, LdgmVariant::kTriangle);
  PeelingDecoder d(code.matrix(), 30);
  for (PacketId id = 0; id < 30; ++id) d.add_packet(id);
  EXPECT_TRUE(d.source_complete());
  d.reset();
  EXPECT_FALSE(d.source_complete());
  EXPECT_EQ(d.known_variable_count(), 0u);
  for (PacketId id = 0; id < 30; ++id) d.add_packet(id);
  EXPECT_TRUE(d.source_complete());
}

struct PeelCase {
  LdgmVariant variant;
  std::uint32_t k;
  double ratio;
};

class PeelingRoundTrip : public ::testing::TestWithParam<PeelCase> {};

// Encode -> lose random packets -> decode from the survivors in random
// order -> recovered payloads must equal the originals, for every variant.
TEST_P(PeelingRoundTrip, PayloadRecoveryUnderRandomLoss) {
  const auto [variant, k, ratio] = GetParam();
  const auto n = static_cast<std::uint32_t>(k * ratio);
  const auto code = make_code(k, n, variant);
  Rng rng(derive_seed(1000, {static_cast<std::uint64_t>(variant), k}));
  const auto src = random_symbols(k, 16, rng);
  const auto parity = code.encode(src);

  for (int round = 0; round < 5; ++round) {
    PeelingDecoder d(code.matrix(), k, 16);
    // Receive a random permutation; stop as soon as decoding completes.
    std::vector<PacketId> order(n);
    for (PacketId id = 0; id < n; ++id) order[id] = id;
    shuffle(order, rng);
    std::uint32_t consumed = 0;
    for (const PacketId id : order) {
      const auto& payload = id < k ? src[id] : parity[id - k];
      d.add_packet(id, payload);
      ++consumed;
      if (d.source_complete()) break;
    }
    ASSERT_TRUE(d.source_complete()) << "round " << round;
    // LDGM needs somewhat more than k but far less than n.
    EXPECT_LT(consumed, n);
    for (PacketId id = 0; id < k; ++id) {
      const auto sym = d.symbol(id);
      ASSERT_TRUE(std::equal(sym.begin(), sym.end(), src[id].begin(),
                             src[id].end()))
          << "source " << id;
    }
  }
}

// Structure-only and payload decoders must complete at exactly the same
// packet in the same arrival order (shared bookkeeping).
TEST_P(PeelingRoundTrip, StructureOnlyMatchesPayloadMode) {
  const auto [variant, k, ratio] = GetParam();
  const auto n = static_cast<std::uint32_t>(k * ratio);
  const auto code = make_code(k, n, variant);
  Rng rng(derive_seed(2000, {static_cast<std::uint64_t>(variant), k}));
  const auto src = random_symbols(k, 4, rng);
  const auto parity = code.encode(src);

  std::vector<PacketId> order(n);
  for (PacketId id = 0; id < n; ++id) order[id] = id;
  shuffle(order, rng);

  PeelingDecoder structural(code.matrix(), k);
  PeelingDecoder payload(code.matrix(), k, 4);
  for (const PacketId id : order) {
    structural.add_packet(id);
    payload.add_packet(id, id < k ? src[id] : parity[id - k]);
    ASSERT_EQ(structural.source_complete(), payload.source_complete());
    ASSERT_EQ(structural.known_variable_count(), payload.known_variable_count());
    if (structural.source_complete()) break;
  }
  EXPECT_TRUE(structural.source_complete());
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndSizes, PeelingRoundTrip,
    ::testing::Values(PeelCase{LdgmVariant::kStaircase, 100, 2.5},
                      PeelCase{LdgmVariant::kStaircase, 500, 1.5},
                      PeelCase{LdgmVariant::kTriangle, 100, 2.5},
                      PeelCase{LdgmVariant::kTriangle, 500, 1.5},
                      PeelCase{LdgmVariant::kIdentity, 100, 2.5},
                      PeelCase{LdgmVariant::kIdentity, 500, 1.5},
                      PeelCase{LdgmVariant::kStaircase, 2000, 2.5},
                      PeelCase{LdgmVariant::kTriangle, 2000, 1.5}),
    [](const auto& info) {
      std::string name;
      switch (info.param.variant) {
        case LdgmVariant::kIdentity: name = "Identity"; break;
        case LdgmVariant::kStaircase: name = "Staircase"; break;
        default: name = "Triangle"; break;
      }
      return name + "k" + std::to_string(info.param.k) + "r" +
             std::to_string(static_cast<int>(info.param.ratio * 10));
    });

TEST(PeelingDecoder, ForceKnownCascades) {
  const auto code = make_code(100, 250, LdgmVariant::kStaircase);
  PeelingDecoder d(code.matrix(), 100);
  for (PacketId id = 100; id < 250; ++id) d.add_packet(id);
  const auto before = d.known_variable_count();
  // Injecting one source variable (as the GE fallback would) cascades.
  const auto newly = d.force_known(0);
  EXPECT_GE(newly, 1u);
  EXPECT_GT(d.known_variable_count(), before + newly - 1);
}

TEST(PeelingDecoder, RecoveredParityMatchesEncoder) {
  // Receive all sources: every parity variable becomes known through the
  // cascade and must equal the encoder's output.
  const auto code = make_code(60, 120, LdgmVariant::kTriangle);
  Rng rng(8);
  const auto src = random_symbols(60, 12, rng);
  const auto parity = code.encode(src);
  PeelingDecoder d(code.matrix(), 60, 12);
  for (PacketId id = 0; id < 60; ++id) d.add_packet(id, src[id]);
  EXPECT_TRUE(d.source_complete());
  // With staircase/triangle lower parts, knowing all sources implies all
  // parities become decodable (p_0 from row 0, then cascade down).
  for (PacketId id = 60; id < 120; ++id) {
    ASSERT_TRUE(d.is_known(id)) << "parity " << id;
    const auto sym = d.symbol(id);
    ASSERT_TRUE(std::equal(sym.begin(), sym.end(), parity[id - 60].begin(),
                           parity[id - 60].end()));
  }
}

// --- Recovered-source reports --------------------------------------------

class PeelingReport
    : public ::testing::TestWithParam<std::tuple<LdgmVariant, bool>> {};

// Over random arrival orders with losses and duplicates, every call
// reports exactly the sources its cascade made known: each source once,
// in the call that recovered it, nothing for a duplicate, and the union of
// reports equals the known sources.  A twin decoder fed without a report
// vector must return the same progress counts.
TEST_P(PeelingReport, EachSourceReportedOnceByTheRecoveringCall) {
  const auto [variant, with_payload] = GetParam();
  constexpr std::uint32_t k = 300, n = 600;
  constexpr std::size_t sym = 8;
  constexpr PacketId kSentinel = std::numeric_limits<PacketId>::max();
  const auto code = make_code(k, n, variant);
  Rng rng(derive_seed(3000, {static_cast<std::uint64_t>(variant),
                             static_cast<std::uint64_t>(with_payload)}));
  const auto src = random_symbols(k, sym, rng);
  const auto parity = code.encode(src);
  const auto payload_of = [&](PacketId id) -> std::span<const std::uint8_t> {
    if (!with_payload) return {};
    return id < k ? src[id] : parity[id - k];
  };

  for (int round = 0; round < 6; ++round) {
    std::vector<PacketId> order;
    for (PacketId id = 0; id < n; ++id)
      if (rng.below(100) >= 15) order.push_back(id);  // ~15% lost
    shuffle(order, rng);
    for (int dup = 0; dup < 60; ++dup)
      order.insert(order.begin() + static_cast<std::ptrdiff_t>(
                                       rng.below(order.size() + 1)),
                   order[rng.below(order.size())]);

    PeelingDecoder d(code.matrix(), k, with_payload ? sym : 0);
    PeelingDecoder twin(code.matrix(), k, with_payload ? sym : 0);
    std::vector<char> reported(k, 0);
    std::vector<char> known_before(k, 0);
    for (const PacketId id : order) {
      for (PacketId s = 0; s < k; ++s) known_before[s] = d.is_known(s);
      const bool duplicate = d.is_known(id);
      std::vector<PacketId> report{kSentinel};  // appended to, not cleared
      const std::uint32_t newly = d.add_packet(id, payload_of(id), &report);
      ASSERT_EQ(newly, twin.add_packet(id, payload_of(id)));
      ASSERT_EQ(report.front(), kSentinel);
      report.erase(report.begin());
      if (duplicate) {
        EXPECT_EQ(newly, 0u);
        EXPECT_TRUE(report.empty()) << "duplicate " << id << " reported";
        continue;
      }
      ASSERT_LE(report.size(), newly);
      if (id < k) {
        EXPECT_NE(std::find(report.begin(), report.end(), id), report.end());
      }
      for (const PacketId s : report) {
        ASSERT_LT(s, k);
        ASSERT_FALSE(known_before[s]) << "source " << s << " reported late";
        ASSERT_FALSE(reported[s]) << "source " << s << " reported twice";
        ASSERT_TRUE(d.is_known(s));
        reported[s] = 1;
        if (with_payload) {
          const auto got = d.symbol(s);
          ASSERT_TRUE(std::equal(got.begin(), got.end(), src[s].begin(),
                                 src[s].end()));
        }
      }
      std::size_t made_known = 0;
      for (PacketId s = 0; s < k; ++s)
        made_known += !known_before[s] && d.is_known(s);
      ASSERT_EQ(report.size(), made_known) << "unreported recovery";
    }
    for (PacketId s = 0; s < k; ++s)
      ASSERT_EQ(reported[s] != 0, d.is_known(s)) << "source " << s;
  }
}

// force_known, the Gaussian-elimination fallback's entry point, reports
// the injected source and its cascade exactly like add_packet.
TEST_P(PeelingReport, ForceKnownReportsItsCascade) {
  const auto [variant, with_payload] = GetParam();
  constexpr std::uint32_t k = 100, n = 250;
  constexpr std::size_t sym = 8;
  const auto code = make_code(k, n, variant);
  Rng rng(4);
  const auto src = random_symbols(k, sym, rng);
  const auto parity = code.encode(src);
  const auto payload_of = [&](PacketId id) -> std::span<const std::uint8_t> {
    if (!with_payload) return {};
    return id < k ? src[id] : parity[id - k];
  };
  PeelingDecoder d(code.matrix(), k, with_payload ? sym : 0);
  for (PacketId id = k; id < n; ++id) {
    std::vector<PacketId> report;
    d.add_packet(id, payload_of(id), &report);
    for (const PacketId s : report) ASSERT_LT(s, k);
  }
  const std::uint32_t sources_before = d.known_source_count();
  std::vector<PacketId> report;
  const std::uint32_t newly = d.force_known(0, payload_of(0), &report);
  EXPECT_GE(newly, report.size());
  ASSERT_FALSE(report.empty());
  EXPECT_EQ(report.front(), 0u);
  EXPECT_EQ(report.size(), d.known_source_count() - sources_before);
  std::vector<PacketId> sorted = report;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (const PacketId s : report) EXPECT_TRUE(d.is_known(s));

  std::vector<PacketId> again;
  EXPECT_EQ(d.force_known(0, payload_of(0), &again), 0u);
  EXPECT_TRUE(again.empty());
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndModes, PeelingReport,
    ::testing::Combine(::testing::Values(LdgmVariant::kIdentity,
                                         LdgmVariant::kStaircase,
                                         LdgmVariant::kTriangle),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case LdgmVariant::kIdentity: name = "Identity"; break;
        case LdgmVariant::kStaircase: name = "Staircase"; break;
        default: name = "Triangle"; break;
      }
      return name + (std::get<1>(info.param) ? "Payload" : "Structure");
    });

// The grid trackers' inline structure-only path (add_packet_structural)
// against the checked payload-mode add_packet, call by call: same return
// value, same known-variable and known-source counts, and source_complete()
// flipping at the same packet — over every LDGM variant, every Tx model and
// lossy Gilbert channels.
class PeelingFastPath
    : public ::testing::TestWithParam<std::tuple<LdgmVariant, TxModel>> {};

/// Fresh-state equality: nothing known and every row at its full degree.
void expect_fresh(const PeelingDecoder& d) {
  EXPECT_EQ(d.known_variable_count(), 0u);
  EXPECT_EQ(d.known_source_count(), 0u);
  EXPECT_FALSE(d.source_complete());
  const SparseBinaryMatrix& h = d.matrix();
  for (std::uint32_t r = 0; r < h.rows(); ++r)
    ASSERT_EQ(d.unknowns_in_row(r), h.row_degree(r)) << "row " << r;
  for (PacketId id = 0; id < d.n(); ++id)
    ASSERT_FALSE(d.is_known(id)) << "variable " << id;
}

TEST_P(PeelingFastPath, StructuralPathMatchesPayloadDecoder) {
  const auto [variant, tx] = GetParam();
  constexpr std::uint32_t k = 400;
  constexpr std::size_t kSymbol = 8;
  const auto code_a = make_code(k, 1000, variant, 7);
  const auto code_b = make_code(k, 600, variant, 8);
  const std::vector<std::uint8_t> payload(kSymbol, 0x5a);
  // One structure-only decoder reused across trials and graphs (reset and
  // rebind), against a fresh payload-mode decoder per trial.
  PeelingDecoder fast(code_a.matrix(), k);
  const struct {
    double p, q;
  } channels[] = {{0.02, 0.5}, {0.1, 0.3}, {0.3, 0.7}, {0.05, 0.05}};
  std::uint64_t trial = 0;
  for (const LdgmCode* code : {&code_a, &code_b, &code_a}) {
    if (&fast.matrix() != &code->matrix()) fast.rebind(code->matrix(), k);
    expect_fresh(fast);
    for (const auto& ch : channels) {
      ++trial;
      Rng sched_rng(derive_seed(31, {trial}));
      const std::vector<PacketId> schedule = make_schedule(*code, tx, sched_rng);
      GilbertModel channel(ch.p, ch.q);
      channel.reset(derive_seed(32, {trial}));
      PeelingDecoder reference(code->matrix(), k, kSymbol);
      std::uint32_t fed = 0;
      for (const PacketId id : schedule) {
        if (channel.lost()) continue;
        ++fed;
        const std::uint32_t want = reference.add_packet(id, payload);
        ASSERT_EQ(fast.add_packet_structural(id), want)
            << "trial " << trial << " packet " << fed;
        ASSERT_EQ(fast.known_variable_count(), reference.known_variable_count());
        ASSERT_EQ(fast.known_source_count(), reference.known_source_count());
        ASSERT_EQ(fast.source_complete(), reference.source_complete());
      }
      fast.reset();
      expect_fresh(fast);
    }
  }
  EXPECT_GT(trial, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    VariantsAndTxModels, PeelingFastPath,
    ::testing::Combine(::testing::Values(LdgmVariant::kIdentity,
                                         LdgmVariant::kStaircase,
                                         LdgmVariant::kTriangle),
                       ::testing::Values(TxModel::kTx1SeqSourceSeqParity,
                                         TxModel::kTx2SeqSourceRandParity,
                                         TxModel::kTx3SeqParityRandSource,
                                         TxModel::kTx4AllRandom,
                                         TxModel::kTx5Interleaved,
                                         TxModel::kTx6FewSourceRandParity)),
    [](const auto& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case LdgmVariant::kIdentity: name = "Identity"; break;
        case LdgmVariant::kStaircase: name = "Staircase"; break;
        default: name = "Triangle"; break;
      }
      return name + "Tx" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

}  // namespace
}  // namespace fecsched
