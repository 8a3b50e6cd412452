// Reed-Solomon erasure codec: the MDS property ("any k of n decode") is
// exercised as a parameterized property sweep over (k, n) geometries and
// random erasure patterns, alongside structural and error-handling tests.
// The object-level encoder/decoder build one codec per block geometry;
// their bytes are pinned against a fresh RseCodec per block.

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "fec/rse.h"
#include "fec/rse_object.h"
#include "gf/gf256.h"
#include "util/rng.h"

namespace fecsched {
namespace {

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

TEST(RseCodec, RejectsBadGeometry) {
  EXPECT_THROW(RseCodec(0, 10), std::invalid_argument);
  EXPECT_THROW(RseCodec(11, 10), std::invalid_argument);
  EXPECT_THROW(RseCodec(10, 256), std::invalid_argument);
  EXPECT_NO_THROW(RseCodec(255, 255));
  EXPECT_NO_THROW(RseCodec(1, 1));
}

TEST(RseCodec, SystematicIdentityRows) {
  const RseCodec codec(5, 12);
  for (std::uint32_t i = 0; i < 5; ++i)
    for (std::uint32_t j = 0; j < 5; ++j)
      EXPECT_EQ(codec.coefficient(i, j), i == j ? 1 : 0);
}

TEST(RseCodec, ParityRowsNonTrivial) {
  const RseCodec codec(5, 12);
  for (std::uint32_t i = 5; i < 12; ++i) {
    int nonzero = 0;
    for (std::uint32_t j = 0; j < 5; ++j)
      nonzero += codec.coefficient(i, j) != 0 ? 1 : 0;
    // A zero coefficient would mean some source symbol never influences
    // this parity packet, contradicting MDS for some erasure pattern.
    EXPECT_EQ(nonzero, 5);
  }
}

TEST(RseCodec, CoefficientRangeChecked) {
  const RseCodec codec(5, 12);
  EXPECT_THROW(codec.coefficient(12, 0), std::invalid_argument);
  EXPECT_THROW(codec.coefficient(0, 5), std::invalid_argument);
}

TEST(RseCodec, EncodeMatchesCoefficients) {
  Rng rng(1);
  const RseCodec codec(4, 9);
  const auto src = random_symbols(4, 16, rng);
  const auto parity = codec.encode(src);
  ASSERT_EQ(parity.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> expected(16, 0);
    for (std::uint32_t j = 0; j < 4; ++j)
      gf::addmul(expected, src[j], codec.coefficient(4 + i, j));
    EXPECT_EQ(parity[i], expected);
  }
}

TEST(RseCodec, EncodeValidatesInput) {
  Rng rng(2);
  const RseCodec codec(4, 8);
  auto src = random_symbols(3, 8, rng);
  EXPECT_THROW((void)codec.encode(src), std::invalid_argument);
  src = random_symbols(4, 8, rng);
  src[2].resize(7);
  EXPECT_THROW((void)codec.encode(src), std::invalid_argument);
}

TEST(RseCodec, DecodeFromSourceOnlyIsVerbatim) {
  Rng rng(3);
  const RseCodec codec(6, 12);
  const auto src = random_symbols(6, 32, rng);
  std::vector<RseCodec::Received> rx;
  for (std::uint32_t i = 0; i < 6; ++i) rx.push_back({i, src[i]});
  EXPECT_EQ(codec.decode(rx), src);
}

TEST(RseCodec, DecodeFromParityOnly) {
  Rng rng(4);
  const RseCodec codec(5, 11);
  const auto src = random_symbols(5, 24, rng);
  const auto parity = codec.encode(src);
  std::vector<RseCodec::Received> rx;
  for (std::uint32_t i = 0; i < 5; ++i) rx.push_back({5 + i, parity[i]});
  EXPECT_EQ(codec.decode(rx), src);
}

TEST(RseCodec, DecodeErrors) {
  Rng rng(5);
  const RseCodec codec(4, 8);
  const auto src = random_symbols(4, 8, rng);
  const auto parity = codec.encode(src);
  std::vector<RseCodec::Received> rx = {
      {0, src[0]}, {1, src[1]}, {2, src[2]}};
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);  // < k
  rx.push_back({2, src[2]});
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);  // duplicate
  rx.back() = {9, parity[1]};
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);  // out of range
  rx.back() = {4, {1, 2, 3}};
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);  // size mismatch
}

TEST(RseCodec, ExtraPacketsBeyondKAreAccepted) {
  Rng rng(6);
  const RseCodec codec(3, 9);
  const auto src = random_symbols(3, 10, rng);
  const auto parity = codec.encode(src);
  std::vector<RseCodec::Received> rx = {
      {0, src[0]}, {4, parity[1]}, {7, parity[4]}, {1, src[1]}, {8, parity[5]}};
  EXPECT_EQ(codec.decode(rx), src);
}

TEST(RseCodec, ZeroLengthSymbols) {
  const RseCodec codec(3, 6);
  const std::vector<std::vector<std::uint8_t>> src(3);
  const auto parity = codec.encode(src);
  EXPECT_EQ(parity.size(), 3u);
  for (const auto& p : parity) EXPECT_TRUE(p.empty());
}

// ------------------------------------------------------------------ MDS

struct MdsCase {
  std::uint32_t k;
  std::uint32_t n;
};

class RseMdsTest : public ::testing::TestWithParam<MdsCase> {};

// Any k of the n packets suffice — sweep many random subsets.
TEST_P(RseMdsTest, AnyKPacketsDecode) {
  const auto [k, n] = GetParam();
  Rng rng(derive_seed(99, {k, n}));
  const RseCodec codec(k, n);
  const auto src = random_symbols(k, 12, rng);
  const auto parity = codec.encode(src);

  for (int round = 0; round < 30; ++round) {
    const auto subset = sample_without_replacement(n, k, rng);
    std::vector<RseCodec::Received> rx;
    rx.reserve(k);
    for (const auto idx : subset)
      rx.push_back({idx, idx < k ? src[idx] : parity[idx - k]});
    ASSERT_EQ(codec.decode(rx), src)
        << "k=" << k << " n=" << n << " round=" << round;
  }
}

// k-1 packets must never suffice: the decoder refuses (information-
// theoretic bound, not a codec weakness).
TEST_P(RseMdsTest, KMinus1Refused) {
  const auto [k, n] = GetParam();
  if (k < 2) GTEST_SKIP();
  Rng rng(derive_seed(101, {k, n}));
  const RseCodec codec(k, n);
  const auto src = random_symbols(k, 4, rng);
  const auto parity = codec.encode(src);
  const auto subset = sample_without_replacement(n, k - 1, rng);
  std::vector<RseCodec::Received> rx;
  for (const auto idx : subset)
    rx.push_back({idx, idx < k ? src[idx] : parity[idx - k]});
  EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, RseMdsTest,
    ::testing::Values(MdsCase{1, 2}, MdsCase{1, 10}, MdsCase{2, 3},
                      MdsCase{4, 6}, MdsCase{8, 16}, MdsCase{16, 24},
                      MdsCase{32, 48}, MdsCase{64, 160}, MdsCase{102, 255},
                      MdsCase{170, 255}, MdsCase{128, 255}, MdsCase{254, 255},
                      MdsCase{255, 255}),
    [](const auto& info) {
      return "k" + std::to_string(info.param.k) + "n" +
             std::to_string(info.param.n);
    });

// -------------------------------------------------------- matrix inverse

TEST(GfMatrixInvert, IdentityIsFixedPoint) {
  std::vector<std::uint8_t> m = {1, 0, 0, 0, 1, 0, 0, 0, 1};
  gf256_invert_matrix(m, 3);
  EXPECT_EQ(m, (std::vector<std::uint8_t>{1, 0, 0, 0, 1, 0, 0, 0, 1}));
}

TEST(GfMatrixInvert, RandomRoundTrip) {
  Rng rng(7);
  for (std::uint32_t size : {1u, 2u, 3u, 5u, 8u, 16u, 33u}) {
    // Vandermonde over distinct points is guaranteed invertible.
    std::vector<std::uint8_t> m(static_cast<std::size_t>(size) * size);
    std::vector<std::uint8_t> points =
        [&] {
          auto idx = sample_without_replacement(255, size, rng);
          std::vector<std::uint8_t> pts(size);
          for (std::uint32_t i = 0; i < size; ++i)
            pts[i] = gf::alpha_pow(idx[i]);
          return pts;
        }();
    for (std::uint32_t i = 0; i < size; ++i)
      for (std::uint32_t j = 0; j < size; ++j)
        m[static_cast<std::size_t>(i) * size + j] = gf::pow(points[i], j);
    auto inv = m;
    gf256_invert_matrix(inv, size);
    // m * inv == I.
    for (std::uint32_t i = 0; i < size; ++i) {
      for (std::uint32_t j = 0; j < size; ++j) {
        std::uint8_t acc = 0;
        for (std::uint32_t t = 0; t < size; ++t)
          acc = gf::add(acc, gf::mul(m[static_cast<std::size_t>(i) * size + t],
                                     inv[static_cast<std::size_t>(t) * size + j]));
        ASSERT_EQ(acc, i == j ? 1 : 0) << "size=" << size;
      }
    }
  }
}

TEST(GfMatrixInvert, SingularThrows) {
  std::vector<std::uint8_t> m = {1, 2, 2, 4};  // row2 = 2*row1
  EXPECT_THROW(gf256_invert_matrix(m, 2), std::invalid_argument);
  std::vector<std::uint8_t> zero(9, 0);
  EXPECT_THROW(gf256_invert_matrix(zero, 3), std::invalid_argument);
}

TEST(GfMatrixInvert, DimensionMismatchThrows) {
  std::vector<std::uint8_t> m(5);
  EXPECT_THROW(gf256_invert_matrix(m, 2), std::invalid_argument);
}

// ------------------------------------------------ object-level codecs

// The net engine's block-rse geometry: S = 2000, block_k = 64, overhead
// 0.25 — 32 blocks in two (k, n) geometries.
std::shared_ptr<const RsePlan> multi_geometry_plan() {
  const double ratio = 1.25;
  const auto cap = static_cast<std::uint32_t>(std::floor(64 * ratio));
  return std::make_shared<const RsePlan>(2000, ratio, cap);
}

/// Parity of every block, each encoded by its own freshly built codec.
std::vector<std::vector<std::uint8_t>> fresh_codec_parity(
    const RsePlan& plan, const std::vector<std::vector<std::uint8_t>>& src) {
  std::vector<std::vector<std::uint8_t>> parity;
  for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
    const BlockInfo& blk = plan.block(b);
    const std::vector<std::vector<std::uint8_t>> block_src(
        src.begin() + blk.source_offset,
        src.begin() + blk.source_offset + blk.k);
    for (auto& p : RseCodec(blk.k, blk.n).encode(block_src))
      parity.push_back(std::move(p));
  }
  return parity;
}

TEST(RseBlockCodecs, OneCodecPerGeometryMatchesFreshCodecPerBlock) {
  const auto plan = multi_geometry_plan();
  ASSERT_EQ(plan->block_count(), 32u);
  const RseBlockCodecs codecs(*plan);
  EXPECT_EQ(codecs.geometries(), 2u);
  Rng rng(41);
  const auto src = random_symbols(plan->k(), 24, rng);
  const auto expected = fresh_codec_parity(*plan, src);
  for (std::uint32_t b = 0; b < plan->block_count(); ++b) {
    const BlockInfo& blk = plan->block(b);
    EXPECT_EQ(codecs[b].k(), blk.k);
    EXPECT_EQ(codecs[b].n(), blk.n);
    const std::vector<std::vector<std::uint8_t>> block_src(
        src.begin() + blk.source_offset,
        src.begin() + blk.source_offset + blk.k);
    const auto parity = codecs[b].encode(block_src);
    for (std::uint32_t i = 0; i < blk.n - blk.k; ++i)
      EXPECT_EQ(parity[i], expected[blk.parity_offset - plan->k() + i])
          << "block " << b << " parity " << i;
  }
}

TEST(RseObjectEncoder, ParityMatchesFreshCodecPerBlock) {
  const auto plan = multi_geometry_plan();
  Rng rng(42);
  const auto src = random_symbols(plan->k(), 24, rng);
  const auto expected = fresh_codec_parity(*plan, src);
  const RseObjectEncoder encoder(plan, src);
  for (PacketId id = 0; id < plan->k(); ++id)
    ASSERT_EQ(encoder.payload(id), src[id]) << id;
  for (PacketId id = plan->k(); id < plan->n(); ++id)
    ASSERT_EQ(encoder.payload(id), expected[id - plan->k()]) << id;
}

TEST(RseObjectEncoder, TakesSourcesByMove) {
  const auto plan = multi_geometry_plan();
  Rng rng(43);
  auto src = random_symbols(plan->k(), 8, rng);
  const std::uint8_t* first = src[0].data();
  const RseObjectEncoder encoder(plan, std::move(src));
  EXPECT_EQ(encoder.payload(0).data(), first);  // no second copy
}

TEST(RseObjectDecoder, LossyDecodeMatchesSourcesAndReportsKnownIds) {
  const auto plan = multi_geometry_plan();
  Rng rng(44);
  const auto src = random_symbols(plan->k(), 24, rng);
  const auto parity = fresh_codec_parity(*plan, src);
  const auto payload = [&](PacketId id) -> const std::vector<std::uint8_t>& {
    return id < plan->k() ? src[id] : parity[id - plan->k()];
  };
  RseObjectDecoder decoder(plan, 24);
  std::vector<PacketId> known;
  for (std::uint32_t b = 0; b < plan->block_count(); ++b) {
    const BlockInfo& blk = plan->block(b);
    // Erase the first min(b % 12, n - k) sources of the block, then feed
    // the remaining sources, then parity until the block decodes.
    const std::uint32_t erased = std::min(b % 12, blk.n - blk.k);
    for (std::uint32_t i = erased; i < blk.k; ++i) {
      known.clear();
      decoder.on_packet(blk.source_offset + i, payload(blk.source_offset + i),
                        &known);
      EXPECT_EQ(known, std::vector<PacketId>{blk.source_offset + i});
    }
    for (std::uint32_t i = 0; i < erased; ++i) {
      EXPECT_FALSE(decoder.block_decoded(b));
      known.clear();
      decoder.on_packet(blk.parity_offset + i, payload(blk.parity_offset + i),
                        &known);
    }
    EXPECT_TRUE(decoder.block_decoded(b));
    // The completing packet reports exactly the erased sources, in order.
    std::vector<PacketId> expected;
    for (std::uint32_t i = 0; i < erased; ++i)
      expected.push_back(blk.source_offset + i);
    if (erased > 0) {
      EXPECT_EQ(known, expected) << "block " << b;
    }
  }
  EXPECT_TRUE(decoder.complete());
  for (PacketId id = 0; id < plan->k(); ++id) {
    const auto sym = decoder.source_symbol(id);
    ASSERT_TRUE(std::equal(sym.begin(), sym.end(), src[id].begin(),
                           src[id].end()))
        << id;
  }
}

TEST(RseObjectDecoder, ReleaseDropsBlockAndIgnoresLaterPackets) {
  const auto plan = multi_geometry_plan();
  Rng rng(45);
  const auto src = random_symbols(plan->k(), 8, rng);
  RseObjectDecoder decoder(plan, 8);
  EXPECT_THROW((void)decoder.source_symbol(0), std::logic_error);
  decoder.on_packet(0, src[0]);
  EXPECT_EQ(decoder.source_symbol(0)[0], src[0][0]);  // held before decode
  decoder.release(0);
  EXPECT_THROW((void)decoder.source_symbol(0), std::logic_error);
  std::vector<PacketId> known;
  for (PacketId id = 1; id < plan->block(0).k; ++id)
    decoder.on_packet(id, src[id], &known);
  EXPECT_TRUE(known.empty());
  EXPECT_FALSE(decoder.block_decoded(0));
  EXPECT_EQ(decoder.packets_used(), 1u);
  EXPECT_THROW(decoder.on_packet(plan->n(), src[0]), std::invalid_argument);
  EXPECT_THROW(decoder.on_packet(plan->k(), {src[0].data(), 7}),
               std::invalid_argument);
}

}  // namespace
}  // namespace fecsched
