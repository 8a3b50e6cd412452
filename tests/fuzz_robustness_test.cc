// Robustness / fuzz-style property tests: hostile or random inputs must
// produce clean rejections (exceptions or false returns), never crashes,
// corrupted state, or silently wrong decodes.

#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "channel/gilbert.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "fec/rse.h"
#include "fec/symbol_arena.h"
#include "flute/fdt.h"
#include "flute/lct_header.h"
#include "flute/session.h"
#include "net/wire.h"
#include "stream/sliding_window.h"
#include "stream/stream_trial.h"
#include "util/rng.h"

namespace fecsched {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t size, Rng& rng) {
  std::vector<std::uint8_t> out(size);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.below(256));
  return out;
}

TEST(FuzzFdt, RandomBytesNeverCrash) {
  Rng rng(1);
  for (int round = 0; round < 2000; ++round) {
    const auto bytes = random_bytes(rng.below(200), rng);
    try {
      const auto fdt = flute::Fdt::parse(bytes);
      // Parsing random bytes virtually never succeeds; if it does the
      // result must at least be self-consistent.
      for (const auto& e : fdt.entries()) EXPECT_NE(e.toi, 0u);
    } catch (const std::invalid_argument&) {
      // expected for garbage
    }
  }
}

TEST(FuzzFdt, TruncatedSerializationsRejectedCleanly) {
  flute::Fdt fdt;
  flute::FdtEntry e;
  e.toi = 1;
  e.name = "file";
  e.info.code = CodeKind::kLdgmStaircase;
  e.info.k = 10;
  e.info.n = 20;
  e.info.payload_size = 64;
  e.info.object_size = 640;
  fdt.add(e);
  const auto full = fdt.serialize();
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::span<const std::uint8_t> prefix(full.data(), len);
    try {
      (void)flute::Fdt::parse(prefix);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(FuzzLctHeader, RandomBytesParseOrReject) {
  Rng rng(2);
  int accepted = 0;
  for (int round = 0; round < 50000; ++round) {
    const auto bytes = random_bytes(flute::kHeaderSize, rng);
    if (flute::parse_header(bytes)) ++accepted;
  }
  // A random 20-byte string passes the CRC with probability 2^-32; any
  // acceptance here would indicate a broken checksum.
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzFluteReceiver, RandomDatagramsNeverCorruptASession) {
  // Interleave a genuine transmission with random garbage datagrams of
  // arbitrary length; the session must still complete and decode exactly.
  Rng rng(3);
  const auto content = random_bytes(20000, rng);
  flute::FluteSender sender;
  SenderConfig fec;
  fec.payload_size = 512;
  fec.code = CodeKind::kLdgmStaircase;
  sender.add_file("f", content, fec);
  sender.seal();

  flute::FluteReceiver receiver;
  bool complete = false;
  for (std::size_t seq = 0; seq < sender.datagram_count() && !complete;
       ++seq) {
    for (int g = 0; g < 3; ++g) {
      const auto garbage = random_bytes(rng.below(100), rng);
      EXPECT_EQ(receiver.on_datagram(garbage),
                flute::DatagramStatus::kRejected);
    }
    complete = receiver.on_datagram(sender.datagram(seq)) ==
               flute::DatagramStatus::kSessionComplete;
  }
  ASSERT_TRUE(complete);
  EXPECT_EQ(receiver.file("f"), content);
}

TEST(FuzzFluteReceiver, PayloadBitFlipsWithValidHeaderFeedGarbage) {
  // A flipped *payload* bit passes the header CRC (only the header is
  // protected, like UDP-lite): the decoder will absorb wrong bytes.  The
  // point of this test is that nothing crashes and the session still
  // terminates; end-to-end integrity is the application's checksum
  // business (FLUTE uses MD5 in the FDT).  We flip bits only in packets
  // of a *different* session object so the decoded object stays intact.
  Rng rng(4);
  const auto content = random_bytes(10000, rng);
  flute::FluteSender sender;
  SenderConfig fec;
  fec.payload_size = 256;
  sender.add_file("good", content, fec);
  sender.seal();
  flute::FluteReceiver receiver;
  for (std::size_t seq = 0; seq < sender.datagram_count(); ++seq) {
    auto dgram = sender.datagram(seq);
    receiver.on_datagram(dgram);
  }
  EXPECT_TRUE(receiver.session_complete());
}

TEST(FuzzPeeling, RandomSparseMatricesNeverCrash) {
  Rng rng(5);
  for (int round = 0; round < 200; ++round) {
    const std::uint32_t k = 2 + static_cast<std::uint32_t>(rng.below(40));
    const std::uint32_t rows = 1 + static_cast<std::uint32_t>(rng.below(40));
    const std::uint32_t n = k + rows;
    std::vector<SparseBinaryMatrix::Entry> entries;
    const std::size_t count = rng.below(4 * (k + rows) + 1);
    for (std::size_t i = 0; i < count; ++i)
      entries.push_back({static_cast<std::uint32_t>(rng.below(rows)),
                         static_cast<std::uint32_t>(rng.below(n))});
    const SparseBinaryMatrix h(rows, n, std::move(entries));
    PeelingDecoder d(h, k);
    // Feed ids in random order with duplicates.
    for (int feeds = 0; feeds < 200; ++feeds)
      d.add_packet(static_cast<PacketId>(rng.below(n)));
    // Invariants: counts bounded and monotone facts hold.
    EXPECT_LE(d.known_source_count(), k);
    EXPECT_LE(d.known_variable_count(), n);
    // Feeding everything must make all sources known regardless of H.
    for (PacketId id = 0; id < n; ++id) d.add_packet(id);
    EXPECT_TRUE(d.source_complete());
  }
}

TEST(FuzzPeeling, CascadedRecoveriesAreAlwaysCorrect) {
  // Whatever random prefix decodes, the recovered payloads must equal the
  // encoder's originals — decode correctness under 200 random receptions.
  Rng rng(6);
  LdgmParams params;
  params.k = 60;
  params.n = 150;
  params.variant = LdgmVariant::kTriangle;
  params.seed = 9;
  const LdgmCode code(params);
  std::vector<std::vector<std::uint8_t>> src(params.k);
  for (auto& sym : src) sym = random_bytes(8, rng);
  const auto parity = code.encode(src);

  for (int round = 0; round < 200; ++round) {
    PeelingDecoder d(code.matrix(), params.k, 8);
    std::vector<PacketId> order(params.n);
    for (PacketId id = 0; id < params.n; ++id) order[id] = id;
    shuffle(order, rng);
    const std::size_t prefix = 1 + rng.below(params.n);
    for (std::size_t i = 0; i < prefix; ++i)
      d.add_packet(order[i],
                   order[i] < params.k ? src[order[i]] : parity[order[i] - params.k]);
    for (PacketId id = 0; id < params.n; ++id) {
      if (!d.is_known(id)) continue;
      const auto sym = d.symbol(id);
      const auto& expected = id < params.k ? src[id] : parity[id - params.k];
      ASSERT_TRUE(std::equal(sym.begin(), sym.end(), expected.begin(),
                             expected.end()))
          << "round " << round << " id " << id;
    }
  }
}

TEST(FuzzRse, DecodeRejectsRatherThanMisdecodes) {
  // Feeding fewer than k packets or malformed sets must throw, never
  // return wrong data.
  Rng rng(7);
  const RseCodec codec(10, 25);
  std::vector<std::vector<std::uint8_t>> src(10);
  for (auto& sym : src) sym = random_bytes(16, rng);
  const auto parity = codec.encode(src);
  for (int round = 0; round < 500; ++round) {
    const std::uint32_t take = static_cast<std::uint32_t>(rng.below(10));
    const auto subset = sample_without_replacement(25, take, rng);
    std::vector<RseCodec::Received> rx;
    for (auto idx : subset)
      rx.push_back({idx, idx < 10 ? src[idx] : parity[idx - 10]});
    EXPECT_THROW((void)codec.decode(rx), std::invalid_argument);
  }
}

TEST(FuzzRseWorkspace, ReusedWorkspaceDecodesRandomGeometries) {
  // One RseWorkspace + arenas reused across 150 random (k, n, symbol_size,
  // erasure pattern) rounds: every decode must reproduce the sources
  // exactly — no state may leak between rounds.
  Rng rng(20);
  RseWorkspace ws;
  SymbolArena src_arena, parity_arena, out_arena;
  for (int round = 0; round < 150; ++round) {
    const std::uint32_t k = 1 + static_cast<std::uint32_t>(rng.below(40));
    const std::uint32_t n =
        k + 1 + static_cast<std::uint32_t>(rng.below(60));
    if (n > RseCodec::kMaxN) continue;
    const std::size_t sym = 1 + rng.below(200);
    const RseCodec codec(k, n);
    src_arena.configure(k, sym);
    parity_arena.configure(n - k, sym);
    out_arena.configure(k, sym);
    std::vector<const std::uint8_t*> src_rows(k);
    std::vector<std::uint8_t*> parity_rows(n - k), out_rows(k);
    for (std::uint32_t j = 0; j < k; ++j) {
      for (std::size_t b = 0; b < sym; ++b)
        src_arena.row(j)[b] = static_cast<std::uint8_t>(rng.below(256));
      src_rows[j] = src_arena.row(j);
      out_rows[j] = out_arena.row(j);
    }
    for (std::uint32_t i = 0; i < n - k; ++i)
      parity_rows[i] = parity_arena.row(i);
    codec.encode_into(src_rows.data(), sym, parity_rows.data());

    // Receive exactly k distinct random packets (always decodable: MDS).
    const auto picked = sample_without_replacement(n, k, rng);
    std::vector<ReceivedSymbol> views;
    for (const std::uint32_t idx : picked)
      views.push_back({idx, idx < k ? src_arena.row(idx)
                                    : parity_arena.row(idx - k)});
    codec.decode_into(views, sym, out_rows.data(), ws);
    for (std::uint32_t j = 0; j < k; ++j)
      ASSERT_EQ(std::memcmp(out_arena.row(j), src_arena.row(j), sym), 0)
          << "round " << round << " k=" << k << " n=" << n << " src " << j;
  }
}

TEST(FuzzRseWorkspace, MalformedSetsThrowAndLeaveWorkspaceUsable) {
  Rng rng(21);
  const RseCodec codec(10, 25);
  const std::size_t sym = 32;
  SymbolArena arena, out;
  arena.configure(25, sym);
  out.configure(10, sym);
  std::vector<std::uint8_t*> out_rows(10);
  for (std::uint32_t j = 0; j < 10; ++j) out_rows[j] = out.row(j);
  RseWorkspace ws;
  for (int round = 0; round < 300; ++round) {
    const std::uint32_t take = static_cast<std::uint32_t>(rng.below(10));
    const auto subset = sample_without_replacement(25, take, rng);
    std::vector<ReceivedSymbol> views;
    for (const std::uint32_t idx : subset) views.push_back({idx, arena.row(idx)});
    EXPECT_THROW(codec.decode_into(views, sym, out_rows.data(), ws),
                 std::invalid_argument);
  }
  // The workspace must still serve a well-formed decode afterwards.
  std::vector<ReceivedSymbol> good;
  for (std::uint32_t idx = 0; idx < 10; ++idx)
    good.push_back({idx, arena.row(idx)});
  EXPECT_NO_THROW(codec.decode_into(good, sym, out_rows.data(), ws));
}

TEST(FuzzTrialWorkspace, RandomStreamTrialsMatchFreshRuns) {
  // Random configurations hammered through one reused workspace; every
  // result must equal the workspace-free run.
  Rng rng(22);
  StreamTrialWorkspace ws;
  const StreamScheme schemes[] = {StreamScheme::kSlidingWindow,
                                  StreamScheme::kReplication,
                                  StreamScheme::kBlockRse, StreamScheme::kLdgm};
  const StreamScheduling scheds[] = {StreamScheduling::kSequential,
                                     StreamScheduling::kInterleaved};
  for (int round = 0; round < 25; ++round) {
    StreamTrialConfig cfg;
    cfg.scheme = schemes[rng.below(4)];
    cfg.scheduling = scheds[rng.below(2)];
    cfg.source_count = 100 + static_cast<std::uint32_t>(rng.below(300));
    cfg.overhead = 0.2 + 0.1 * static_cast<double>(rng.below(3));
    cfg.window = 16 + static_cast<std::uint32_t>(rng.below(32));
    cfg.block_k = 16 + static_cast<std::uint32_t>(rng.below(32));
    const double p = 0.02 + 0.03 * rng.uniform01();
    const double q = 0.3 + 0.4 * rng.uniform01();
    const std::uint64_t seed = rng();
    GilbertModel c1(p, q), c2(p, q);
    const StreamTrialResult fresh = run_stream_trial(cfg, c1, seed);
    const StreamTrialResult reused = run_stream_trial(cfg, c2, seed, ws);
    ASSERT_EQ(fresh.delays, reused.delays) << "round " << round;
    ASSERT_EQ(fresh.packets_sent, reused.packets_sent);
    ASSERT_EQ(fresh.packets_received, reused.packets_received);
    ASSERT_EQ(fresh.residual.lost, reused.residual.lost);
    ASSERT_EQ(fresh.all_delivered, reused.all_delivered);
  }
}

TEST(FuzzTrialWorkspace, SlidingDecoderResetMatchesFreshDecoder) {
  Rng rng(23);
  SlidingWindowConfig base;
  std::optional<SlidingWindowDecoder> reused;
  for (int round = 0; round < 40; ++round) {
    SlidingWindowConfig cfg = base;
    cfg.window = 4 + static_cast<std::uint32_t>(rng.below(16));
    cfg.repair_interval = 1 + static_cast<std::uint32_t>(rng.below(5));
    cfg.seed = rng();
    SlidingWindowDecoder fresh(cfg);
    if (reused)
      reused->reset(cfg);
    else
      reused.emplace(cfg);
    SlidingWindowEncoder encoder(cfg);
    // Every settled seq so far, per decoder: equal after each call means
    // each call settled the same seqs.
    std::vector<std::uint64_t> got_fresh, got_reused;
    for (int step = 0; step < 200; ++step) {
      const std::uint64_t s = encoder.push_source();
      const bool lost = rng.below(5) == 0;
      if (!lost) {
        fresh.on_source(s, {}, got_fresh);
        reused->on_source(s, {}, got_reused);
        ASSERT_EQ(got_fresh, got_reused);
      }
      if ((s + 1) % cfg.repair_interval == 0) {
        const RepairPacket r = encoder.make_repair();
        if (rng.below(4) != 0) {
          fresh.on_repair(r, got_fresh);
          reused->on_repair(r, got_reused);
          ASSERT_EQ(got_fresh, got_reused);
        }
      }
      if (s + 1 > cfg.window) {
        fresh.give_up_before(s + 1 - cfg.window, got_fresh);
        reused->give_up_before(s + 1 - cfg.window, got_reused);
        ASSERT_EQ(got_fresh, got_reused);
      }
    }
    ASSERT_EQ(fresh.known_count(), reused->known_count());
    ASSERT_EQ(fresh.lost_count(), reused->lost_count());
    ASSERT_EQ(fresh.active_equations(), reused->active_equations());
  }
}

TEST(FuzzNetWire, RandomDatagramsNeverParse) {
  // The wire preamble (magic + version + type) plus the header CRC make a
  // random byte string unparseable with overwhelming probability; any
  // acceptance here means a check is missing.  Every rejection must carry
  // a named reason.
  Rng rng(30);
  net::ParsedFrame parsed;
  int accepted = 0;
  for (int round = 0; round < 20000; ++round) {
    const auto bytes = random_bytes(rng.below(net::kDataOverhead * 2), rng);
    const net::WireError e = net::parse(bytes, parsed);
    if (e == net::WireError::kOk) ++accepted;
    EXPECT_NE(net::to_string(e), "?");
  }
  EXPECT_EQ(accepted, 0);
}

TEST(FuzzNetWire, TruncationsAndBitFlipsOfValidFramesRejectByName) {
  // Take valid packed data frames and damage them: every strict prefix
  // and every single-bit flip must be rejected with a named reason (the
  // two CRCs cover header and payload separately), and an undamaged copy
  // must still round-trip byte-identically afterwards.
  Rng rng(31);
  net::ParsedFrame parsed;
  for (int round = 0; round < 20; ++round) {
    net::DataFrame frame;
    frame.scheme = static_cast<std::uint8_t>(rng.below(4));
    frame.repair = rng.below(2) == 1;
    frame.object_id = static_cast<std::uint32_t>(rng());
    frame.symbol_id = rng();
    frame.coding_seed = rng();
    frame.span_first = rng();
    frame.span_last = frame.span_first + rng.below(64);
    frame.payload = random_bytes(1 + rng.below(128), rng);
    const auto wire = net::pack(frame);

    for (std::size_t len = 0; len < wire.size(); ++len) {
      const std::span<const std::uint8_t> prefix(wire.data(), len);
      EXPECT_NE(net::parse(prefix, parsed), net::WireError::kOk)
          << "round " << round << " prefix " << len;
    }
    std::vector<std::uint8_t> flipped = wire;
    for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const net::WireError e = net::parse(flipped, parsed);
      ASSERT_NE(e, net::WireError::kOk)
          << "round " << round << " bit " << bit;
      ASSERT_NE(net::to_string(e), "?");
      flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
    ASSERT_EQ(net::parse(wire, parsed), net::WireError::kOk);
    ASSERT_EQ(parsed.type, net::FrameType::kData);
    ASSERT_EQ(parsed.data, frame);
  }
}

TEST(FuzzSession, ReceiverSurvivesAdversarialPacketIds) {
  Rng rng(8);
  const auto content = random_bytes(5000, rng);
  SenderConfig cfg;
  cfg.payload_size = 128;
  cfg.code = CodeKind::kLdgmTriangle;
  const SenderSession sender(content, cfg);
  ReceiverSession receiver(sender.info());
  std::vector<std::uint8_t> payload(128, 0xAB);
  // Out-of-range ids must throw, in-range ids with arbitrary payloads are
  // absorbed (garbage in, garbage out — but no crash, no state corruption).
  EXPECT_THROW(receiver.on_packet(sender.info().n + 5, payload),
               std::invalid_argument);
  for (int i = 0; i < 50; ++i)
    receiver.on_packet(static_cast<PacketId>(rng.below(sender.info().n)),
                       payload);
  SUCCEED();
}

}  // namespace
}  // namespace fecsched
