// Net subsystem (src/net/): wire-format round trips and strict rejection,
// transport pairs, impairment substream fidelity, sim-vs-wire parity of
// the lockstep trial across every scheme, receiver rejection of frames
// that pass the CRCs but lie outside the stream, the LossReport reverse
// path, and the net.send / net.recv fault points.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "channel/gilbert.h"
#include "net/impairment.h"
#include "net/net_trial.h"
#include "net/receiver.h"
#include "net/sender.h"
#include "net/transport.h"
#include "net/wire.h"
#include "util/crc32.h"
#include "util/faultpoint.h"
#include "util/rng.h"

namespace fecsched::net {
namespace {

DataFrame random_data_frame(Rng& rng) {
  DataFrame f;
  f.scheme = static_cast<std::uint8_t>(rng.below(4));
  f.repair = rng.below(2) == 1;
  f.object_id = static_cast<std::uint32_t>(rng());
  f.symbol_id = rng();
  f.coding_seed = rng();
  f.span_first = rng.below(1 << 20);
  f.span_last = f.span_first + rng.below(1 << 10);
  f.payload.resize(rng.below(kMaxPayload + 1));
  for (auto& b : f.payload) b = static_cast<std::uint8_t>(rng());
  return f;
}

// ------------------------------------------------------------ wire format

TEST(NetWire, DataRoundTripRandomGeometry) {
  Rng rng(0x517eu);
  std::vector<std::uint8_t> buf;
  ParsedFrame parsed;
  for (int round = 0; round < 300; ++round) {
    const DataFrame f = random_data_frame(rng);
    pack(f, buf);
    ASSERT_EQ(buf.size(), kDataOverhead + f.payload.size());
    ASSERT_EQ(parse(buf, parsed), WireError::kOk);
    ASSERT_EQ(parsed.type, FrameType::kData);
    EXPECT_EQ(parsed.data, f);
  }
}

TEST(NetWire, ReportRoundTrip) {
  Rng rng(7);
  std::vector<std::uint8_t> buf;
  ParsedFrame parsed;
  for (int round = 0; round < 100; ++round) {
    ReportFrame f;
    f.object_id = static_cast<std::uint32_t>(rng());
    f.report.ok_to_ok = rng();
    f.report.ok_to_loss = rng();
    f.report.loss_to_ok = rng();
    f.report.loss_to_loss = rng();
    f.report.first_lost = rng.below(2) == 1;
    f.report.has_events = rng.below(2) == 1;
    pack(f, buf);
    ASSERT_EQ(buf.size(), kReportSize);
    ASSERT_EQ(parse(buf, parsed), WireError::kOk);
    ASSERT_EQ(parsed.type, FrameType::kReport);
    EXPECT_EQ(parsed.report.object_id, f.object_id);
    EXPECT_EQ(parsed.report.report.ok_to_ok, f.report.ok_to_ok);
    EXPECT_EQ(parsed.report.report.ok_to_loss, f.report.ok_to_loss);
    EXPECT_EQ(parsed.report.report.loss_to_ok, f.report.loss_to_ok);
    EXPECT_EQ(parsed.report.report.loss_to_loss, f.report.loss_to_loss);
    EXPECT_EQ(parsed.report.report.first_lost, f.report.first_lost);
    EXPECT_EQ(parsed.report.report.has_events, f.report.has_events);
  }
}

TEST(NetWire, EveryTruncationRejectedWithNamedReason) {
  Rng rng(11);
  DataFrame f = random_data_frame(rng);
  f.payload.resize(97);
  const std::vector<std::uint8_t> buf = pack(f);
  ParsedFrame parsed;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    const WireError err = parse({buf.data(), len}, parsed);
    ASSERT_NE(err, WireError::kOk) << "accepted a " << len << "-byte prefix";
    ASSERT_NE(to_string(err), "?");
  }
}

TEST(NetWire, EverySingleBitFlipRejected) {
  Rng rng(13);
  DataFrame f = random_data_frame(rng);
  f.payload.resize(64);
  const std::vector<std::uint8_t> good = pack(f);
  ParsedFrame parsed;
  ASSERT_EQ(parse(good, parsed), WireError::kOk);
  for (std::size_t bit = 0; bit < good.size() * 8; ++bit) {
    std::vector<std::uint8_t> bad = good;
    bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    const WireError err = parse(bad, parsed);
    EXPECT_NE(err, WireError::kOk) << "bit " << bit << " flip accepted";
    EXPECT_NE(to_string(err), "?");
  }
}

TEST(NetWire, NamedRejectionReasons) {
  DataFrame f;
  f.payload = {1, 2, 3};
  const std::vector<std::uint8_t> good = pack(f);
  ParsedFrame parsed;
  const auto reseal = [](std::vector<std::uint8_t> b) {
    const std::uint32_t crc = crc32({b.data(), 44});
    for (int i = 0; i < 4; ++i)
      b[44 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(crc >> (8 * i));
    return b;
  };

  auto bad = good;
  bad[0] = 0x00;
  EXPECT_EQ(parse(bad, parsed), WireError::kBadMagic);
  bad = good;
  bad[2] = kWireVersion + 1;
  EXPECT_EQ(parse(bad, parsed), WireError::kBadVersion);
  bad = good;
  bad[3] = 9;
  EXPECT_EQ(parse(bad, parsed), WireError::kUnknownType);
  bad = good;
  bad[4] = 7;  // scheme tag beyond StreamScheme
  EXPECT_EQ(parse(bad, parsed), WireError::kUnknownScheme);
  bad = good;
  bad[5] = 0x82;  // reserved flag bit
  EXPECT_EQ(parse(bad, parsed), WireError::kBadPadding);
  bad = good;
  bad[6] = 0xFF;
  bad[7] = 0xFF;  // payload_len 65535 > kMaxPayload
  EXPECT_EQ(parse(bad, parsed), WireError::kOversizedPayload);
  bad = good;
  bad.push_back(0);
  EXPECT_EQ(parse(bad, parsed), WireError::kTrailingBytes);
  bad = good;
  bad[20] ^= 0x40;  // coding_seed byte: only the header CRC notices
  EXPECT_EQ(parse(bad, parsed), WireError::kHeaderCrcMismatch);
  bad = good;
  bad[28] = 9;  // span_first = 9 > span_last = 0, CRC recomputed
  EXPECT_EQ(parse(reseal(bad), parsed), WireError::kBadSpan);
  bad = good;
  bad[kHeaderSize] ^= 0x01;  // payload byte
  EXPECT_EQ(parse(bad, parsed), WireError::kPayloadCrcMismatch);

  const std::vector<std::uint8_t> report = pack(ReportFrame{});
  bad = report;
  bad[5] = 1;  // reserved byte
  EXPECT_EQ(parse(bad, parsed), WireError::kBadPadding);
}

TEST(NetWire, RandomGarbageNeverCrashes) {
  Rng rng(17);
  ParsedFrame parsed;
  std::vector<std::uint8_t> buf;
  for (int round = 0; round < 2000; ++round) {
    buf.resize(rng.below(2 * kDataOverhead + kMaxPayload));
    for (auto& b : buf) b = static_cast<std::uint8_t>(rng());
    const WireError err = parse(buf, parsed);
    ASSERT_NE(to_string(err), "?");
  }
}

TEST(NetWire, PackRejectsUnrepresentableFrames) {
  std::vector<std::uint8_t> buf;
  DataFrame f;
  f.payload.resize(kMaxPayload + 1);
  EXPECT_THROW(pack(f, buf), std::invalid_argument);
  f.payload.clear();
  f.scheme = 4;
  EXPECT_THROW(pack(f, buf), std::invalid_argument);
  f.scheme = 0;
  f.span_first = 2;
  f.span_last = 1;
  EXPECT_THROW(pack(f, buf), std::invalid_argument);
}

// -------------------------------------------------------------- transport

void round_trip_pair(std::string_view name) {
  TransportPair pair = make_transport_pair(name);
  const std::vector<std::uint8_t> ping = {1, 2, 3, 4};
  const std::vector<std::uint8_t> pong = {9, 8, 7};
  ASSERT_TRUE(pair.a->send(ping));
  std::uint8_t buf[64];
  ASSERT_EQ(pair.b->recv(buf, 1000), 4);
  EXPECT_TRUE(std::equal(ping.begin(), ping.end(), buf));
  ASSERT_TRUE(pair.b->send(pong));
  ASSERT_EQ(pair.a->recv(buf, 1000), 3);
  EXPECT_TRUE(std::equal(pong.begin(), pong.end(), buf));
  // Nothing queued: a bounded wait, not a hang.
  EXPECT_EQ(pair.a->recv(buf, 10), -1);
}

TEST(NetTransport, MemoryPairRoundTrip) { round_trip_pair("memory"); }

TEST(NetTransport, UdpLoopbackPairRoundTrip) { round_trip_pair("udp"); }

TEST(NetTransport, UnknownNameThrows) {
  EXPECT_THROW(make_transport_pair("tcp"), std::invalid_argument);
}

// ------------------------------------------------------------- impairment

TEST(NetImpairment, ConsumesTheExactChannelSubstream) {
  GilbertModel direct(0.1, 0.4);
  GilbertModel shimmed(0.1, 0.4);
  ImpairmentShim shim(shimmed);
  const std::uint64_t seed = derive_seed(42, {0});
  direct.reset(seed);
  shim.reset(seed);
  std::uint64_t drops = 0;
  for (int i = 0; i < 5000; ++i) {
    const bool expect = direct.lost();
    ASSERT_EQ(shim.drop_next(), expect) << "draw " << i;
    drops += expect ? 1 : 0;
  }
  EXPECT_EQ(shim.drawn(), 5000u);
  EXPECT_EQ(shim.dropped(), drops);
}

// ---------------------------------------------------- sim-vs-wire parity

NetTrialConfig small_config(StreamScheme scheme, StreamScheduling sched) {
  NetTrialConfig cfg;
  cfg.stream.scheme = scheme;
  cfg.stream.scheduling = sched;
  cfg.stream.source_count = 300;
  cfg.stream.overhead = 0.25;
  cfg.stream.window = 24;
  cfg.stream.block_k = 32;
  cfg.stream.max_cycles = 3;
  cfg.payload_bytes = 48;
  cfg.transport = "memory";
  return cfg;
}

void expect_parity(const NetTrialConfig& cfg, std::uint64_t seed) {
  GilbertModel sim_channel(0.05, 0.3);
  GilbertModel net_channel(0.05, 0.3);
  const StreamTrialResult sim = run_stream_trial(cfg.stream, sim_channel, seed);
  const NetTrialResult net = run_net_trial(cfg, net_channel, seed);
  EXPECT_EQ(net.stream.delays, sim.delays);
  EXPECT_EQ(net.stream.packets_sent, sim.packets_sent);
  EXPECT_EQ(net.stream.packets_received, sim.packets_received);
  EXPECT_EQ(net.stream.delay.delivered, sim.delay.delivered);
  EXPECT_EQ(net.stream.residual.lost, sim.residual.lost);
  EXPECT_EQ(net.stream.all_delivered, sim.all_delivered);
  EXPECT_DOUBLE_EQ(net.stream.overhead_actual, sim.overhead_actual);
  // Byte verification: every delivered source matched the ground truth.
  EXPECT_EQ(net.payload_mismatches, 0u);
  EXPECT_EQ(net.sources_verified, net.stream.delay.delivered);
  EXPECT_EQ(net.frames_rejected, 0u);
  EXPECT_EQ(net.datagrams_sent + net.datagrams_dropped,
            net.stream.packets_sent);
}

TEST(NetParity, SlidingWindowMatchesSimulation) {
  expect_parity(small_config(StreamScheme::kSlidingWindow,
                             StreamScheduling::kSequential),
                101);
}

TEST(NetParity, ReplicationMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kReplication, StreamScheduling::kSequential),
      102);
}

TEST(NetParity, BlockRseSequentialMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kBlockRse, StreamScheduling::kSequential),
      103);
}

TEST(NetParity, BlockRseInterleavedMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kBlockRse, StreamScheduling::kInterleaved),
      104);
}

TEST(NetParity, BlockRseCarouselMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kBlockRse, StreamScheduling::kCarousel), 105);
}

TEST(NetParity, LdgmSequentialMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kLdgm, StreamScheduling::kSequential), 106);
}

TEST(NetParity, LdgmInterleavedMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kLdgm, StreamScheduling::kInterleaved), 107);
}

TEST(NetParity, LdgmCarouselMatchesSimulation) {
  expect_parity(
      small_config(StreamScheme::kLdgm, StreamScheduling::kCarousel), 108);
}

TEST(NetParity, UdpTransportIdenticalToMemory) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  GilbertModel ch_mem(0.05, 0.3);
  GilbertModel ch_udp(0.05, 0.3);
  const NetTrialResult mem = run_net_trial(cfg, ch_mem, 55);
  cfg.transport = "udp";
  const NetTrialResult udp = run_net_trial(cfg, ch_udp, 55);
  EXPECT_EQ(udp.stream.delays, mem.stream.delays);
  EXPECT_EQ(udp.bytes_sent, mem.bytes_sent);
  EXPECT_EQ(udp.datagrams_sent, mem.datagrams_sent);
  EXPECT_EQ(udp.payload_mismatches, 0u);
}

// ----------------------------------------------------- reverse-path loop

TEST(NetReport, ClosesTheEstimatorLoopOverTheWire) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  cfg.stream.source_count = 2000;
  cfg.stream.window = 32;
  cfg.report_interval = 128;
  GilbertModel channel(0.08, 0.25);
  const NetTrialResult r = run_net_trial(cfg, channel, 77);
  EXPECT_GE(r.reports_received, 10u);
  EXPECT_EQ(r.reports_received, r.reports_sent);
  // Every slot crossed the reverse path exactly once.
  EXPECT_EQ(r.estimate.observations, r.stream.packets_sent);
  // The wire-fed estimate sees the true loss rate (loose tolerance: one
  // trial's worth of evidence).
  const double truth = 0.08 / (0.08 + 0.25);
  EXPECT_NEAR(r.estimate.p_global, truth, 0.1);
}

TEST(NetReport, EndOfStreamReportAlwaysSent) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kBlockRse, StreamScheduling::kSequential);
  GilbertModel channel(0.05, 0.3);
  const NetTrialResult r = run_net_trial(cfg, channel, 5);
  EXPECT_EQ(r.reports_sent, 1u);
  EXPECT_EQ(r.reports_received, 1u);
  EXPECT_EQ(r.estimate.observations, r.stream.packets_sent);
}

// ------------------------------------------------------------ validation

TEST(NetConfig, ValidateRejectsBadParameters) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  cfg.payload_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.payload_bytes = kMaxPayload + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.payload_bytes = 64;
  cfg.transport = "carrier-pigeon";
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(NetSenderTest, PayloadsAreDeterministicPerSourceAndSeed) {
  std::vector<std::uint8_t> a, b;
  NetSender::source_payload(9, 4, 32, a);
  NetSender::source_payload(9, 4, 32, b);
  EXPECT_EQ(a, b);
  NetSender::source_payload(9, 5, 32, b);
  EXPECT_NE(a, b);
  NetSender::source_payload(10, 4, 32, b);
  EXPECT_NE(a, b);
}

TEST(NetSenderTest, PayloadBytesMatchPerByteReference) {
  // The pre-word-wise generator: one rng() word per 8 bytes, emitted least
  // significant byte first, one byte per iteration.
  const auto reference = [](std::uint64_t seed, std::uint64_t s,
                            std::size_t bytes) {
    Rng rng(derive_seed(seed, {4, s}));
    std::vector<std::uint8_t> out(bytes);
    std::uint64_t word = 0;
    for (std::size_t i = 0; i < bytes; ++i) {
      if (i % 8 == 0) word = rng();
      out[i] = static_cast<std::uint8_t>(word >> (8 * (i % 8)));
    }
    return out;
  };
  std::vector<std::uint8_t> got;
  std::vector<std::size_t> lengths = {1024};
  for (std::size_t n = 1; n <= 17; ++n) lengths.push_back(n);
  for (const std::size_t n : lengths)
    for (const std::uint64_t s : {0u, 1u, 1999u}) {
      NetSender::source_payload(77, s, n, got);
      EXPECT_EQ(got, reference(77, s, n)) << "length " << n << " source " << s;
    }
}

// ------------------------------------------------ receiver input checks

constexpr std::uint64_t kCheckSeed = 5;

/// Frames `count` delivered data frames into a fresh receiver and returns
/// how many it rejected.  Out-of-range frames used to index past the
/// receiver's per-symbol arrays or throw out of the decoder.
std::uint64_t rejected(const NetTrialConfig& cfg,
                       const std::vector<DataFrame>& frames) {
  NetReceiver rx(cfg.stream, cfg.payload_bytes, kCheckSeed, 0);
  ParsedFrame parsed;
  parsed.type = FrameType::kData;
  std::uint64_t slot = 0;
  for (const DataFrame& f : frames) {
    parsed.data = f;
    rx.on_slot(&parsed, slot++);
  }
  return rx.frames_rejected();
}

DataFrame block_frame(const NetTrialConfig& cfg, PacketId id) {
  NetSender tx(cfg.stream, cfg.payload_bytes, kCheckSeed, 0);
  DataFrame f;
  tx.packet_frame(id, f);
  return f;
}

/// A paced scheme's first repair frame (after `interval` sources).
DataFrame paced_repair(const NetTrialConfig& cfg) {
  NetSender tx(cfg.stream, cfg.payload_bytes, kCheckSeed, 0);
  DataFrame f;
  const std::uint32_t interval = cfg.stream.repair_interval();
  for (std::uint32_t s = 0; s < interval; ++s) tx.source_frame(s, f);
  tx.repair_frame(interval, f);
  return f;
}

DataFrame paced_source(const NetTrialConfig& cfg) {
  NetSender tx(cfg.stream, cfg.payload_bytes, kCheckSeed, 0);
  DataFrame f;
  tx.source_frame(0, f);
  return f;
}

TEST(NetReceiverInput, BlockSymbolIdPastCodeLengthRejected) {
  for (const StreamScheme scheme : {StreamScheme::kBlockRse, StreamScheme::kLdgm}) {
    const NetTrialConfig cfg = small_config(scheme, StreamScheduling::kSequential);
    const std::uint64_t n =
        NetSender(cfg.stream, cfg.payload_bytes, kCheckSeed, 0).schedule().size();
    const DataFrame last = block_frame(cfg, static_cast<PacketId>(n - 1));
    EXPECT_EQ(rejected(cfg, {last}), 0u);
    for (const std::uint64_t id : {n, std::uint64_t{1} << 40}) {
      DataFrame bad = last;
      bad.symbol_id = id;
      EXPECT_EQ(rejected(cfg, {bad, last}), 1u)
          << static_cast<int>(scheme) << " id " << id;
    }
  }
}

TEST(NetReceiverInput, ReplicationIdsAndSpanOutsideStreamRejected) {
  const NetTrialConfig cfg =
      small_config(StreamScheme::kReplication, StreamScheduling::kSequential);
  const DataFrame repair = paced_repair(cfg);
  const DataFrame source = paced_source(cfg);
  EXPECT_EQ(rejected(cfg, {source, repair}), 0u);
  DataFrame bad = repair;
  bad.span_first = bad.span_last = 300;  // duplicates a source past S
  EXPECT_EQ(rejected(cfg, {bad}), 1u);
  bad = repair;
  bad.span_last = bad.span_first + 1;  // a duplicate names one source
  EXPECT_EQ(rejected(cfg, {bad}), 1u);
  bad = source;
  bad.symbol_id = 300;  // a source id past S
  EXPECT_EQ(rejected(cfg, {bad}), 1u);
  bad = repair;
  bad.symbol_id = 299;  // repair ids continue past S
  EXPECT_EQ(rejected(cfg, {bad}), 1u);
}

TEST(NetReceiverInput, SlidingSpanOutsideStreamRejected) {
  const NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  const DataFrame repair = paced_repair(cfg);
  EXPECT_EQ(rejected(cfg, {repair}), 0u);
  DataFrame bad = repair;
  bad.span_last = 301;  // covers a source past S
  EXPECT_EQ(rejected(cfg, {bad}), 1u);
  bad = repair;
  bad.span_first = 0;
  bad.span_last = cfg.stream.window + 1;  // wider than one window
  EXPECT_EQ(rejected(cfg, {bad}), 1u);
  bad = repair;
  bad.span_first = bad.span_last = std::uint64_t{1} << 62;
  EXPECT_EQ(rejected(cfg, {bad}), 1u);
  bad = paced_source(cfg);
  bad.symbol_id = 300;
  EXPECT_EQ(rejected(cfg, {bad}), 1u);
}

TEST(NetReceiverInput, WrongPayloadSizeRejected) {
  for (const StreamScheme scheme :
       {StreamScheme::kSlidingWindow, StreamScheme::kReplication,
        StreamScheme::kBlockRse, StreamScheme::kLdgm}) {
    const NetTrialConfig cfg = small_config(scheme, StreamScheduling::kSequential);
    const bool paced = scheme == StreamScheme::kSlidingWindow ||
                       scheme == StreamScheme::kReplication;
    for (const bool repair : {false, true}) {
      const DataFrame good = !paced ? block_frame(cfg, repair ? 300 : 0)
                             : repair ? paced_repair(cfg)
                                      : paced_source(cfg);
      EXPECT_EQ(rejected(cfg, {good}), 0u);
      for (const std::size_t size : {std::size_t{0}, cfg.payload_bytes - 1,
                                     cfg.payload_bytes + 1}) {
        DataFrame bad = good;
        bad.payload.resize(size, 0xab);
        EXPECT_EQ(rejected(cfg, {bad}), 1u)
            << static_cast<int>(scheme) << " repair " << repair << " size "
            << size;
      }
    }
  }
}

// ------------------------------------------------------------ faultpoints

TEST(NetFault, SendAndRecvPointsFire) {
  NetTrialConfig cfg =
      small_config(StreamScheme::kSlidingWindow, StreamScheduling::kSequential);
  for (const char* point : {"net.send", "net.recv"}) {
    fault::arm(point, 1);
    GilbertModel channel(0.05, 0.3);
    EXPECT_THROW((void)run_net_trial(cfg, channel, 3), fault::FaultInjected)
        << point;
    fault::disarm();
  }
}

}  // namespace
}  // namespace fecsched::net
