#include "net/net_trial.h"

#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/impairment.h"
#include "net/receiver.h"
#include "net/sender.h"
#include "net/transport.h"
#include "net/wire.h"
#include "obs/obs.h"
#include "stream/stream_plan.h"
#include "stream/stream_receiver.h"
#include "util/faultpoint.h"
#include "util/rng.h"

namespace fecsched::net {

void NetTrialConfig::validate() const {
  stream.validate();
  if (payload_bytes == 0 || payload_bytes > kMaxPayload)
    throw std::invalid_argument(
        "NetTrialConfig: payload_bytes must be in [1, " +
        std::to_string(kMaxPayload) + "]");
  if (transport != "udp" && transport != "memory")
    throw std::invalid_argument("NetTrialConfig: unknown transport \"" +
                                transport + "\" (udp, memory)");
}

NetTrialResult run_net_trial(const NetTrialConfig& cfg, LossModel& channel,
                             std::uint64_t seed, std::uint32_t object_id) {
  cfg.validate();
  const obs::Hook hook;

  TransportPair pair = make_transport_pair(cfg.transport);
  ImpairmentShim shim(channel);
  ChannelEstimator estimator;

  // Sender and receiver share one plan: the out-of-band code
  // configuration both ends derive from (config, seed).
  const auto plan = std::make_shared<const StreamPlan>(cfg.stream, seed);
  NetSender sender = hook.timed(obs::Phase::kEncode, [&] {
    return NetSender(plan, cfg.payload_bytes, object_id);
  });
  NetReceiver receiver = hook.timed(obs::Phase::kEncode, [&] {
    return NetReceiver(plan, cfg.payload_bytes, object_id);
  });

  NetTrialResult result;
  Transport& tx = *pair.a;  // sender -> receiver
  Transport& rx = *pair.b;  // same pipe, receiver end
  const int timeout = static_cast<int>(cfg.recv_timeout_ms);
  DataFrame frame;
  std::vector<std::uint8_t> pack_buf;
  std::array<std::uint8_t, kDataOverhead + kMaxPayload> recv_buf{};
  ParsedFrame parsed;

  // The wire link: the impairment shim draws each slot's fate at the
  // sender, and a surviving frame makes the full round — pack, socket,
  // parse — before the parsed frame reaches the receiver.
  const auto transmit = [&](auto scheme, const StreamPacket& p,
                            std::uint64_t slot) {
    const auto t = static_cast<double>(slot);
    sender.frame(p, frame);
    hook.sent(t, frame.symbol_id, frame.repair);
    const bool delivered = hook.timed(obs::Phase::kChannelDraw,
                                      [&] { return !shim.drop_next(); });
    if (!delivered) {
      hook.lost(t, frame.symbol_id, frame.repair);
      receiver.on_slot(scheme, nullptr, slot);
      return false;
    }
    hook.timed(obs::Phase::kNetPack, [&] { pack(frame, pack_buf); });
    if (fault::point("net.send")) throw fault::FaultInjected("net.send");
    const bool queued =
        hook.timed(obs::Phase::kNetSend, [&] { return tx.send(pack_buf); });
    if (!queued)
      throw std::runtime_error("net: loopback send backpressure at slot " +
                               std::to_string(slot));
    ++result.datagrams_sent;
    result.bytes_sent += pack_buf.size();
    if (fault::point("net.recv")) throw fault::FaultInjected("net.recv");
    const std::ptrdiff_t n = hook.timed(obs::Phase::kNetRecv, [&] {
      return rx.recv({recv_buf.data(), recv_buf.size()}, timeout);
    });
    // The shim passed this frame, so the lossless transport owes it to us.
    if (n < 0)
      throw std::runtime_error(
          "net: datagram lost on the lossless transport (slot " +
          std::to_string(slot) + ", symbol " +
          std::to_string(frame.symbol_id) + ")");
    const WireError err = hook.timed(obs::Phase::kNetUnpack, [&] {
      return parse({recv_buf.data(), static_cast<std::size_t>(n)}, parsed);
    });
    if (err != WireError::kOk)
      throw std::runtime_error("net: frame rejected on loopback: " +
                               std::string(to_string(err)));
    hook.received(t, parsed.data.symbol_id, parsed.data.repair);
    receiver.on_slot(scheme, &parsed, slot);
    return true;
  };

  // Reverse path: receiver compresses the slot trace into a LossReport
  // frame; the sender parses it into the live channel estimator.
  const auto send_report = [&] {
    if (receiver.pending_events() == 0) return;
    const ReportFrame report = receiver.take_report();
    hook.timed(obs::Phase::kNetPack, [&] { pack(report, pack_buf); });
    if (!hook.timed(obs::Phase::kNetSend, [&] { return rx.send(pack_buf); }))
      throw std::runtime_error("net: report send backpressure");
    ++result.reports_sent;
    const std::ptrdiff_t n = hook.timed(obs::Phase::kNetRecv, [&] {
      return tx.recv({recv_buf.data(), recv_buf.size()}, timeout);
    });
    if (n < 0) throw std::runtime_error("net: report lost on loopback");
    const WireError err = hook.timed(obs::Phase::kNetUnpack, [&] {
      return parse({recv_buf.data(), static_cast<std::size_t>(n)}, parsed);
    });
    if (err != WireError::kOk || parsed.type != FrameType::kReport)
      throw std::runtime_error("net: malformed report on loopback");
    estimator.observe_report(parsed.report.report);
    ++result.reports_received;
  };
  // The cadence is checked after every production step (every slot of a
  // block schedule); one more report closes the stream.
  const auto step_end = [&] {
    if (cfg.report_interval > 0 &&
        receiver.pending_events() >= cfg.report_interval)
      send_report();
  };

  shim.reset(derive_seed(seed, {0}));
  const SlotCounts n = with_scheme(cfg.stream.scheme, [&](auto scheme) {
    return run_slots(scheme, *plan, receiver.core(), transmit, step_end);
  });
  send_report();

  result.stream = receiver.core().finish(n.sent, n.received);
  result.datagrams_dropped = shim.dropped();
  result.sources_verified = receiver.sources_verified();
  result.payload_mismatches = receiver.payload_mismatches();
  result.frames_rejected = receiver.frames_rejected();
  result.estimate = estimator.estimate();
  if (hook.counting()) {
    hook.count("net.trials");
    hook.count("net.datagrams_sent", result.datagrams_sent);
    hook.count("net.datagrams_dropped", result.datagrams_dropped);
    hook.count("net.bytes_sent", result.bytes_sent);
    hook.count("net.sources_verified", result.sources_verified);
    hook.count("net.payload_mismatches", result.payload_mismatches);
    hook.count("net.frames_rejected", result.frames_rejected);
    hook.count("net.reports", result.reports_received);
  }
  return result;
}

}  // namespace fecsched::net
