#include "net/sender.h"

#include <stdexcept>
#include <utility>

#include "util/rng.h"

namespace fecsched::net {

namespace {

/// Stores `w` least significant byte first.  Spelled out byte by byte so
/// it is portable; compilers merge it into one 8-byte store.
void store_le64(std::uint8_t* p, std::uint64_t w) {
  p[0] = static_cast<std::uint8_t>(w);
  p[1] = static_cast<std::uint8_t>(w >> 8);
  p[2] = static_cast<std::uint8_t>(w >> 16);
  p[3] = static_cast<std::uint8_t>(w >> 24);
  p[4] = static_cast<std::uint8_t>(w >> 32);
  p[5] = static_cast<std::uint8_t>(w >> 40);
  p[6] = static_cast<std::uint8_t>(w >> 48);
  p[7] = static_cast<std::uint8_t>(w >> 56);
}

}  // namespace

void NetSender::source_payload(std::uint64_t seed, std::uint64_t s,
                               std::size_t bytes,
                               std::vector<std::uint8_t>& out) {
  Rng rng(derive_seed(seed, {4, s}));
  out.resize(bytes);
  // One rng() word per 8 bytes; a short tail takes the low bytes of one
  // more word.
  const std::size_t whole = bytes / 8 * 8;
  for (std::size_t i = 0; i < whole; i += 8) store_le64(out.data() + i, rng());
  if (whole < bytes) {
    const std::uint64_t word = rng();
    for (std::size_t i = whole; i < bytes; ++i)
      out[i] = static_cast<std::uint8_t>(word >> (8 * (i - whole)));
  }
}

NetSender::NetSender(std::shared_ptr<const StreamPlan> plan,
                     std::size_t payload_bytes, std::uint32_t object_id)
    : plan_(std::move(plan)),
      payload_bytes_(payload_bytes),
      object_id_(object_id) {
  const std::uint32_t S = plan_->source_count();
  payloads_.resize(S);
  for (std::uint32_t s = 0; s < S; ++s)
    source_payload(plan_->seed(), s, payload_bytes_, payloads_[s]);
  switch (plan_->config().scheme) {
    case StreamScheme::kSlidingWindow:
      encoder_.emplace(plan_->sliding(), payload_bytes_);
      break;
    case StreamScheme::kReplication:
      break;
    case StreamScheme::kBlockRse:
      rse_.emplace(plan_->rse(), std::move(payloads_));
      break;
    case StreamScheme::kLdgm:
      parity_ = plan_->ldgm()->encode(payloads_);
      break;
  }
}

NetSender::NetSender(const StreamTrialConfig& cfg, std::size_t payload_bytes,
                     std::uint64_t seed, std::uint32_t object_id)
    : NetSender(std::make_shared<const StreamPlan>(cfg, seed), payload_bytes,
                object_id) {}

void NetSender::frame(const StreamPacket& p, DataFrame& out) {
  const std::uint32_t S = plan_->source_count();
  out.scheme = static_cast<std::uint8_t>(plan_->config().scheme);
  out.object_id = object_id_;
  out.coding_seed = plan_->coding_seed();
  out.repair = p.repair;
  out.symbol_id = p.id;
  out.span_first = p.first;
  out.span_last = p.last;
  switch (plan_->config().scheme) {
    case StreamScheme::kBlockRse:
      out.payload = rse_->payload(static_cast<PacketId>(p.id));
      return;
    case StreamScheme::kLdgm:
      out.payload = p.id < S ? payloads_[p.id] : parity_[p.id - S];
      return;
    case StreamScheme::kReplication:
      // A repair carries the source it duplicates.
      out.payload = payloads_[p.repair ? p.first : p.id];
      return;
    case StreamScheme::kSlidingWindow:
      break;
  }
  if (!p.repair) {
    out.payload = payloads_[p.id];
    if (encoder_->push_source(payloads_[p.id]) != p.id)
      throw std::logic_error("NetSender: source frames must be built in order");
    return;
  }
  encoder_->make_repair(repair_scratch_);
  if (S + repair_scratch_.repair_seq != p.id ||
      repair_scratch_.first != p.first || repair_scratch_.last != p.last)
    throw std::logic_error(
        "NetSender: sliding repair out of step with the plan's pacing");
  out.payload = repair_scratch_.payload;
}

const StreamEmission& NetSender::next_emission(bool repair, std::uint64_t n) {
  const std::span<const StreamEmission> emissions = plan_->emissions();
  if (next_ >= emissions.size() || emissions[next_].packet.repair != repair ||
      (repair ? emissions[next_].produced : emissions[next_].packet.id) != n)
    throw std::logic_error("NetSender: paced frames must follow the plan");
  return emissions[next_++];
}

void NetSender::source_frame(std::uint64_t s, DataFrame& out) {
  frame(next_emission(false, s).packet, out);
}

void NetSender::repair_frame(std::uint64_t produced, DataFrame& out) {
  frame(next_emission(true, produced).packet, out);
}

void NetSender::packet_frame(PacketId id, DataFrame& out) {
  frame(plan_->block_packet(id), out);
}

}  // namespace fecsched::net
