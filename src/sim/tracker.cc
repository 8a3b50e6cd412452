#include "sim/tracker.h"

#include <stdexcept>

namespace fecsched {

RseTracker::RseTracker(std::shared_ptr<const RsePlan> plan)
    : plan_(std::move(plan)) {
  if (!plan_) throw std::invalid_argument("RseTracker: null plan");
  seen_.assign(plan_->n(), 0);
  received_per_block_.assign(plan_->block_count(), 0);
}

void RseTracker::on_packet(PacketId id) {
  if (id >= plan_->n()) throw std::invalid_argument("RseTracker: bad id");
  if (seen_[id]) return;
  seen_[id] = 1;
  const BlockPosition pos = plan_->position(id);
  const std::uint32_t block_k = plan_->block(pos.block).k;
  const std::uint32_t have = received_per_block_[pos.block];
  if (have >= block_k) return;  // block already solved: nothing buffered
  ++received_per_block_[pos.block];
  ++buffered_;
  if (have + 1 == block_k) {
    ++satisfied_blocks_;
    buffered_ -= block_k;  // the solver consumes the pending buffer
  }
}

void RseTracker::reset() {
  std::fill(seen_.begin(), seen_.end(), 0);
  std::fill(received_per_block_.begin(), received_per_block_.end(), 0);
  satisfied_blocks_ = 0;
  buffered_ = 0;
}

LdgmTracker::LdgmTracker(std::shared_ptr<const LdgmCode> code, bool ge_fallback)
    : code_(std::move(code)),
      decoder_(code_->matrix(), code_->k()),
      ge_fallback_(ge_fallback) {}

void LdgmTracker::try_ge() {
  // ML decoding could complete earlier than peeling.  Running a Gaussian
  // elimination after every packet would be quadratic in practice, so
  // attempts are strided once enough variables are known for completion to
  // be plausible (at least k known variables are necessary).
  if (decoder_.known_variable_count() < decoder_.k()) return;
  const std::uint32_t stride = std::max<std::uint32_t>(1, decoder_.k() / 50);
  if (++since_ge_attempt_ < stride) return;
  since_ge_attempt_ = 0;
  // GE feedback mutates the decoder; if it fails, peeling resumes as usual
  // with the extra variables GE did determine.
  complete_ = ge_solve(decoder_).complete_after;
}

void LdgmTracker::reset() {
  decoder_.reset();
  complete_ = false;
  since_ge_attempt_ = 0;
}

ReplicationTracker::ReplicationTracker(std::shared_ptr<const ReplicationPlan> plan)
    : plan_(std::move(plan)) {
  if (!plan_) throw std::invalid_argument("ReplicationTracker: null plan");
  have_.assign(plan_->k(), 0);
}

void ReplicationTracker::on_packet(PacketId id) {
  const PacketId src = plan_->source_of(id);
  if (have_[src]) return;
  have_[src] = 1;
  ++distinct_;
}

void ReplicationTracker::reset() {
  std::fill(have_.begin(), have_.end(), 0);
  distinct_ = 0;
}

}  // namespace fecsched
