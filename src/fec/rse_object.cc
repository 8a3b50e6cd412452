#include "fec/rse_object.h"

#include <algorithm>
#include <stdexcept>

namespace fecsched {

RseBlockCodecs::RseBlockCodecs(const RsePlan& plan) {
  of_block_.reserve(plan.block_count());
  for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
    const BlockInfo& blk = plan.block(b);
    std::uint32_t c = 0;
    while (c < codecs_.size() &&
           (codecs_[c].k() != blk.k || codecs_[c].n() != blk.n))
      ++c;
    if (c == codecs_.size()) codecs_.emplace_back(blk.k, blk.n);
    of_block_.push_back(c);
  }
}

RseObjectEncoder::RseObjectEncoder(
    std::shared_ptr<const RsePlan> plan,
    std::vector<std::vector<std::uint8_t>> source)
    : plan_(std::move(plan)), source_(std::move(source)) {
  if (!plan_) throw std::invalid_argument("RseObjectEncoder: null plan");
  if (source_.size() != plan_->k())
    throw std::invalid_argument("RseObjectEncoder: expected k source symbols");
  // Validate once up front, then run every block through the unchecked
  // flat encode core (no intermediate per-block parity vectors).
  const std::size_t sym = source_.empty() ? 0 : source_[0].size();
  for (const auto& s : source_)
    if (s.size() != sym)
      throw std::invalid_argument("RseObjectEncoder: symbol size mismatch");
  const RseBlockCodecs codecs(*plan_);
  parity_.resize(plan_->n() - plan_->k());
  for (auto& p : parity_) p.resize(sym);
  const std::uint8_t* source_rows[RseCodec::kMaxN];
  std::uint8_t* parity_rows[RseCodec::kMaxN];
  for (std::uint32_t b = 0; b < plan_->block_count(); ++b) {
    const BlockInfo& blk = plan_->block(b);
    for (std::uint32_t j = 0; j < blk.k; ++j)
      source_rows[j] = source_[blk.source_offset + j].data();
    for (std::uint32_t i = 0; i < blk.n - blk.k; ++i)
      parity_rows[i] = parity_[blk.parity_offset - plan_->k() + i].data();
    codecs[b].encode_into(source_rows, sym, parity_rows);
  }
}

const std::vector<std::uint8_t>& RseObjectEncoder::payload(PacketId id) const {
  if (id >= plan_->n())
    throw std::invalid_argument("RseObjectEncoder::payload: bad id");
  return id < plan_->k() ? source_[id] : parity_[id - plan_->k()];
}

RseObjectDecoder::RseObjectDecoder(std::shared_ptr<const RsePlan> plan,
                                   std::size_t symbol_size)
    : plan_(plan ? std::move(plan)
                 : throw std::invalid_argument("RseObjectDecoder: null plan")),
      codecs_(*plan_),
      symbol_size_(symbol_size) {
  blocks_.resize(plan_->block_count());
  seen_.assign(plan_->n(), 0);
}

bool RseObjectDecoder::on_packet(PacketId id,
                                 std::span<const std::uint8_t> payload,
                                 std::vector<PacketId>* known) {
  if (id >= plan_->n())
    throw std::invalid_argument("RseObjectDecoder::on_packet: bad id");
  if (payload.size() != symbol_size_)
    throw std::invalid_argument("RseObjectDecoder::on_packet: bad symbol size");
  if (seen_[id]) return false;
  seen_[id] = 1;

  const BlockPosition pos = plan_->position(id);
  BlockState& st = blocks_[pos.block];
  if (st.decoded || st.released) return false;
  ++used_;
  const BlockInfo& blk = plan_->block(pos.block);
  if (st.rows.empty()) st.rows.resize(blk.k * symbol_size_);
  if (pos.index < blk.k) {
    std::copy(payload.begin(), payload.end(),
              st.rows.begin() + static_cast<std::ptrdiff_t>(pos.index * symbol_size_));
    if (known) known->push_back(id);
  } else {
    st.parity.insert(st.parity.end(), payload.begin(), payload.end());
    st.parity_index.push_back(pos.index);
  }
  if (++st.received < blk.k) return false;
  decode_block(pos.block, known);
  return complete();
}

void RseObjectDecoder::decode_block(std::uint32_t b,
                                    std::vector<PacketId>* known) {
  BlockState& st = blocks_[b];
  const BlockInfo& blk = plan_->block(b);
  // Exactly k_b packets are held: the arrived sources, in place, plus the
  // parity that stands in for the missing ones.
  std::uint8_t* rows[RseCodec::kMaxN];
  views_.clear();
  for (std::uint32_t j = 0; j < blk.k; ++j) {
    rows[j] = st.rows.data() + j * symbol_size_;
    if (seen_[blk.source_offset + j]) views_.push_back({j, rows[j]});
  }
  for (std::size_t t = 0; t < st.parity_index.size(); ++t)
    views_.push_back(
        {st.parity_index[t], st.parity.data() + t * symbol_size_});
  codecs_[b].decode_into(views_, symbol_size_, rows, workspace_);
  std::vector<std::uint8_t>().swap(st.parity);
  std::vector<std::uint32_t>().swap(st.parity_index);
  st.decoded = true;
  ++decoded_blocks_;
  if (known)
    for (std::uint32_t j = 0; j < blk.k; ++j)
      if (!seen_[blk.source_offset + j]) known->push_back(blk.source_offset + j);
}

std::span<const std::uint8_t>
RseObjectDecoder::source_symbol(PacketId id) const {
  if (id >= plan_->k())
    throw std::invalid_argument("RseObjectDecoder::source_symbol: not a source id");
  const BlockPosition pos = plan_->position(id);
  const BlockState& st = blocks_[pos.block];
  if (st.released || !(st.decoded || seen_[id]))
    throw std::logic_error("RseObjectDecoder::source_symbol: symbol not held");
  return {st.rows.data() + pos.index * symbol_size_, symbol_size_};
}

void RseObjectDecoder::release(std::uint32_t b) {
  BlockState& st = blocks_.at(b);
  st.released = true;
  std::vector<std::uint8_t>().swap(st.rows);
  std::vector<std::uint8_t>().swap(st.parity);
  std::vector<std::uint32_t>().swap(st.parity_index);
}

}  // namespace fecsched
