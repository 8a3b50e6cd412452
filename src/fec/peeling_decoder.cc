#include "fec/peeling_decoder.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "gf/gf256_kernels.h"

namespace fecsched {

PeelingDecoder::PeelingDecoder(const SparseBinaryMatrix& h, std::uint32_t k,
                               std::size_t symbol_size)
    : h_(nullptr), k_(0), symbol_size_(0) {
  rebind(h, k, symbol_size);
}

void PeelingDecoder::rebind(const SparseBinaryMatrix& h, std::uint32_t k,
                            std::size_t symbol_size) {
  if (k == 0 || k >= h.cols())
    throw std::invalid_argument("PeelingDecoder: require 0 < k < n");
  if (h.rows() + k != h.cols())
    throw std::invalid_argument("PeelingDecoder: H must be (n-k) x n");
  h_ = &h;
  k_ = k;
  symbol_size_ = symbol_size;
  known_.resize(h.cols());
  rows_.resize(h.rows());
  // reset() restores each row from its degree (the CSR row offsets) and
  // this XOR of its ids, so a trial restart never re-walks the matrix.
  fresh_xor_.resize(h.rows());
  for (std::uint32_t r = 0; r < h.rows(); ++r) {
    std::uint32_t x = 0;
    for (const std::uint32_t c : h.row(r)) x ^= c;
    fresh_xor_[r] = x;
  }
  if (symbol_size_ > 0) {
    symbols_.resize(static_cast<std::size_t>(h.cols()) * symbol_size_);
    row_acc_.resize(static_cast<std::size_t>(h.rows()) * symbol_size_);
  } else {
    symbols_.clear();
    row_acc_.clear();
  }
  reset();
}

void PeelingDecoder::reset() {
  std::fill(known_.begin(), known_.end(), 0);
  for (std::uint32_t r = 0; r < h_->rows(); ++r)
    rows_[r] = {h_->row_degree_unchecked(r), fresh_xor_[r]};
  if (symbol_size_ > 0) {
    std::fill(symbols_.begin(), symbols_.end(), 0);
    std::fill(row_acc_.begin(), row_acc_.end(), 0);
  }
  known_sources_ = 0;
  known_total_ = 0;
  ready_.clear();
}

std::span<const std::uint8_t> PeelingDecoder::symbol(PacketId id) const {
  if (symbol_size_ == 0)
    throw std::logic_error("PeelingDecoder::symbol: structure-only mode");
  if (id >= n() || !known_[id])
    throw std::logic_error("PeelingDecoder::symbol: variable unknown");
  return {symbols_.data() + static_cast<std::size_t>(id) * symbol_size_,
          symbol_size_};
}

std::span<const std::uint8_t>
PeelingDecoder::row_accumulator(std::uint32_t row) const {
  if (symbol_size_ == 0)
    throw std::logic_error("PeelingDecoder::row_accumulator: structure-only mode");
  if (row >= h_->rows())
    throw std::invalid_argument("PeelingDecoder::row_accumulator: bad row");
  return {row_acc_.data() + static_cast<std::size_t>(row) * symbol_size_,
          symbol_size_};
}

/// learn()'s sink for every call that is not the structure-only fast
/// path: stores and XOR-accumulates payloads in payload mode, and appends
/// each newly known source to `recovered` when one is given.
class PeelingDecoder::PayloadSink {
 public:
  PayloadSink(PeelingDecoder& d, std::vector<PacketId>* recovered)
      : d_(d), recovered_(recovered), eng_(gf::kernels()) {}

  void source(PacketId id) const {
    if (recovered_ != nullptr) recovered_->push_back(id);
  }
  const std::uint8_t* store(PacketId id, const std::uint8_t* payload) const {
    if (d_.symbol_size_ == 0) return nullptr;
    std::uint8_t* stored =
        d_.symbols_.data() + static_cast<std::size_t>(id) * d_.symbol_size_;
    if (payload != nullptr && payload != stored)
      std::copy(payload, payload + d_.symbol_size_, stored);
    return stored;
  }
  void edge(std::uint32_t r, const std::uint8_t* stored) const {
    if (d_.symbol_size_ > 0) eng_.xor_into(row(r), stored, d_.symbol_size_);
  }
  const std::uint8_t* row_payload(std::uint32_t r) const {
    return d_.symbol_size_ > 0 ? row(r) : nullptr;
  }

 private:
  std::uint8_t* row(std::uint32_t r) const {
    return d_.row_acc_.data() + static_cast<std::size_t>(r) * d_.symbol_size_;
  }

  PeelingDecoder& d_;
  std::vector<PacketId>* recovered_;
  const gf::Kernels& eng_;
};

std::uint32_t PeelingDecoder::learn_checked(
    PacketId id, std::span<const std::uint8_t> payload,
    std::vector<PacketId>* recovered, const char* caller) {
  if (id >= n())
    throw std::invalid_argument(std::string("PeelingDecoder::") + caller +
                                ": bad id");
  if (symbol_size_ > 0 && payload.size() != symbol_size_)
    throw std::invalid_argument(std::string("PeelingDecoder::") + caller +
                                ": bad payload size");
  PayloadSink sink(*this, recovered);
  return learn(id, payload.data(), sink);
}

std::uint32_t PeelingDecoder::add_packet(PacketId id,
                                         std::span<const std::uint8_t> payload,
                                         std::vector<PacketId>* recovered) {
  return learn_checked(id, payload, recovered, "add_packet");
}

std::uint32_t PeelingDecoder::force_known(PacketId id,
                                          std::span<const std::uint8_t> payload,
                                          std::vector<PacketId>* recovered) {
  return learn_checked(id, payload, recovered, "force_known");
}

}  // namespace fecsched
