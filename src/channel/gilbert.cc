#include "channel/gilbert.h"

#include <cmath>
#include <stdexcept>

namespace fecsched {

namespace {

/// The integer form of `uniform01() < x` for x in [0, 1]: uniform01() is
/// u·2^-53 for the 53-bit integer u = rng() >> 11, and x·2^53 is exact,
/// so u·2^-53 < x  <=>  u < x·2^53  <=>  u < ceil(x·2^53).
std::uint64_t draw_threshold(double x) {
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(x, 53)));
}

}  // namespace

GilbertModel::GilbertModel(double p, double q) : p_(p), q_(q) {
  if (!(p >= 0.0 && p <= 1.0) || !(q >= 0.0 && q <= 1.0))
    throw std::invalid_argument("GilbertModel: p and q must be in [0, 1]");
  p_threshold_ = draw_threshold(p);
  q_threshold_ = draw_threshold(q);
  reset(0);
}

double GilbertModel::global_loss_probability() const noexcept {
  return (p_ + q_) > 0.0 ? p_ / (p_ + q_) : 0.0;
}

void GilbertModel::reset(std::uint64_t seed) {
  rng_.reseed(seed);
  // Draw the initial state from the stationary distribution.
  in_loss_state_ = rng_.bernoulli(global_loss_probability());
}

bool GilbertModel::transition(bool was_lost) {
  in_loss_state_ = was_lost ? !rng_.bernoulli(q_) : rng_.bernoulli(p_);
  return in_loss_state_;
}

}  // namespace fecsched
