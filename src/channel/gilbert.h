// Two-state Markov ("Gilbert") packet loss model (Sec. 3.2, Fig. 4).
//
// Two states: NO-LOSS (packets delivered) and LOSS (packets erased).
// p = P[no-loss -> loss], q = P[loss -> no-loss].  The stationary loss
// probability is p_global = p / (p + q); mean burst length is 1/q.
// The initial state of each trial is drawn from the stationary
// distribution so short objects see steady-state behaviour, matching the
// paper's tables.
//
// Special cases covered (paper Sec. 3.2): p = 0 is the perfect channel;
// q = 1 - p is the memoryless Bernoulli (IID) channel.

#pragma once

#include <cstdint>

#include "channel/loss_model.h"
#include "util/rng.h"

namespace fecsched {

/// Gilbert two-state Markov erasure process.
class GilbertModel final : public LossModel {
 public:
  /// Probabilities must lie in [0, 1] (throws std::invalid_argument).
  GilbertModel(double p, double q);

  /// Memoryless channel with loss probability `loss_rate` (q = 1 - p).
  [[nodiscard]] static GilbertModel bernoulli(double loss_rate) {
    return GilbertModel(loss_rate, 1.0 - loss_rate);
  }

  [[nodiscard]] double p() const noexcept { return p_; }
  [[nodiscard]] double q() const noexcept { return q_; }

  /// Stationary loss probability p/(p+q); 0 when p = q = 0.
  [[nodiscard]] double global_loss_probability() const noexcept;

  /// The current state decides this packet's fate, then the chain
  /// advances with one Rng draw.  Branchless: `rng() >> 11 < ceil(x·2^53)`
  /// is exactly `Rng::bernoulli(x)` (`uniform01() < x`, both sides scaled
  /// by 2^53 without rounding), so verdicts and Rng consumption match the
  /// bernoulli form bit for bit.
  [[nodiscard]] bool lost() override {
    const bool erased = in_loss_state_;
    const std::uint64_t u = rng_() >> 11;
    // In LOSS the chain leaves with probability q, in NO-LOSS it enters
    // with probability p: next = (u < threshold) XOR erased.
    in_loss_state_ = (u < (erased ? q_threshold_ : p_threshold_)) != erased;
    return erased;
  }
  void reset(std::uint64_t seed) override;

  /// One explicit Markov step: given that the previous packet's fate was
  /// `was_lost`, draw the next packet's fate and synchronise the internal
  /// state with it.  Lets external components (estimators, tests) drive the
  /// chain from an arbitrary trajectory point instead of the hidden state.
  [[nodiscard]] bool transition(bool was_lost);

 private:
  double p_;
  double q_;
  std::uint64_t p_threshold_;  ///< ceil(p·2^53)
  std::uint64_t q_threshold_;  ///< ceil(q·2^53)
  bool in_loss_state_ = false;
  Rng rng_;
};

}  // namespace fecsched
