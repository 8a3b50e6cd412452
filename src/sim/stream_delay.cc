#include "sim/stream_delay.h"

#include <stdexcept>

#include "channel/gilbert.h"
#include "util/rng.h"

namespace fecsched {

void StreamPointStats::add(const StreamTrialResult& r,
                           std::uint32_t source_count) {
  mean_delay.add(r.delay.mean);
  p95_delay.add(r.delay.p95);
  p99_delay.add(r.delay.p99);
  max_delay.add(r.delay.max);
  mean_hol.add(r.delay.mean_hol);
  residual_mean_run.add(r.residual.mean_run_length);
  residual_max_run.add(static_cast<double>(r.residual.max_run_length));
  undelivered_fraction.add(static_cast<double>(r.residual.lost) /
                           static_cast<double>(source_count));
  overhead_actual.add(r.overhead_actual);
  ++trials;
}

std::vector<StreamVariant> StreamGridConfig::default_variants() {
  return {
      {"sliding-window", StreamScheme::kSlidingWindow,
       StreamScheduling::kSequential},
      {"block-rse/seq", StreamScheme::kBlockRse,
       StreamScheduling::kSequential},
      {"block-rse/interleaved", StreamScheme::kBlockRse,
       StreamScheduling::kInterleaved},
      {"ldgm/seq", StreamScheme::kLdgm, StreamScheduling::kSequential},
      {"replication", StreamScheme::kReplication,
       StreamScheduling::kSequential},
  };
}

ChannelPoint gilbert_point(double p_global, double mean_burst) {
  if (p_global < 0.0 || p_global >= 1.0)
    throw std::invalid_argument("gilbert_point: p_global must be in [0, 1)");
  if (mean_burst < 1.0)
    throw std::invalid_argument("gilbert_point: mean_burst must be >= 1");
  const double q = 1.0 / mean_burst;
  const double p = p_global * q / (1.0 - p_global);
  if (p > 1.0)
    throw std::invalid_argument(
        "gilbert_point: (p_global, mean_burst) is not a Gilbert channel");
  return {p, q};
}

StreamGridResult run_stream_delay_grid(std::span<const ChannelPoint> points,
                                       const StreamGridConfig& config,
                                       const GridRunOptions& options) {
  StreamGridResult result;
  result.points.assign(points.begin(), points.end());
  result.variants = config.variants.empty()
                        ? StreamGridConfig::default_variants()
                        : config.variants;
  result.overheads = config.overheads;
  result.source_count = config.base.source_count;
  if (result.overheads.empty())
    throw std::invalid_argument(
        "run_stream_delay_grid: at least one overhead required");
  result.stats.resize(points.size() * result.variants.size() *
                      result.overheads.size());

  const auto config_for = [&](std::size_t v, std::size_t o) {
    StreamTrialConfig cfg = config.base;
    cfg.scheme = result.variants[v].scheme;
    cfg.scheduling = result.variants[v].scheduling;
    cfg.overhead = result.overheads[o];
    return cfg;
  };
  // Validate every swept configuration eagerly so a bad (block_k, overhead)
  // combination fails before the sweep, not inside a worker thread.
  for (std::size_t v = 0; v < result.variants.size(); ++v)
    for (std::size_t o = 0; o < result.overheads.size(); ++o)
      config_for(v, o).validate();

  sweep_points(
      points, options,
      [&](std::size_t c, double p, double q, std::uint32_t,
          std::uint64_t seed) {
        // One reusable trial workspace per worker thread: every member is
        // re-initialised per trial, so results stay bit-identical to the
        // workspace-free path while the inner loop stops allocating.
        thread_local StreamTrialWorkspace ws;
        for (std::size_t v = 0; v < result.variants.size(); ++v) {
          for (std::size_t o = 0; o < result.overheads.size(); ++o) {
            const StreamTrialConfig cfg = config_for(v, o);
            GilbertModel channel(p, q);
            const StreamTrialResult r =
                run_stream_trial(cfg, channel, derive_seed(seed, {v, o}), ws);
            result
                .stats[(c * result.variants.size() + v) *
                           result.overheads.size() +
                       o]
                .add(r, cfg.source_count);
          }
        }
      });
  return result;
}

}  // namespace fecsched
