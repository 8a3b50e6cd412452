#include "sim/mpath_sweep.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace fecsched {

std::vector<MpathVariant> MpathSweepConfig::default_variants() {
  return {
      {"round-robin", PathScheduling::kRoundRobin},
      {"weighted", PathScheduling::kWeighted},
      {"split", PathScheduling::kSplit},
      {"earliest-arrival", PathScheduling::kEarliestArrival},
  };
}

std::vector<PathSpec> MpathSweepConfig::make_paths(double p, double q,
                                                   double spread) const {
  std::vector<PathSpec> paths;
  paths.reserve(path_count);
  for (std::uint32_t i = 0; i < path_count; ++i) {
    const double frac =
        path_count > 1
            ? static_cast<double>(i) / static_cast<double>(path_count - 1) -
                  0.5
            : 0.0;
    paths.push_back(PathSpec::gilbert(p, q, base_delay + spread * frac,
                                      path_capacity));
  }
  return paths;
}

MpathSweepResult run_mpath_sweep(std::span<const ChannelPoint> points,
                                 const MpathSweepConfig& config,
                                 const GridRunOptions& options) {
  MpathSweepResult result;
  result.points.assign(points.begin(), points.end());
  result.delay_spreads = config.delay_spreads;
  result.variants = config.variants.empty()
                        ? MpathSweepConfig::default_variants()
                        : config.variants;
  result.overheads = config.overheads;
  result.source_count = config.base.source_count;
  if (result.overheads.empty())
    throw std::invalid_argument(
        "run_mpath_sweep: at least one overhead required");
  if (result.delay_spreads.empty())
    throw std::invalid_argument(
        "run_mpath_sweep: at least one delay spread required");
  if (config.path_count == 0)
    throw std::invalid_argument("run_mpath_sweep: path_count must be >= 1");
  result.stats.resize(points.size() * result.delay_spreads.size() *
                      result.variants.size() * result.overheads.size());

  const auto config_for = [&](double p, double q, std::size_t d,
                              std::size_t v, std::size_t o) {
    MpathTrialConfig cfg;
    cfg.stream = config.base;
    cfg.stream.overhead = result.overheads[o];
    cfg.paths = config.make_paths(p, q, result.delay_spreads[d]);
    cfg.scheduler = result.variants[v].scheduler;
    return cfg;
  };
  // Validate every swept configuration eagerly, before any worker runs.
  for (std::size_t d = 0; d < result.delay_spreads.size(); ++d)
    for (std::size_t v = 0; v < result.variants.size(); ++v)
      for (std::size_t o = 0; o < result.overheads.size(); ++o)
        config_for(0.0, 1.0, d, v, o).validate();

  sweep_points(
      points, options,
      [&](std::size_t c, double p, double q, std::uint32_t,
          std::uint64_t seed) {
        // Per-worker-thread trial workspace (see sim/stream_delay.cc).
        thread_local MpathTrialWorkspace ws;
        for (std::size_t d = 0; d < result.delay_spreads.size(); ++d) {
          for (std::size_t v = 0; v < result.variants.size(); ++v) {
            for (std::size_t o = 0; o < result.overheads.size(); ++o) {
              const MpathTrialConfig cfg = config_for(p, q, d, v, o);
              const MpathTrialResult r =
                  run_mpath_trial(cfg, derive_seed(seed, {d, v, o}), ws);
              MpathPointStats& s = result.stats[
                  ((c * result.delay_spreads.size() + d) *
                       result.variants.size() +
                   v) *
                      result.overheads.size() +
                  o];
              s.stream.add(r.stream, cfg.stream.source_count);
              s.reordered_fraction.add(r.reordered_fraction);
              std::uint64_t best_sent = 0, total_sent = 0;
              std::size_t best = 0;
              for (std::size_t i = 0; i < cfg.paths.size(); ++i)
                if (cfg.paths[i].delay < cfg.paths[best].delay) best = i;
              for (std::size_t i = 0; i < r.paths.size(); ++i) {
                total_sent += r.paths[i].sent;
                if (i == best) best_sent = r.paths[i].sent;
              }
              s.best_path_share.add(
                  total_sent ? static_cast<double>(best_sent) /
                                   static_cast<double>(total_sent)
                             : 0.0);
            }
          }
        }
      });
  return result;
}

}  // namespace fecsched
