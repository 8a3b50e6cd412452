// The benchmark's traced run: per-layer costs timed from outside the
// library, by spans around the benchmark's own calls into each layer's
// public functions (see trace.h).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace e2e {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Cost of one steady_clock read (ns), from a batched loop.
[[nodiscard]] double clock_read_ns();

/// Alternate untraced run_scenario repetitions with traced replays of the
/// same trials for about `seconds`, then probe the layer ceilings and the
/// workload's own layers.  Returns every per-layer metric; layers this
/// workload does not exercise read 0.  A replay whose digest differs from
/// its run_scenario twin, or a failed per-trial check, is counted in
/// `checks`.
[[nodiscard]] Metrics run_traced(const ScenarioSpec& spec, std::uint64_t seed,
                                 double seconds, Checks& checks, Trace& trace);

}  // namespace e2e
