// Workload definitions and output checks for the end-to-end benchmark.
//
// A workload is one committed ScenarioSpec (specs/<name>.json) that the
// benchmark runs through api::run_scenario, the entry point the CLI uses.
// The spec's own seed is the reference seed: the benchmark runs it once
// per process and compares the result's digest with a pinned value, so a
// change that alters any simulated outcome shows as an error.  Timed
// repetitions use seeds derived from the --seed argument; their results
// are checked against invariants only.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/scenario.h"
#include "sim/experiment.h"

namespace e2e {

using fecsched::api::ScenarioResult;
using fecsched::api::ScenarioSpec;

/// The four workload names, in BENCHMARK.json order.
inline const std::vector<std::string> kWorkloads = {
    "grid-fig8", "stream-mix", "mpath-mix", "net-rse-udp"};

/// Per-variant metric names for stream/mpath trial times, in the engine's
/// default-variant order.
inline const std::vector<std::string> kStreamVariantNames = {
    "sliding-window", "block-rse-sequential", "block-rse-interleaved", "ldgm",
    "replication"};
inline const std::vector<std::string> kMpathSchedulerNames = {
    "round-robin", "weighted", "split", "earliest-arrival"};

/// Read specs/<workload>.json (throws on unknown workloads or bad specs).
/// The smoke scale shrinks trial counts and object size so the
/// benchmark's own tests finish in seconds.
[[nodiscard]] ScenarioSpec load_spec(const std::string& spec_dir,
                                     const std::string& workload, bool smoke);

/// Validate the spec and resolve it into its engine config, as
/// run_scenario does first (throws std::invalid_argument).
void resolve(const ScenarioSpec& spec);

/// Everything that must exist before the first trial runs: GF dispatch,
/// resolution and, for the grid engine, the Experiment with its LDGM
/// graphs (returned; the other engines build nothing up front).
[[nodiscard]] std::optional<fecsched::Experiment> set_up(
    const ScenarioSpec& spec);

/// Output-check tally: trials attempted and trials whose check failed,
/// with one line per distinct problem.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  /// Count `trials` as attempted, and as failed unless `problem` is "".
  void record(std::uint64_t trials, const std::string& problem);
  [[nodiscard]] double error_rate() const {
    return attempted ? static_cast<double>(failed) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
};

/// The deterministic content of a result that the digest covers.  The
/// traced replay rebuilds it from per-trial results, so equal digests
/// prove the replay did the engine's work.
struct StreamTotals {
  std::uint32_t trials = 0;
  std::uint64_t delivered = 0;
  std::uint64_t lost = 0;
  std::uint64_t residual_runs = 0;
  std::uint64_t residual_max_run = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_received = 0;
  std::vector<double> delays;  ///< sorted ascending
};

/// The first violated stream invariant of `t`, or "" when all hold:
/// trials as specified, delivered + lost = sources x trials,
/// received <= sent, one delay per delivered source.
[[nodiscard]] std::string stream_problem(const StreamTotals& t,
                                         const ScenarioSpec& spec);

/// The first violated wire invariant of a net run, or "" when all hold:
/// every trial matches its simulation twin, no payload mismatch, no
/// rejected frame, and no datagram lost beyond the emulated channel.
[[nodiscard]] std::string net_problem(const fecsched::api::NetRunStats& n,
                                      const StreamTotals& t);

/// Work and checks of one run_scenario result.
struct Assessment {
  std::uint64_t packets = 0;  ///< channel packets (net: data datagrams sent)
  std::uint64_t trials = 0;
};

/// Count the work in `r` and check its invariants at any seed:
/// n_needed <= n_received <= n_sent (grid, as cell bounds),
/// delivered + lost = sources x trials, received <= sent, and for the net
/// engine zero parity failures, payload mismatches and rejected frames.
[[nodiscard]] Assessment assess(const ScenarioSpec& spec,
                                const ScenarioResult& r, Checks& checks);

/// FNV-1a digest of the result's deterministic content.
[[nodiscard]] std::uint64_t digest(const ScenarioResult& r);
[[nodiscard]] std::uint64_t digest_grid(
    const std::vector<fecsched::CellResult>& cells);
[[nodiscard]] std::uint64_t digest_streams(
    const std::vector<StreamTotals>& totals,
    const std::optional<fecsched::api::NetRunStats>& net);

/// The pinned digest of a workload's reference run (spec seed).
[[nodiscard]] std::optional<std::uint64_t> reference_digest(
    const std::string& workload, bool smoke);

}  // namespace e2e
