// bench_obs_overhead: price the observability layer (src/obs/).
//
// Five variants of the same grid-trial workload — identical schedules,
// channel seeds and tracker — replayed at one Gilbert point, all through
// the trial loop Experiment::run_once dispatches to (run_trial_with over
// the concrete LdgmTracker and GilbertModel):
//
//   baseline   run_trial_with called without a hook: no TrialScope, no
//              Hook (the loop with observation compiled out)
//   disabled   the product per-trial path with no session armed:
//              TrialScope + dormant Hook handed to run_trial_with, which
//              branches on engaged() into the same compiled-out loop (what
//              every un-flagged run pays; the difference is what remains
//              of hook dispatch)
//   enabled    a metrics session armed: TrialScope + engaged Hook, so
//              run_trial_with runs its observed loop (what --metrics costs)
//   timeline   metrics + profiling + span-ring session (what
//              --timeline-out costs: every phase/trial pushes a span)
//   counters   metrics + profiling + perf-group session (what --counters
//              costs: a counter-group read around every phase; on hosts
//              without perf_event_open the read degrades to the stub)
//
// Each variant is priced against the baseline in paired samples of about
// 3 ms each, timed back to back in ABBA order (baseline, variant, variant,
// baseline).  A pair's ratio is (B1 + B2) / (A1 + A2), and a variant's
// overhead is the median of its pair ratios minus one.  Host-speed drift
// slower than a pair cancels within the pair, so the gate measures the
// code, not the host.  Baseline and disabled run the same machine code for
// the loop itself: two different copies of the loop were seen to differ
// by up to +-13% for stretches of a second on a shared host, far beyond
// the bound.  All variants must produce bit-identical TrialResults —
// observation never changes a result.
//
//   --check       exit 1 unless disabled-vs-baseline overhead < 2%
//   --k, --trials, --seed as in bench_common.h (one cell, not a grid)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "bench_common.h"
#include "channel/gilbert.h"
#include "fec/ldgm.h"
#include "obs/obs.h"
#include "sched/tx_models.h"
#include "sim/trial.h"
#include "util/rng.h"

namespace {

using namespace fecsched;

constexpr double kP = 0.01;
constexpr double kQ = 0.5;
constexpr double kSampleNs = 3e6;  // target length of one timed sample
constexpr int kGatePairs = 151;    // ABBA pairs behind the disabled gate
constexpr int kRowPairs = 15;      // ABBA pairs behind each enabled row

using Clock = std::chrono::steady_clock;

struct Workload {
  std::vector<std::vector<PacketId>> schedules;  // one per trial
  std::vector<std::uint64_t> channel_seeds;
  std::optional<LdgmTracker> tracker;  // reset() per trial
  std::uint32_t k = 0;
};

enum class Mode { kBaseline, kProduct };

std::vector<TrialResult> replay(Workload& w, Mode mode) {
  std::vector<TrialResult> results;
  results.reserve(w.schedules.size());
  for (std::size_t t = 0; t < w.schedules.size(); ++t) {
    w.tracker->reset();
    GilbertModel channel(kP, kQ);
    channel.reset(w.channel_seeds[t]);
    if (mode == Mode::kBaseline) {
      results.push_back(run_trial_with(*w.tracker, w.schedules[t], channel));
    } else {
      // Product per-trial path (sim/grid.cc + Experiment::run_once).
      const obs::TrialScope scope(t);
      const obs::Hook hook;
      results.push_back(
          run_trial_with(*w.tracker, w.schedules[t], channel, &hook, w.k));
    }
  }
  return results;
}

/// One timed sample: `reps` replays, returns ns per trial.
double sample(Workload& w, Mode mode, std::uint32_t reps) {
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t r = 0; r < reps; ++r) {
    const std::vector<TrialResult> results = replay(w, mode);
    if (results.empty()) std::abort();  // keep the optimizer honest
  }
  const double ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
  return ns / (static_cast<double>(reps) *
               static_cast<double>(w.schedules.size()));
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// A variant priced against the baseline over ABBA pairs.
struct Priced {
  double base_ns = 0.0;  ///< median baseline sample, ns/trial
  double ns = 0.0;       ///< median variant sample, ns/trial
  double overhead = 0.0;  ///< median pair ratio - 1
};

/// `session` is an obs::Config to arm around the variant's samples, or
/// nullopt for the dormant product path.
Priced price(Workload& w, std::uint32_t reps, int pairs,
             const std::optional<obs::Config>& session) {
  const auto variant = [&] {
    if (!session) return sample(w, Mode::kProduct, reps);
    const obs::Session armed(*session);
    return sample(w, Mode::kProduct, reps);
  };
  std::vector<double> base, var, ratio;
  for (int i = 0; i < pairs; ++i) {
    const double a1 = sample(w, Mode::kBaseline, reps);
    const double b1 = variant();
    const double b2 = variant();
    const double a2 = sample(w, Mode::kBaseline, reps);
    base.push_back(a1);
    base.push_back(a2);
    var.push_back(b1);
    var.push_back(b2);
    ratio.push_back((b1 + b2) / (a1 + a2));
  }
  return {median(base), median(var), median(ratio) - 1.0};
}

bool same_results(const std::vector<TrialResult>& a,
                  const std::vector<TrialResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].decoded != b[i].decoded || a[i].n_needed != b[i].n_needed ||
        a[i].n_received != b[i].n_received || a[i].n_sent != b[i].n_sent ||
        a[i].peak_memory_symbols != b[i].peak_memory_symbols)
      return false;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const auto bench_t0 = Clock::now();
  const bench::Scale scale = bench::parse_scale(argc, argv);
  bool check = false;
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--check") check = true;

  // One LDGM Staircase graph at ratio 1.5, Tx_model_4 schedules.
  LdgmParams params;
  params.k = scale.paper ? 4000 : scale.k;
  params.n = static_cast<std::uint32_t>(std::llround(1.5 * params.k));
  params.variant = LdgmVariant::kStaircase;
  params.seed = derive_seed(scale.seed, {3});
  const auto code = std::make_shared<const LdgmCode>(params);

  Workload w;
  w.k = params.k;
  for (std::uint32_t t = 0; t < scale.trials; ++t) {
    const std::uint64_t seed = derive_seed(scale.seed, {0, t});
    Rng sched_rng(derive_seed(seed, {1}));
    w.schedules.push_back(
        make_schedule(*code, TxModel::kTx4AllRandom, sched_rng));
    w.channel_seeds.push_back(derive_seed(seed, {2}));
  }
  w.tracker.emplace(code);

  const obs::Config metrics_cfg{.metrics = true};
  const obs::Config timeline_cfg{.metrics = true, .profile = true,
                                 .timeline = true};
  const obs::Config counters_cfg{.metrics = true, .profile = true,
                                 .counters = true};

  // Observation must never change a result: compare all five variants
  // trial by trial before timing anything.
  const std::vector<TrialResult> expect = replay(w, Mode::kBaseline);
  bool identical = same_results(expect, replay(w, Mode::kProduct));
  for (const obs::Config& cfg : {metrics_cfg, timeline_cfg, counters_cfg}) {
    const obs::Session session(cfg);
    identical = identical && same_results(expect, replay(w, Mode::kProduct));
  }
  if (!identical) {
    std::cout << "FAIL: TrialResults differ across obs modes\n";
    return 1;
  }

  // Calibrate the sample length to about kSampleNs.
  const double probe_ns = sample(w, Mode::kBaseline, 1) *
                          static_cast<double>(w.schedules.size());
  const auto reps = static_cast<std::uint32_t>(
      std::max(1.0, kSampleNs / std::max(probe_ns, 1.0)));

  const Priced off = price(w, reps, kGatePairs, std::nullopt);
  const Priced on = price(w, reps, kRowPairs, metrics_cfg);
  const Priced tl = price(w, reps, kRowPairs, timeline_cfg);
  const Priced ctr = price(w, reps, kRowPairs, counters_cfg);
  const double base = off.base_ns;

  std::cout << "obs overhead @ (p=" << kP << ", q=" << kQ << "), k=" << w.k
            << ", " << scale.trials << " trials/sample, " << reps
            << " reps/sample, ABBA pairs: " << kGatePairs << " (disabled), "
            << kRowPairs << " (enabled rows)\n";
  std::cout << "  baseline (no-hook loop):   " << base << " ns/trial\n";
  std::cout << "  obs disabled (product):    " << off.ns << " ns/trial  ("
            << off.overhead * 100.0 << "% vs baseline)\n";
  std::cout << "  obs enabled (--metrics):   " << on.ns << " ns/trial  ("
            << on.overhead * 100.0 << "% vs baseline)\n";
  std::cout << "  obs enabled (timeline):    " << tl.ns << " ns/trial  ("
            << tl.overhead * 100.0 << "% vs baseline)\n";
  std::cout << "  obs enabled (counters):    " << ctr.ns << " ns/trial  ("
            << ctr.overhead * 100.0 << "% vs baseline)\n";

  api::Json extra = api::Json::object();
  const auto put = [&](const char* key, double v) {
    extra.set(key, api::Json::number_token(std::to_string(v)));
  };
  put("baseline_ns_per_trial", base);
  put("disabled_ns_per_trial", off.ns);
  put("enabled_ns_per_trial", on.ns);
  put("disabled_overhead", off.overhead);
  put("enabled_overhead", on.overhead);
  put("timeline_ns_per_trial", tl.ns);
  put("timeline_overhead", tl.overhead);
  put("counters_ns_per_trial", ctr.ns);
  put("counters_overhead", ctr.overhead);
  bench::append_bench_record(
      scale, "obs_overhead", /*threads=*/1,
      std::chrono::duration<double>(Clock::now() - bench_t0).count(),
      std::move(extra));

  if (check) {
    // The dormant-cost gate: with the timeline and counter collectors
    // compiled in, un-flagged runs must still pay < 2% over the loop with
    // observation compiled out.  The enabled rows just have to be
    // measurable.
    if (off.overhead >= 0.02) {
      std::cout << "CHECK FAIL: disabled-mode overhead "
                << off.overhead * 100.0 << "% >= 2%\n";
      return 1;
    }
    if (!(tl.ns > 0.0) || !(ctr.ns > 0.0)) {
      std::cout << "CHECK FAIL: timeline/counters rows not measured\n";
      return 1;
    }
    std::cout << "CHECK OK: disabled-mode overhead " << off.overhead * 100.0
              << "% < 2% (timeline " << tl.overhead * 100.0 << "%, counters "
              << ctr.overhead * 100.0 << "% when enabled)\n";
  }
  return 0;
}
