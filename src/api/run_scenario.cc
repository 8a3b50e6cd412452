// run_scenario / run_scenario_sweep: the registry-driven dispatch from a
// declarative ScenarioSpec onto the four experiment engines.
//
// Bit-identity is the design constraint: each engine loop below consumes
// the exact Rng streams and seed derivations the legacy surface it
// replaced used (fecsched_cli subcommand loops, run_stream_delay_grid,
// run_mpath_sweep, run_adaptive_compare, Experiment::run), so a spec
// that mirrors a legacy call reproduces its result exactly.  Oracle
// tests in tests/api_test.cc and the pinned-output gate in tools/ci.sh
// hold this line.

#include "api/scenario.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>

#include "adapt/controller.h"
#include "api/json.h"
#include "gf/gf256_kernels.h"
#include "mpath/path_adapt.h"
#include "obs/memwatch.h"
#include "obs/timeline.h"
#include "util/durable_io.h"
#include "util/interrupt.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/watchdog.h"

namespace fecsched::api {

void DelayOutcome::add(const StreamTrialResult& r) {
  delays.insert(delays.end(), r.delays.begin(), r.delays.end());
  delivered += r.delay.delivered;
  lost += r.residual.lost;
  residual_runs += r.residual.runs;
  residual_max_run = std::max(residual_max_run, r.residual.max_run_length);
  const auto n = static_cast<double>(r.delay.delivered);
  delay_sum += r.delay.mean * n;
  transport_sum += r.delay.mean_transport * n;
  hol_sum += r.delay.mean_hol * n;
  overhead_actual_sum += r.overhead_actual;
  packets_sent += r.packets_sent;
  packets_received += r.packets_received;
  ++trials;
}

void DelayOutcome::finish() { std::sort(delays.begin(), delays.end()); }

void MpathOutcome::add(const MpathTrialResult& r) {
  DelayOutcome::add(r.stream);
  reordered_fraction_sum += r.reordered_fraction;
  if (paths.empty()) {
    paths = r.paths;
    return;
  }
  for (std::size_t i = 0; i < r.paths.size(); ++i) {
    paths[i].sent += r.paths[i].sent;
    paths[i].lost += r.paths[i].lost;
    paths[i].mean_queue_wait += r.paths[i].mean_queue_wait;
    paths[i].mean_transit += r.paths[i].mean_transit;
  }
}

void MpathOutcome::finish() {
  DelayOutcome::finish();
  for (PathStats& path : paths) {
    path.mean_queue_wait /= static_cast<double>(trials);
    path.mean_transit /= static_cast<double>(trials);
  }
}

namespace {

// -------------------------------------------------------- observability

obs::RunManifest make_manifest(const ScenarioSpec& spec, double wall_seconds,
                               const std::string& started_at) {
  obs::RunManifest m;
  m.fingerprint = scenario_fingerprint(spec);
  m.version = std::string(kVersion);
  m.gf_backend = std::string(gf::to_string(gf::current_backend()));
  m.engine = spec.engine;
  m.threads = spec.run.threads;
  m.hardware_threads = std::thread::hardware_concurrency();
  m.wall_seconds = wall_seconds;
  m.started_at = started_at;
  m.hostname = obs::local_hostname();
  m.max_rss_kb = obs::max_rss_kb();
  // A drained run (SIGINT/SIGTERM arrived, engines wound down cleanly) is
  // marked so ledger readers never mistake its partial result for a
  // completed baseline.
  if (interrupt::interrupted()) m.status = "interrupted";
  return m;
}

/// Reject RunControl combinations an engine cannot honour faithfully —
/// better a loud error than a knob that silently changes semantics.
void validate_control(const ScenarioSpec& spec, const RunControl& control,
                      bool sweeping) {
  if (control.checkpoint.enabled() && spec.engine != "grid")
    throw std::invalid_argument(
        "checkpoint: only the grid engine persists per-cell shards (engine "
        "'" +
        spec.engine + "' has no cell decomposition to checkpoint)");
  if (control.trial_timeout_ms != 0) {
    if (spec.engine == "adaptive")
      throw std::invalid_argument(
          "trial-timeout: the adaptive engine runs closed-loop object "
          "sequences, not independent trials — a per-trial watchdog is "
          "unsupported");
    if (sweeping && spec.engine != "grid")
      throw std::invalid_argument(
          "trial-timeout: the " + spec.engine +
          " axis sweep has no per-cell timeout status — dropping a trial "
          "would silently corrupt its aggregates (grid sweeps and "
          "single-point runs only)");
  }
}

/// Validate, run `engine` inside an observation session, then fill the
/// manifest, merge the session's observations (when armed) and write the
/// trace/timeline files — the shared frame of run_scenario and
/// run_scenario_sweep.  `engine` returns once every worker joined.
template <class Result, class Engine>
Result observed_run(const ScenarioSpec& spec, const RunControl& control,
                    bool sweeping, Engine&& engine) {
  spec.validate();
  validate_control(spec, control, sweeping);
  const auto t0 = std::chrono::steady_clock::now();
  const std::string started_at =
      obs::iso8601_utc(std::chrono::system_clock::now());
  obs::Session session(spec.obs.config());
  Result result = engine();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  result.manifest = make_manifest(spec, wall, started_at);
  if (!session.active()) return result;
  obs::Report report = session.finish();
  if (!spec.obs.trace.empty())
    obs::write_trace_file(
        spec.obs.trace,
        obs::manifest_to_trace_line(result.manifest, spec.obs.trace_sample),
        report.events, report.metrics);
  if (!spec.obs.timeline.empty())
    obs::write_timeline_file(spec.obs.timeline, result.manifest, report);
  result.obs = std::move(report);
  return result;
}

/// The run provenance every engine's result starts from.
ScenarioResult result_header(const ScenarioSpec& spec) {
  ScenarioResult result;
  result.engine = spec.engine;
  const ChannelPoint pt = spec.channel.point();
  result.p = pt.p;
  result.q = pt.q;
  result.trials = spec.run.trials;
  result.seed = spec.run.seed;
  return result;
}

GridRunOptions to_grid_options(const ScenarioSpec& spec,
                               const RunControl& control) {
  GridRunOptions opt;
  opt.trials_per_cell = spec.run.trials;
  opt.master_seed = spec.run.seed;
  opt.threads = spec.run.threads;
  opt.trial_timeout_ms = control.trial_timeout_ms;
  return opt;
}

// ---------------------------------------------------------------- grid

/// The grid engines' one sweep call: plain Experiment::run, or the
/// checkpointed driver when a shard directory is configured.  Both paths
/// share run_grid's seeds and accumulation, so the choice never changes a
/// digit of the result.
GridResult run_grid_result(const ScenarioSpec& spec, const RunControl& control,
                           const Experiment& experiment) {
  const GridRunOptions options = to_grid_options(spec, control);
  if (!control.checkpoint.enabled())
    return experiment.run(to_grid_spec(spec), options);
  return run_grid_checkpointed(to_grid_spec(spec), experiment.k(),
                               experiment.trial_fn(), options,
                               control.checkpoint,
                               scenario_fingerprint(spec));
}

ScenarioResult run_grid_engine(const ScenarioSpec& spec,
                               const RunControl& control) {
  ScenarioResult result = result_header(spec);

  const ExperimentConfig cfg = to_experiment_config(spec);
  const Experiment experiment(cfg);
  result.grid_config = cfg;
  result.grid_n_total = experiment.n_total();
  result.grid = run_grid_result(spec, control, experiment);

  RunningStats inefficiency;
  RunningStats received;
  std::uint32_t peak_memory = 0;
  for (const CellResult& cell : result.grid->cells) {
    if (cell.reportable()) inefficiency.add(cell.inefficiency.mean());
    if (cell.trials > 0) received.add(cell.received_ratio.mean());
    peak_memory = std::max(peak_memory, cell.peak_memory_symbols);
  }
  if (inefficiency.count() > 0)
    result.summary.inefficiency = inefficiency.mean();
  if (received.count() > 0) result.summary.received_ratio = received.mean();
  result.summary.sent_ratio =
      static_cast<double>(experiment.n_total()) / static_cast<double>(cfg.k);
  result.summary.peak_memory_symbols = peak_memory;
  return result;
}

// ------------------------------------------- stream, net and mpath

/// The single-point stream/net/mpath engines merge every trial's full
/// delay distribution (the CLI's histogram output), so they carry the
/// CLI's historical memory guard — and they cannot honour axis sweep
/// lists, so a populated sweep section is an error here, not a silent
/// no-op.
void check_single_point_spec(const ScenarioSpec& spec) {
  if (!spec.sweep.empty())
    throw std::invalid_argument(
        "spec: sweep axes are set but engine '" + spec.engine +
        "' runs a single point under run_scenario — use "
        "run_scenario_sweep (there is no CLI sweep surface for this "
        "engine yet; drop the \"sweep\" section to run one point)");
  if (static_cast<std::uint64_t>(spec.run.sources) * spec.run.trials >
      20000000)
    throw std::invalid_argument(
        "--sources x --trials must not exceed 20000000 (the full delay "
        "distribution is held in memory)");
}

/// The one (variant x trial) loop of the stream, net and mpath engines.
/// Trial t of variant v runs under trial ordinal v·trials + t and the
/// per-trial watchdog; `fold(outcome, v, seed, t)` runs it with seed
/// derive_seed(run.seed, {v, t}) and folds it into `outcome`.  Serial,
/// but visible to a --progress meter (one tick per trial); an interrupt
/// stops it at the next trial boundary.
template <class Outcome, class Variant, class Fold>
std::vector<Outcome> run_variant_trials(const ScenarioSpec& spec,
                                        const RunControl& control,
                                        const std::vector<Variant>& variants,
                                        Fold&& fold) {
  const std::uint32_t trials = spec.run.trials;
  ParallelObserver* const progress = parallel_observer();
  if (progress != nullptr) progress->on_batch(variants.size() * trials);
  std::vector<Outcome> outcomes;
  outcomes.reserve(variants.size());
  for (std::size_t v = 0; v < variants.size(); ++v) {
    if (interrupt::interrupted()) break;
    Outcome& outcome = outcomes.emplace_back();
    outcome.variant = variants[v];
    // At most one delay per source per trial: reserving the bound spares
    // the pooled vector its doubling slack and grow-copies.
    outcome.delays.reserve(std::size_t{trials} * spec.run.sources);
    for (std::uint32_t t = 0; t < trials; ++t) {
      if (interrupt::interrupted()) break;
      const obs::TrialScope trial_scope(v * trials + t);
      const watchdog::TrialGuard deadline(control.trial_timeout_ms);
      fold(outcome, v, derive_seed(spec.run.seed, {v, t}), t);
      if (progress != nullptr) progress->on_item_done();
    }
    outcome.finish();
  }
  return outcomes;
}

/// The headline summary of an engine's first outcome.  An interrupt can
/// drain the run before any trial completes; a summary over nothing
/// stays empty (the CLI does not print interrupted results anyway).
void fill_delay_summary(ScenarioSummary& summary, const DelayOutcome& o,
                        std::uint32_t source_count) {
  if (o.trials == 0) return;
  summary.delay_mean = o.mean();
  summary.delay_p50 = sorted_percentile(o.delays, 0.50);
  summary.delay_p95 = sorted_percentile(o.delays, 0.95);
  summary.delay_p99 = sorted_percentile(o.delays, 0.99);
  summary.delay_max = o.delays.empty() ? 0.0 : o.delays.back();
  summary.residual_mean_run = o.mean_residual_run();
  summary.residual_max_run = o.residual_max_run;
  summary.lost_fraction =
      o.delivered + o.lost ? static_cast<double>(o.lost) /
                                 static_cast<double>(o.delivered + o.lost)
                           : 0.0;
  const double produced = static_cast<double>(source_count) * o.trials;
  if (produced > 0.0) {
    summary.sent_ratio = static_cast<double>(o.packets_sent) / produced;
    summary.received_ratio =
        static_cast<double>(o.packets_received) / produced;
  }
}

std::vector<StreamVariant> stream_variants(const ScenarioSpec& spec) {
  if (spec.code.name.empty()) return StreamGridConfig::default_variants();
  const StreamScheme scheme = registry().stream_scheme(spec.code.name);
  const StreamScheduling sched = registry().stream_scheduling(spec.tx.stream);
  return {{std::string(to_string(scheme)), scheme, sched}};
}

/// A fresh model of the spec's channel point (one per trial).
std::unique_ptr<LossModel> new_channel(const ScenarioSpec& spec) {
  const ChannelPoint pt = spec.channel.point();
  return registry().make_channel(spec.channel.model, {pt.p, pt.q});
}

ScenarioResult run_stream_engine(const ScenarioSpec& spec,
                                 const RunControl& control) {
  check_single_point_spec(spec);
  ScenarioResult result = result_header(spec);
  const StreamTrialConfig base = to_stream_config(spec);
  result.stream_base = base;
  const std::vector<StreamVariant> variants = stream_variants(spec);
  // Validate every variant before running any trial.
  std::vector<StreamTrialConfig> configs(variants.size(), base);
  for (std::size_t v = 0; v < variants.size(); ++v) {
    configs[v].scheme = variants[v].scheme;
    configs[v].scheduling = variants[v].scheduling;
    configs[v].validate();
  }
  result.stream = run_variant_trials<StreamOutcome>(
      spec, control, variants,
      [&](StreamOutcome& outcome, std::size_t v, std::uint64_t seed,
          std::uint32_t) {
        outcome.add(run_stream_trial(configs[v], *new_channel(spec), seed));
      });
  if (!result.stream.empty())
    fill_delay_summary(result.summary, result.stream.front(),
                       base.source_count);
  return result;
}

/// The wire twin of run_stream_engine: one variant, but every trial
/// crosses a real transport via run_net_trial.  When spec.net.parity is
/// on (the default), each trial is re-run through run_stream_trial with
/// the same seed and a fresh channel, and any divergence in the
/// delivered-delay distribution is counted — the sim-vs-wire parity
/// contract is tolerance ZERO.
ScenarioResult run_net_engine(const ScenarioSpec& spec,
                              const RunControl& control) {
  check_single_point_spec(spec);
  ScenarioResult result = result_header(spec);
  const net::NetTrialConfig base = to_net_config(spec);
  base.validate();
  result.net_base = base;
  result.stream_base = base.stream;
  NetRunStats stats;
  Json dump_trials = Json::array();

  const std::vector<StreamVariant> variants = {
      {std::string(to_string(base.stream.scheme)), base.stream.scheme,
       base.stream.scheduling}};
  result.stream = run_variant_trials<StreamOutcome>(
      spec, control, variants,
      [&](StreamOutcome& outcome, std::size_t, std::uint64_t seed,
          std::uint32_t t) {
        const net::NetTrialResult r =
            net::run_net_trial(base, *new_channel(spec), seed,
                               /*object_id=*/t);
        const StreamTrialResult& sr = r.stream;
        outcome.add(sr);

        stats.datagrams_sent += r.datagrams_sent;
        stats.datagrams_dropped += r.datagrams_dropped;
        stats.bytes_sent += r.bytes_sent;
        stats.sources_verified += r.sources_verified;
        stats.payload_mismatches += r.payload_mismatches;
        stats.frames_rejected += r.frames_rejected;
        stats.reports_received += r.reports_received;
        stats.estimate = r.estimate;

        if (spec.net.parity) {
          // The twin consumes the exact channel substream the wire run
          // drew (fresh model, same seed), so every field must match.
          const StreamTrialResult sim =
              run_stream_trial(base.stream, *new_channel(spec), seed);
          ++stats.parity_trials;
          const bool equal = sim.delays == sr.delays &&
                             sim.delay.delivered == sr.delay.delivered &&
                             sim.residual.lost == sr.residual.lost &&
                             sim.packets_sent == sr.packets_sent &&
                             sim.packets_received == sr.packets_received &&
                             sim.all_delivered == sr.all_delivered;
          if (!equal) ++stats.parity_failures;
        }

        if (!spec.net.dump.empty()) {
          Json entry = Json::object();
          entry.set("trial", Json::integer(t));
          entry.set("seed", Json::integer(seed));
          entry.set("datagrams_sent", Json::integer(r.datagrams_sent));
          entry.set("datagrams_dropped", Json::integer(r.datagrams_dropped));
          entry.set("bytes_sent", Json::integer(r.bytes_sent));
          entry.set("sources_verified", Json::integer(r.sources_verified));
          entry.set("payload_mismatches",
                    Json::integer(r.payload_mismatches));
          entry.set("frames_rejected", Json::integer(r.frames_rejected));
          entry.set("reports_received", Json::integer(r.reports_received));
          entry.set("residual_lost", Json::integer(sr.residual.lost));
          entry.set("all_delivered", Json(sr.all_delivered));
          dump_trials.push_back(std::move(entry));
        }
      });
  result.net = stats;
  if (!result.stream.empty())
    fill_delay_summary(result.summary, result.stream.front(),
                       base.stream.source_count);

  if (!spec.net.dump.empty()) {
    // Through durable::write_file, so the artifact rides the same
    // atomic-rename discipline (and "durable.write" fault point) as every
    // other whole-file artifact.
    Json root = Json::object();
    root.set("engine", Json(std::string("net")));
    root.set("transport", Json(base.transport));
    root.set("fingerprint", Json(scenario_fingerprint(spec)));
    root.set("trials", std::move(dump_trials));
    durable::write_file(spec.net.dump, root.dump(2));
  }
  return result;
}

std::vector<MpathVariant> mpath_variants(const ScenarioSpec& spec) {
  if (spec.paths.scheduler.empty()) return MpathSweepConfig::default_variants();
  const PathScheduling mode = registry().path_scheduler(spec.paths.scheduler);
  return {{std::string(to_string(mode)), mode}};
}

ScenarioResult run_mpath_engine(const ScenarioSpec& spec,
                                const RunControl& control) {
  check_single_point_spec(spec);
  ScenarioResult result = result_header(spec);
  MpathTrialConfig base = to_mpath_config(spec);
  if (base.paths.empty())
    throw std::invalid_argument("mpath scenario needs at least one path");
  const std::vector<MpathVariant> variants = mpath_variants(spec);
  for (const MpathVariant& v : variants) {
    MpathTrialConfig cfg = base;
    cfg.scheduler = v.scheduler;
    cfg.validate();
  }

  if (spec.adapt.enabled) {
    // Warm up a PathAdapter on round-robin probe trials (every path sees
    // traffic), then let src/adapt/ pick repair weights and the window.
    ParallelObserver* const progress = parallel_observer();
    if (progress != nullptr) progress->on_batch(spec.adapt.warmup);
    PathAdapter adapter(base.paths.size());
    MpathTrialConfig probe = base;
    probe.scheduler = PathScheduling::kRoundRobin;
    for (std::uint32_t t = 0; t < spec.adapt.warmup; ++t) {
      if (interrupt::interrupted()) break;
      // Warm-up trial ordinals continue past the variant trials so trace
      // events from probes are distinguishable from measured trials.
      const obs::TrialScope trial_scope(
          static_cast<std::uint64_t>(variants.size()) * spec.run.trials + t);
      const watchdog::TrialGuard deadline(control.trial_timeout_ms);
      adapter.observe(
          run_mpath_trial(probe, derive_seed(spec.run.seed, {99, t})));
      if (progress != nullptr) progress->on_item_done();
    }
    AdaptiveController controller;
    adapter.apply(base, controller);
    if (obs::Observer* o = obs::current(); o != nullptr)
      o->instant("adapt.apply");
    result.mpath_estimates = adapter.estimates();
    result.mpath_warmup = spec.adapt.warmup;
  }

  // The variant configs take the post-adaptation base.
  std::vector<MpathTrialConfig> configs(variants.size(), base);
  for (std::size_t v = 0; v < variants.size(); ++v)
    configs[v].scheduler = variants[v].scheduler;
  result.mpath = run_variant_trials<MpathOutcome>(
      spec, control, variants,
      [&](MpathOutcome& outcome, std::size_t v, std::uint64_t seed,
          std::uint32_t) { outcome.add(run_mpath_trial(configs[v], seed)); });
  result.mpath_base = std::move(base);
  if (!result.mpath.empty())
    fill_delay_summary(result.summary, result.mpath.front(),
                       result.mpath_base->stream.source_count);
  return result;
}

// ------------------------------------------------------------ adaptive

std::vector<std::pair<double, double>> adaptive_points(
    const ScenarioSpec& spec) {
  if (!spec.sweep.p_globals.empty() || !spec.sweep.bursts.empty()) {
    if (spec.sweep.p_globals.empty() || spec.sweep.bursts.empty())
      throw std::invalid_argument(
          "spec: sweep.p_global and sweep.burst must both be given");
    return burst_grid(spec.sweep.p_globals, spec.sweep.bursts);
  }
  const ChannelPoint pt = spec.channel.point();
  return {{pt.p, pt.q}};
}

ScenarioResult run_adaptive_engine(const ScenarioSpec& spec) {
  ScenarioResult result = result_header(spec);

  AdaptiveCompareConfig cfg = to_adaptive_config(spec);
  cfg.validate();
  result.adaptive = run_adaptive_compare(adaptive_points(spec), cfg);
  result.adaptive_config = std::move(cfg);

  RunningStats steady;
  RunningStats sent_ratio;
  for (const AdaptiveComparePoint& point : result.adaptive) {
    if (point.adaptive_steady.count() > 0)
      steady.add(point.adaptive_steady.mean());
    for (const AdaptiveTrajectoryPoint& step : point.trajectory)
      sent_ratio.add(static_cast<double>(step.n_sent) /
                     static_cast<double>(result.adaptive_config->k));
  }
  if (steady.count() > 0) result.summary.inefficiency = steady.mean();
  if (sent_ratio.count() > 0) result.summary.sent_ratio = sent_ratio.mean();
  return result;
}

ScenarioSweepResult run_scenario_sweep_engines(const ScenarioSpec& spec,
                                               const RunControl& control);

}  // namespace

std::string scenario_fingerprint(const ScenarioSpec& spec) {
  // Hash the spec with the obs section reset to defaults so
  // --metrics/--trace/--ledger never change which baseline a run compares
  // against in the cross-run ledger (or which shards a resume loads).
  ScenarioSpec identity = spec;
  identity.obs = ObsSpec{};
  return obs::spec_fingerprint(identity.to_json());
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  return run_scenario(spec, RunControl{});
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunControl& control) {
  return observed_run<ScenarioResult>(spec, control, /*sweeping=*/false, [&] {
    if (spec.engine == "grid") return run_grid_engine(spec, control);
    if (spec.engine == "stream") return run_stream_engine(spec, control);
    if (spec.engine == "mpath") return run_mpath_engine(spec, control);
    if (spec.engine == "adaptive") return run_adaptive_engine(spec);
    if (spec.engine == "net") return run_net_engine(spec, control);
    throw std::invalid_argument("spec: unknown engine '" + spec.engine + "'");
  });
}

ScenarioSweepResult run_scenario_sweep(const ScenarioSpec& spec) {
  return run_scenario_sweep(spec, RunControl{});
}

ScenarioSweepResult run_scenario_sweep(const ScenarioSpec& spec,
                                       const RunControl& control) {
  return observed_run<ScenarioSweepResult>(
      spec, control, /*sweeping=*/true,
      [&] { return run_scenario_sweep_engines(spec, control); });
}

namespace {

ScenarioSweepResult run_scenario_sweep_engines(const ScenarioSpec& spec,
                                               const RunControl& control) {
  ScenarioSweepResult result;
  result.engine = spec.engine;

  if (spec.engine == "grid") {
    const ExperimentConfig cfg = to_experiment_config(spec);
    const Experiment experiment(cfg);
    result.grid = run_grid_result(spec, control, experiment);
    result.points = grid_points(result.grid->spec);
    return result;
  }

  if (spec.engine == "net")
    throw std::invalid_argument(
        "spec: the net engine runs single loopback points only — axis "
        "sweeps would re-bind sockets per cell for no measurement gain "
        "(drop the sweep section, or sweep the 'stream' twin)");

  result.points = sweep_channel_points(spec);
  const std::vector<double> overheads = spec.sweep.overheads.empty()
                                            ? std::vector<double>{spec.code.overhead}
                                            : spec.sweep.overheads;

  if (spec.engine == "stream") {
    StreamGridConfig cfg;
    cfg.base = to_stream_config(spec);
    cfg.overheads = overheads;
    if (!spec.code.name.empty()) cfg.variants = stream_variants(spec);
    result.stream = run_stream_delay_grid(result.points, cfg,
                                          to_grid_options(spec, control));
    return result;
  }

  if (spec.engine == "mpath") {
    // The axis sweep generates its path topology (count/base_delay +
    // the delay_spread axis) and has no warm-up phase; honouring only
    // part of an explicit-paths or adapt-enabled spec would silently
    // change its semantics, so reject those outright.
    if (spec.adapt.enabled)
      throw std::invalid_argument(
          "spec: adapt.enabled is not supported by the mpath axis sweep "
          "(warm-up adaptation is a single-point feature — drop the sweep "
          "section or adapt.enabled)");
    if (!spec.paths.list.empty())
      throw std::invalid_argument(
          "spec: the mpath axis sweep generates its paths from "
          "paths.count/base_delay/capacity and the delay_spread axis — "
          "explicit paths.list entries would be ignored");
    MpathSweepConfig cfg;
    cfg.base = to_stream_config(spec);
    cfg.overheads = overheads;
    if (!spec.sweep.delay_spreads.empty())
      cfg.delay_spreads = spec.sweep.delay_spreads;
    cfg.base_delay = spec.paths.base_delay;
    cfg.path_count = spec.paths.count;
    cfg.path_capacity = spec.paths.capacity;
    if (!spec.paths.scheduler.empty()) cfg.variants = mpath_variants(spec);
    result.mpath =
        run_mpath_sweep(result.points, cfg, to_grid_options(spec, control));
    return result;
  }

  if (spec.engine == "adaptive") {
    AdaptiveCompareConfig cfg = to_adaptive_config(spec);
    cfg.validate();
    const std::vector<std::pair<double, double>> points =
        adaptive_points(spec);
    result.points.clear();
    for (const auto& [p, q] : points) result.points.push_back({p, q});
    // One worker per channel point; every point is seed-determined, so
    // the result matches a serial run digit for digit.
    std::vector<AdaptiveComparePoint> out(points.size());
    parallel_for_index(points.size(), spec.run.threads, [&](std::size_t i) {
      if (interrupt::interrupted()) return;  // drain: finish nothing new
      out[i] =
          run_adaptive_compare_point(points[i].first, points[i].second, cfg);
    });
    result.adaptive = std::move(out);
    return result;
  }

  throw std::invalid_argument("spec: unknown engine '" + spec.engine + "'");
}

}  // namespace

}  // namespace fecsched::api
