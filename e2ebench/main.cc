// e2ebench: one workload of the end-to-end benchmark in one process.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            --specs <dir> [--smoke] [--setup-only] [--ledger <file>]
//            [--spans <file>]
//
// --setup-only   set the workload up (spec parse and validation, GF
//                dispatch, resolution, plan/graph construction), print
//                "ready" and exit.
// --trace 0      time run_scenario repetitions for --seconds, and fresh
//                --setup-only processes spread over that window, and print
//                the end-to-end metrics; append one kind="bench" ledger
//                record.
// --trace 1      the traced run (layers.h): per-layer metrics; spans are
//                written to --spans at exit.
//
// The last line of standard output is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "gf/gf256_kernels.h"
#include "layers.h"
#include "obs/ledger.h"
#include "obs/manifest.h"
#include "obs/memwatch.h"
#include "obs/perfctr.h"
#include "util/rng.h"

namespace {

using namespace e2e;
using fecsched::api::Json;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string specs = "e2ebench/specs";
  bool smoke = false;
  bool setup_only = false;
  std::vector<std::string> argv;  ///< as invoked, for set-up processes
  std::string ledger;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args a;
  a.argv.assign(argv, argv + argc);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() != "0";
    else if (flag == "--specs") a.specs = value();
    else if (flag == "--smoke") a.smoke = true;
    else if (flag == "--setup-only") a.setup_only = true;
    else if (flag == "--ledger") a.ledger = value();
    else if (flag == "--spans") a.spans = value();
    else throw std::invalid_argument("unknown flag " + flag);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void print_host_facts(double clock_ns) {
  const fecsched::obs::PerfGroup pmu;
  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " gf_backend="
            << fecsched::gf::to_string(fecsched::gf::current_backend())
            << " pmu=" << (pmu.available() ? "available" : "unavailable")
            << " (" << pmu.status() << ") clock_read_ns=" << clock_ns << "\n";
}

void print_result(const Checks& checks, const Metrics& metrics) {
  std::cout << "error_rate " << checks.error_rate() << " (" << checks.failed
            << " of " << checks.attempted << " trials failed their check)\n";
  for (const std::string& p : checks.problems)
    std::cout << "check failed: " << p << "\n";
  Json values = Json::object();
  for (const Metric& m : metrics) {
    std::cout << m.name << " " << Json::format_double(m.value) << " " << m.unit
              << "\n";
    Json entry = Json::object();
    entry.set("value", Json(m.value));
    entry.set("unit", Json(m.unit));
    values.set(m.name, std::move(entry));
  }
  Json out = Json::object();
  out.set("correct", Json(checks.failed == 0 && checks.attempted > 0));
  out.set("attempted", Json::integer(checks.attempted));
  out.set("failed", Json::integer(checks.failed));
  out.set("metrics", std::move(values));
  std::cout << out.dump(0) << std::endl;
}

/// One kind="bench" record per workload run, so `fecsched_cli compare`
/// tracks the benchmark: the reference run's digest and trial count are
/// deterministic metrics (any drift is flagged), the median repetition
/// wall is the timing, and the end-to-end metrics ride in `extra`.
void append_ledger(const Args& args, const ScenarioSpec& spec,
                   std::uint64_t ref_digest, std::uint64_t ref_trials,
                   double rep_wall_s, const Checks& checks,
                   const Metrics& metrics) {
  namespace obs = fecsched::obs;
  Json identity = Json::object();
  identity.set("bench", Json("e2e/" + args.workload));
  identity.set("spec", Json(fecsched::api::scenario_fingerprint(spec)));
  identity.set("smoke", Json(args.smoke));

  obs::LedgerRecord record;
  record.kind = "bench";
  record.label = "e2e/" + args.workload;
  record.manifest.fingerprint = obs::spec_fingerprint(identity.dump(0));
  record.manifest.version = std::string(fecsched::api::kVersion);
  record.manifest.gf_backend =
      std::string(fecsched::gf::to_string(fecsched::gf::current_backend()));
  record.manifest.engine = spec.engine;
  record.manifest.threads = spec.run.threads;
  record.manifest.hardware_threads = std::thread::hardware_concurrency();
  record.manifest.wall_seconds = rep_wall_s;
  record.manifest.started_at =
      obs::iso8601_utc(std::chrono::system_clock::now());
  record.manifest.hostname = obs::local_hostname();
  record.manifest.max_rss_kb = obs::max_rss_kb();
  record.metrics.counters = {{"e2e.reference_digest", ref_digest},
                             {"e2e.reference_trials", ref_trials}};
  Json extra = Json::object();
  extra.set("workload", Json(args.workload));
  extra.set("seed", Json::integer(args.seed));
  extra.set("error_rate", Json(checks.error_rate()));
  for (const Metric& m : metrics) extra.set(m.name, Json(m.value));
  record.extra = std::move(extra);
  obs::append_record(args.ledger, record);
}

/// Time from spawning a fresh --setup-only copy of this program to its
/// "ready" line: process start, spec parse and validation, GF dispatch,
/// resolution and plan/graph construction.
double spawn_setup_s(const Args& args) {
  std::vector<std::string> child = args.argv;
  child.push_back("--setup-only");
  std::vector<char*> argv;
  for (std::string& a : child) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  pid_t pid = 0;
  const auto t0 = Clock::now();
  const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  double wall = -1.0;
  std::string out;
  if (rc == 0) {
    char buf[64];
    ssize_t n = 0;
    while ((n = read(fds[0], buf, sizeof buf)) > 0) {
      out.append(buf, static_cast<std::size_t>(n));
      if (wall < 0.0 && out.find('\n') != std::string::npos) wall = since(t0);
    }
  }
  close(fds[0]);
  int status = 0;
  if (rc != 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || out != "ready\n")
    throw std::runtime_error("set-up process failed");
  return wall;
}

/// Time of a fixed, benchmark-owned kernel: allocation churn, with 512
/// vectors grown, released and regrown at random and short-lived buffers
/// in between, driven by a xorshift generator.  It is timed between
/// repetitions and tracks the host's current speed; no library code runs
/// in it, so a change to the library cannot move it.
double host_probe_s() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  std::vector<std::vector<std::uint32_t>> slots(512);
  for (int i = 0; i < 60000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::vector<std::uint32_t>& slot = slots[x & 511];
    if ((x >> 20) & 1) {
      slot.clear();
      slot.shrink_to_fit();
    } else {
      for (int k = 0; k < 16; ++k)
        slot.push_back(static_cast<std::uint32_t>(x >> k));
    }
    if ((x >> 30) % 3 == 0) {
      const std::vector<std::uint64_t> buffer((x >> 40) & 255, x);
      acc += buffer.size();
    }
    if (!slot.empty()) acc += slot[(x >> 50) % slot.size()];
  }
  const volatile std::uint64_t sink = acc;
  (void)sink;
  return since(t0);
}

/// Peak resident set of this process image in MB (VmHWM).  getrusage's
/// ru_maxrss is not used: it keeps the high-water mark of the process that
/// exec'd us (run.py's Python interpreter).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return static_cast<double>(fecsched::obs::max_rss_kb()) / 1024.0;
}

int measure(const Args& args, const ScenarioSpec& spec) {
  Checks checks;
  print_host_facts(clock_read_ns());

  // Reference run at the spec's own seed: pinned digest, and warm-up.
  const ScenarioResult ref = fecsched::api::run_scenario(spec);
  Checks ref_checks;
  const Assessment ref_work = assess(spec, ref, ref_checks);
  const std::uint64_t ref_digest = digest(ref);
  const auto pinned = reference_digest(args.workload, args.smoke);
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(ref_digest));
  std::cout << "reference digest " << hex
            << (pinned && *pinned == ref_digest ? " (matches pinned)"
                                                : " (DIFFERS from pinned)")
            << "\n";
  if (!pinned || *pinned != ref_digest) {
    ref_checks.failed = ref_checks.attempted;
    ref_checks.problems.push_back("reference digest differs from pinned");
  }
  checks.attempted += ref_checks.attempted;
  checks.failed += ref_checks.failed;
  checks.problems = ref_checks.problems;

  // Each run_scenario call repeats the in-process set-up (resolution,
  // plan/graph construction); it is timed alone before every repetition
  // and its fastest time is subtracted from each repetition's wall.
  // Set-up processes are spread over the window so setup_s samples the
  // host the way the repetitions do.
  constexpr std::size_t kSetupProcesses = 15;
  std::vector<double> setup_walls;
  std::vector<double> walls;
  std::vector<double> probes;
  std::vector<std::uint64_t> packets;
  double setup_inproc = 1e30;
  probes.push_back(host_probe_s());
  const auto start = Clock::now();
  for (std::uint64_t rep = 0; rep < 3 || since(start) < args.seconds; ++rep) {
    if (setup_walls.size() < kSetupProcesses &&
        since(start) >= args.seconds * static_cast<double>(setup_walls.size()) /
                            kSetupProcesses)
      setup_walls.push_back(spawn_setup_s(args));
    ScenarioSpec rep_spec = spec;
    rep_spec.run.seed = fecsched::derive_seed(args.seed, {rep});
    const auto s0 = Clock::now();
    {
      const auto experiment = set_up(rep_spec);
      setup_inproc = std::min(setup_inproc, since(s0));
    }
    const auto t0 = Clock::now();
    const ScenarioResult result = fecsched::api::run_scenario(rep_spec);
    walls.push_back(since(t0));
    probes.push_back(host_probe_s());
    packets.push_back(assess(rep_spec, result, checks).packets);
  }
  while (setup_walls.size() < kSetupProcesses)
    setup_walls.push_back(spawn_setup_s(args));

  // A shared host's speed can drift by up to 1.75x over minutes, and the
  // simulation loops slow about as much as allocation churn does, half
  // again as much as a cache-resident kernel (measured on a 4-vCPU cloud
  // VM).  Each repetition's rate is scaled by the mean of the probes timed
  // just before and just after it, relative to kProbeReferenceS (the
  // probe's time on that VM when quiet), and the median is reported:
  // packets per second at that reference host speed.  The raw rates are
  // printed for context.
  constexpr double kProbeReferenceS = 0.0055;
  std::vector<double> raw;
  std::vector<double> normalized;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    raw.push_back(static_cast<double>(packets[i]) /
                  std::max(walls[i] - setup_inproc, 1e-9));
    normalized.push_back(raw.back() * 0.5 * (probes[i] + probes[i + 1]) /
                         kProbeReferenceS);
  }
  std::cout << "repetitions " << raw.size() << " (in-process setup "
            << setup_inproc << " s excluded from each), raw packets/s min "
            << *std::min_element(raw.begin(), raw.end()) << " median "
            << median(raw) << " max "
            << *std::max_element(raw.begin(), raw.end())
            << ", host probe median " << median(probes) * 1e3 << " ms\n";

  const Metrics metrics = {
      {"packets_per_s", median(normalized), "1/s"},
      {"setup_s", median(setup_walls), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  if (!args.ledger.empty())
    append_ledger(args, spec, ref_digest, ref_work.trials, median(walls),
                  checks, metrics);
  print_result(checks, metrics);
  return checks.failed == 0 ? 0 : 1;
}

int traced(const Args& args, const ScenarioSpec& spec) {
  Checks checks;
  const double clock_ns = clock_read_ns();
  print_host_facts(clock_ns);
  Trace trace;
  const Metrics metrics =
      run_traced(spec, args.seed, args.seconds, checks, trace);
  double self_sum = 0.0, wall = 0.0;
  for (const Metric& m : metrics) {
    if (m.name.rfind("self.", 0) == 0 && m.name != "self.bench_ms")
      self_sum += m.value;
    if (m.name == "bench.traced_wall_ms") wall = m.value;
  }
  std::cout << "layer self times " << self_sum << " ms of " << wall
            << " ms traced wall\n";
  checks.record(1, self_sum <= wall ? "" : "layer self times exceed wall");
  print_result(checks, metrics);
  if (!args.spans.empty()) trace.write(args.spans);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const ScenarioSpec spec = load_spec(args.specs, args.workload, args.smoke);
    if (args.setup_only) {
      const auto experiment = set_up(spec);
      std::cout << "ready" << std::endl;
      return 0;
    }
    return args.trace ? traced(args, spec) : measure(args, spec);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << e.what() << "\n";
    return 2;
  }
}
