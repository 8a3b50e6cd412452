#include "workloads.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "gf/gf256_kernels.h"

namespace e2e {

using namespace fecsched;

namespace {

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(const RunningStats& s) {
    add(std::uint64_t{s.count()});
    add(s.mean());
    add(s.m2());
    add(s.min());
    add(s.max());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

template <typename Outcome>
StreamTotals totals_of(const Outcome& o) {
  StreamTotals t;
  t.trials = o.trials;
  t.delivered = o.delivered;
  t.lost = o.lost;
  t.residual_runs = o.residual_runs;
  t.residual_max_run = o.residual_max_run;
  t.packets_sent = o.packets_sent;
  t.packets_received = o.packets_received;
  t.delays = o.delays;
  return t;
}

}  // namespace

std::string stream_problem(const StreamTotals& t, const ScenarioSpec& spec) {
  if (t.trials != spec.run.trials) return "trial count differs from the spec";
  if (t.delivered + t.lost != std::uint64_t{spec.run.sources} * t.trials)
    return "delivered + lost != sources x trials";
  if (t.packets_received > t.packets_sent)
    return "more packets received than sent";
  if (t.delays.size() != t.delivered) return "delay count != delivered sources";
  return "";
}

std::string net_problem(const api::NetRunStats& n, const StreamTotals& t) {
  if (n.parity_trials != t.trials || n.parity_failures != 0)
    return "a trial differs from its simulation twin";
  if (n.payload_mismatches != 0)
    return "delivered payload differs from ground truth";
  if (n.frames_rejected != 0) return "receiver rejected frames";
  if (n.datagrams_sent + n.datagrams_dropped != t.packets_sent ||
      n.datagrams_dropped != t.packets_sent - t.packets_received)
    return "datagrams lost beyond the emulated channel";
  if (n.sources_verified != t.delivered)
    return "delivered sources not all byte-verified";
  return "";
}

void Checks::record(std::uint64_t trials, const std::string& problem) {
  attempted += trials;
  if (problem.empty()) return;
  failed += trials;
  if (std::find(problems.begin(), problems.end(), problem) == problems.end())
    problems.push_back(problem);
}

ScenarioSpec load_spec(const std::string& spec_dir, const std::string& workload,
                       bool smoke) {
  if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
      kWorkloads.end())
    throw std::invalid_argument("unknown workload '" + workload + "'");
  const std::string path = spec_dir + "/" + workload + ".json";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  ScenarioSpec spec = ScenarioSpec::from_json(text.str());
  if (smoke) {
    spec.run.trials = std::max(1u, spec.run.trials / 8);
    spec.run.sources = 500;
    spec.code.k = 2000;
  }
  return spec;
}

void resolve(const ScenarioSpec& spec) {
  spec.validate();
  if (spec.engine == "grid") {
    (void)api::to_experiment_config(spec);
  } else if (spec.engine == "stream") {
    const StreamTrialConfig base = api::to_stream_config(spec);
    for (const StreamVariant& v : StreamGridConfig::default_variants()) {
      StreamTrialConfig cfg = base;
      cfg.scheme = v.scheme;
      cfg.scheduling = v.scheduling;
      cfg.validate();
    }
  } else if (spec.engine == "mpath") {
    api::to_mpath_config(spec).validate();
  } else if (spec.engine == "net") {
    api::to_net_config(spec).validate();
  } else {
    throw std::invalid_argument("unsupported engine " + spec.engine);
  }
}

std::optional<Experiment> set_up(const ScenarioSpec& spec) {
  (void)gf::kernels();
  resolve(spec);
  if (spec.engine != "grid") return std::nullopt;
  return Experiment(api::to_experiment_config(spec));
}

Assessment assess(const ScenarioSpec& spec, const ScenarioResult& r,
                  Checks& checks) {
  Assessment a;
  if (r.grid) {
    const double k = r.grid->k;
    const double n_total = r.grid_n_total;
    for (const CellResult& cell : r.grid->cells) {
      a.trials += cell.trials;
      a.packets += std::uint64_t{cell.trials} * r.grid_n_total;
      const std::uint64_t decoded = cell.inefficiency.count();
      std::string problem;
      if (cell.trials != spec.run.trials ||
          decoded + cell.failures != cell.trials)
        problem = "grid: decoded + failed != trials in a cell";
      else if (decoded > 0 && cell.inefficiency.min() < 1.0)
        problem = "grid: n_needed < k in a decoded trial";
      else if (decoded > 0 &&
               cell.inefficiency.max() > cell.received_ratio.max())
        problem = "grid: n_needed > n_received";
      else if (cell.received_ratio.max() > n_total / k)
        problem = "grid: n_received > n_sent";
      checks.record(cell.trials, problem);
    }
    return a;
  }
  for (const api::StreamOutcome& o : r.stream) {
    const StreamTotals t = totals_of(o);
    std::string problem = stream_problem(t, spec);
    if (problem.empty() && r.net) problem = net_problem(*r.net, t);
    checks.record(o.trials, problem.empty() ? problem
                                            : spec.engine + " " +
                                                  o.variant.label + ": " +
                                                  problem);
    a.trials += o.trials;
    a.packets += r.net ? r.net->datagrams_sent : o.packets_sent;
  }
  for (const api::MpathOutcome& o : r.mpath) {
    const std::string problem = stream_problem(totals_of(o), spec);
    checks.record(o.trials, problem.empty()
                                ? problem
                                : "mpath " + o.variant.label + ": " + problem);
    a.trials += o.trials;
    a.packets += o.packets_sent;
  }
  return a;
}

std::uint64_t digest_grid(const std::vector<CellResult>& cells) {
  Fnv h;
  for (const CellResult& c : cells) {
    h.add(c.p);
    h.add(c.q);
    h.add(std::uint64_t{c.trials});
    h.add(std::uint64_t{c.failures});
    h.add(c.inefficiency);
    h.add(c.received_ratio);
    h.add(std::uint64_t{c.peak_memory_symbols});
  }
  return h.value();
}

std::uint64_t digest_streams(const std::vector<StreamTotals>& totals,
                             const std::optional<api::NetRunStats>& net) {
  Fnv h;
  for (const StreamTotals& t : totals) {
    h.add(std::uint64_t{t.trials});
    h.add(t.delivered);
    h.add(t.lost);
    h.add(t.residual_runs);
    h.add(t.residual_max_run);
    h.add(t.packets_sent);
    h.add(t.packets_received);
    h.add(std::uint64_t{t.delays.size()});
    for (const double d : t.delays) h.add(d);
  }
  if (net) {
    h.add(net->datagrams_sent);
    h.add(net->datagrams_dropped);
    h.add(net->bytes_sent);
    h.add(net->sources_verified);
    h.add(net->payload_mismatches);
    h.add(net->frames_rejected);
    h.add(net->reports_received);
    h.add(std::uint64_t{net->parity_trials});
    h.add(std::uint64_t{net->parity_failures});
  }
  return h.value();
}

std::uint64_t digest(const ScenarioResult& r) {
  if (r.grid) return digest_grid(r.grid->cells);
  std::vector<StreamTotals> totals;
  for (const api::StreamOutcome& o : r.stream) totals.push_back(totals_of(o));
  for (const api::MpathOutcome& o : r.mpath) totals.push_back(totals_of(o));
  return digest_streams(totals, r.net);
}

std::optional<std::uint64_t> reference_digest(const std::string& workload,
                                              bool smoke) {
  // Digests of each spec's reference run (its committed seed), recorded
  // from the tree this benchmark was added against.  A change that keeps
  // every simulated outcome bit-identical keeps them.
  static const std::map<std::string, std::uint64_t> kFull = {
      {"grid-fig8", 0x2e015167d1519c6aULL},
      {"stream-mix", 0x03b9e1f7408dee70ULL},
      {"mpath-mix", 0x312458208d02c6bbULL},
      {"net-rse-udp", 0xa865da124a1b59b8ULL},
  };
  static const std::map<std::string, std::uint64_t> kSmoke = {
      {"grid-fig8", 0x12bc2583843ba7b7ULL},
      {"stream-mix", 0x567e6a09786a7c62ULL},
      {"mpath-mix", 0xe4dc600a55c25d43ULL},
      {"net-rse-udp", 0xd7c8944d1ec7b360ULL},
  };
  const auto& table = smoke ? kSmoke : kFull;
  const auto it = table.find(workload);
  if (it == table.end()) return std::nullopt;
  return it->second;
}

}  // namespace e2e
