#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>

#include "api/registry.h"
#include "channel/gilbert.h"
#include "fec/block_partition.h"
#include "fec/ldgm.h"
#include "fec/rse.h"
#include "gf/gf256_kernels.h"
#include "net/transport.h"
#include "net/wire.h"
#include "sim/mpath_sweep.h"
#include "sim/stream_delay.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace e2e {

using namespace fecsched;

namespace {

using Clock = std::chrono::steady_clock;

// Seed-path tags of the grid engine's channel and graph-pick streams
// (sim/experiment.cc).  Should they drift, the replay's digest stops
// matching run_scenario's and the run reports errors instead of numbers.
constexpr std::uint64_t kGridTagChannel = 2;
constexpr std::uint64_t kGridTagGraphPick = 3;

// Payload size of the layer ceilings (gf, crc32) on every workload.
constexpr std::size_t kPayload = 1024;

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double per(double a, double b) { return b > 0.0 ? a / b : 0.0; }

std::string prefixed(const std::string& label, const std::string& problem) {
  return problem.empty() ? problem : label + ": " + problem;
}

/// The same channel draws a trial made, alone, as one batched span.
void replay_draws(Trace& trace, const ChannelPoint& pt, std::uint64_t seed,
                  std::uint64_t count, std::vector<char>& verdicts) {
  GilbertModel model(pt.p, pt.q);
  model.reset(seed);
  LossModel& channel = model;
  verdicts.resize(count);
  trace.span("channel.lost", count, true, [&] {
    for (std::uint64_t i = 0; i < count; ++i) verdicts[i] = channel.lost();
  });
}

void add_trial(StreamTotals& t, const StreamTrialResult& r) {
  t.delays.insert(t.delays.end(), r.delays.begin(), r.delays.end());
  t.delivered += r.delay.delivered;
  t.lost += r.residual.lost;
  t.residual_runs += r.residual.runs;
  t.residual_max_run = std::max(t.residual_max_run, r.residual.max_run_length);
  t.packets_sent += r.packets_sent;
  t.packets_received += r.packets_received;
  ++t.trials;
}

/// Counts the layer metrics need beyond span durations.
struct Counts {
  std::uint64_t schedule_ids = 0;
  std::uint64_t trial_packets = 0;  ///< packets run_trial replayed
  std::uint64_t draws = 0;
  std::uint64_t post_decode_draws = 0;
  std::uint64_t tracker_calls = 0;
  api::NetRunStats net;
};

std::string trial_problem(const TrialResult& r, std::uint32_t k) {
  if (r.n_received > r.n_sent) return "grid: n_received > n_sent";
  if (r.decoded && (r.n_needed > r.n_received || r.n_needed < k))
    return "grid: n_needed outside [k, n_received]";
  return "";
}

// ---------------------------------------------------------------- replays
//
// Each replay makes the engine's own calls for one run_scenario
// repetition (same seeds, same order) with a span around each, plus
// decomposition replays marked extra.  Each returns the digest of what
// it rebuilt, which must equal the digest of run_scenario's result.

std::uint64_t replay_grid(const ScenarioSpec& spec, Trace& trace,
                          Checks& checks, Counts& n) {
  const ExperimentConfig cfg = trace.span("api.resolve", 1, false, [&] {
    spec.validate();
    return api::to_experiment_config(spec);
  });
  const Experiment exp = trace.span("sim.experiment_build", 1, false,
                                    [&] { return Experiment(cfg); });
  const std::vector<ChannelPoint> points =
      grid_points(api::to_grid_spec(spec));
  std::vector<CellResult> cells(points.size());
  const bool ldgm =
      cfg.code != CodeKind::kRse && cfg.code != CodeKind::kReplication;
  const std::uint64_t graphs = ldgm ? cfg.graph_count : 1;
  // One tracker per graph, reset between trials, as the engine keeps them.
  std::vector<std::unique_ptr<ErasureTracker>> trackers(graphs);
  std::vector<std::unique_ptr<ErasureTracker>> shadows(graphs);
  std::vector<char> verdicts;
  std::vector<PacketId> received;
  for (std::size_t c = 0; c < points.size(); ++c) {
    cells[c].p = points[c].p;
    cells[c].q = points[c].q;
    for (std::uint32_t t = 0; t < spec.run.trials; ++t) {
      const std::uint64_t seed = derive_seed(spec.run.seed, {c, t});
      const std::size_t g = derive_seed(seed, {kGridTagGraphPick}) % graphs;
      const std::vector<PacketId> schedule = trace.span(
          "sched.new_schedule", 1, false, [&] { return exp.new_schedule(seed); });
      n.schedule_ids += schedule.size();
      if (trackers[g] == nullptr)
        trackers[g] = trace.span("sim.new_tracker", 1, false,
                                 [&] { return exp.new_tracker(seed); });
      else
        trace.span("sim.tracker_reset", 1, false, [&] { trackers[g]->reset(); });
      const std::uint64_t channel_seed = derive_seed(seed, {kGridTagChannel});
      GilbertModel channel(points[c].p, points[c].q);
      channel.reset(channel_seed);
      const TrialResult r = trace.span("sim.run_trial", 1, false, [&] {
        return run_trial(*trackers[g], schedule, channel);
      });
      accumulate_trial(cells[c], r, cfg.k);
      n.trial_packets += r.n_sent;

      replay_draws(trace, points[c], channel_seed, schedule.size(), verdicts);
      n.draws += schedule.size();
      received.clear();
      std::uint64_t decoded_after = schedule.size();
      for (std::size_t i = 0; i < schedule.size(); ++i) {
        if (verdicts[i]) continue;
        received.push_back(schedule[i]);
        if (r.decoded && received.size() == r.n_needed) decoded_after = i + 1;
      }
      n.post_decode_draws += schedule.size() - decoded_after;
      const std::size_t calls = r.decoded ? r.n_needed : received.size();
      if (shadows[g] == nullptr)
        shadows[g] = exp.new_tracker(seed);
      else
        shadows[g]->reset();
      ErasureTracker& shadow = *shadows[g];
      trace.span("sim.on_packet", calls, true, [&] {
        for (std::size_t j = 0; j < calls && j < received.size(); ++j)
          shadow.on_packet(received[j]);
      });
      n.tracker_calls += calls;

      std::string problem = trial_problem(r, cfg.k);
      if (problem.empty() && (received.size() != r.n_received ||
                              shadow.complete() != r.decoded))
        problem = "grid: layer replay disagrees with run_trial";
      checks.record(1, problem);
    }
  }
  return digest_grid(cells);
}

/// Graph construction at a stream trial's LDGM geometry (the construction
/// run_stream_trial performs per ldgm trial).
void probe_stream_ldgm_build(Trace& trace, const StreamTrialConfig& cfg,
                             std::uint64_t seed) {
  LdgmParams params;
  params.k = cfg.source_count;
  params.n = std::max(cfg.source_count + 1,
                      static_cast<std::uint32_t>(std::llround(
                          cfg.source_count * (1.0 + cfg.overhead))));
  params.variant = cfg.ldgm_variant;
  params.left_degree = cfg.left_degree;
  params.triangle_extra_per_row = cfg.triangle_extra_per_row;
  params.seed = derive_seed(seed, {3});
  trace.span("fec.ldgm_build", 1, true,
             [&] { return LdgmCode(params).n(); });
}

std::uint64_t replay_stream(const ScenarioSpec& spec, Trace& trace,
                            Checks& checks, Counts& n) {
  const StreamTrialConfig base = trace.span("api.resolve", 1, false, [&] {
    spec.validate();
    return api::to_stream_config(spec);
  });
  const ChannelPoint pt = spec.channel.point();
  const std::vector<StreamVariant> variants =
      StreamGridConfig::default_variants();
  if (variants.size() != kStreamVariantNames.size())
    throw std::logic_error("stream default variants changed");
  std::vector<StreamTotals> totals;
  std::vector<char> verdicts;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    StreamTrialConfig cfg = base;
    cfg.scheme = variants[v].scheme;
    cfg.scheduling = variants[v].scheduling;
    const std::string name = "stream." + kStreamVariantNames[v];
    StreamTotals total;
    for (std::uint32_t t = 0; t < spec.run.trials; ++t) {
      const std::uint64_t seed = derive_seed(spec.run.seed, {v, t});
      const auto channel =
          api::registry().make_channel(spec.channel.model, {pt.p, pt.q});
      const StreamTrialResult r = trace.span(
          name, 1, false, [&] { return run_stream_trial(cfg, *channel, seed); });
      add_trial(total, r);
      replay_draws(trace, pt, seed, r.packets_sent, verdicts);
      n.draws += r.packets_sent;
      if (cfg.scheme == StreamScheme::kLdgm)
        probe_stream_ldgm_build(trace, cfg, seed);
    }
    std::sort(total.delays.begin(), total.delays.end());
    checks.record(total.trials,
                  prefixed(name, stream_problem(total, spec)));
    totals.push_back(std::move(total));
  }
  return digest_streams(totals, std::nullopt);
}

std::uint64_t replay_mpath(const ScenarioSpec& spec, Trace& trace,
                           Checks& checks, Counts& n) {
  const MpathTrialConfig base = trace.span("api.resolve", 1, false, [&] {
    spec.validate();
    return api::to_mpath_config(spec);
  });
  const ChannelPoint pt = spec.channel.point();
  const std::vector<MpathVariant> variants =
      MpathSweepConfig::default_variants();
  if (variants.size() != kMpathSchedulerNames.size())
    throw std::logic_error("mpath default schedulers changed");
  std::vector<StreamTotals> totals;
  std::vector<char> verdicts;
  for (std::size_t v = 0; v < variants.size(); ++v) {
    MpathTrialConfig cfg = base;
    cfg.scheduler = variants[v].scheduler;
    const std::string name = "mpath." + kMpathSchedulerNames[v];
    StreamTotals total;
    for (std::uint32_t t = 0; t < spec.run.trials; ++t) {
      const std::uint64_t seed = derive_seed(spec.run.seed, {v, t});
      const MpathTrialResult r = trace.span(
          name, 1, false, [&] { return run_mpath_trial(cfg, seed); });
      add_trial(total, r.stream);
      replay_draws(trace, pt, seed, r.stream.packets_sent, verdicts);
      n.draws += r.stream.packets_sent;
    }
    std::sort(total.delays.begin(), total.delays.end());
    checks.record(total.trials,
                  prefixed(name, stream_problem(total, spec)));
    totals.push_back(std::move(total));
  }
  return digest_streams(totals, std::nullopt);
}

std::uint64_t replay_net(const ScenarioSpec& spec, Trace& trace,
                         Checks& checks, Counts& n) {
  const net::NetTrialConfig base = trace.span("api.resolve", 1, false, [&] {
    spec.validate();
    net::NetTrialConfig cfg = api::to_net_config(spec);
    cfg.validate();
    return cfg;
  });
  const ChannelPoint pt = spec.channel.point();
  StreamTotals total;
  api::NetRunStats stats;
  std::vector<char> verdicts;
  for (std::uint32_t t = 0; t < spec.run.trials; ++t) {
    const std::uint64_t seed = derive_seed(spec.run.seed, {0, t});
    const auto channel =
        api::registry().make_channel(spec.channel.model, {pt.p, pt.q});
    const net::NetTrialResult r = trace.span("net.trial", 1, false, [&] {
      return net::run_net_trial(base, *channel, seed, t);
    });
    add_trial(total, r.stream);
    stats.datagrams_sent += r.datagrams_sent;
    stats.datagrams_dropped += r.datagrams_dropped;
    stats.bytes_sent += r.bytes_sent;
    stats.sources_verified += r.sources_verified;
    stats.payload_mismatches += r.payload_mismatches;
    stats.frames_rejected += r.frames_rejected;
    stats.reports_received += r.reports_received;

    const auto twin =
        api::registry().make_channel(spec.channel.model, {pt.p, pt.q});
    const StreamTrialResult sim = trace.span("stream.twin", 1, false, [&] {
      return run_stream_trial(base.stream, *twin, seed);
    });
    ++stats.parity_trials;
    const StreamTrialResult& sr = r.stream;
    if (!(sim.delays == sr.delays && sim.delay.delivered == sr.delay.delivered &&
          sim.residual.lost == sr.residual.lost &&
          sim.packets_sent == sr.packets_sent &&
          sim.packets_received == sr.packets_received &&
          sim.all_delivered == sr.all_delivered))
      ++stats.parity_failures;
    replay_draws(trace, pt, seed, sr.packets_sent, verdicts);
    n.draws += sr.packets_sent;
  }
  std::sort(total.delays.begin(), total.delays.end());
  std::string problem = stream_problem(total, spec);
  if (problem.empty()) problem = net_problem(stats, total);
  checks.record(total.trials, prefixed("net", problem));
  n.net.datagrams_dropped += stats.datagrams_dropped;
  n.net.frames_rejected += stats.frames_rejected;
  n.net.payload_mismatches += stats.payload_mismatches;
  n.net.parity_failures += stats.parity_failures;
  return digest_streams({total}, stats);
}

std::uint64_t replay(const ScenarioSpec& spec, Trace& trace, Checks& checks,
                     Counts& n) {
  if (spec.engine == "grid") return replay_grid(spec, trace, checks, n);
  if (spec.engine == "stream") return replay_stream(spec, trace, checks, n);
  if (spec.engine == "mpath") return replay_mpath(spec, trace, checks, n);
  return replay_net(spec, trace, checks, n);
}

// ----------------------------------------------------------------- probes

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

/// Median rate (bytes per ns = GB/s) over the spans named `name`.
double median_gb_per_s(const Trace& trace, const std::string& name,
                       double bytes_per_call) {
  std::vector<double> rates;
  for (const Span& s : trace.spans())
    if (s.name == name)
      rates.push_back(per(bytes_per_call * static_cast<double>(s.calls), s.ns()));
  return percentile(rates, 0.5);
}

/// GF addmul and CRC-32 over kPayload-byte buffers, batched.
void probe_ceilings(Trace& trace, Checks& checks) {
  Rng rng(0x9e3779b9);
  const std::vector<std::uint8_t> src = random_bytes(rng, kPayload);
  std::vector<std::uint8_t> dst = random_bytes(rng, kPayload);
  const gf::Kernels& kernels = gf::kernels();
  constexpr std::uint64_t kAddmulCalls = 20000;
  constexpr std::uint64_t kCrcCalls = 5000;
  std::uint32_t crc = 0;
  for (int batch = 0; batch < 5; ++batch) {
    trace.span("gf.addmul", kAddmulCalls, true, [&] {
      for (std::uint64_t i = 0; i < kAddmulCalls; ++i)
        kernels.addmul(dst.data(), src.data(), kPayload,
                       static_cast<std::uint8_t>(i % 255 + 1));
    });
    trace.span("util.crc32", kCrcCalls, true, [&] {
      for (std::uint64_t i = 0; i < kCrcCalls; ++i) crc ^= crc32(dst);
    });
  }
  // zlib's check value for "123456789".
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  checks.record(1, crc32(check) == 0xCBF43926u ? "" : "util: crc32 check value");
}

void probe_grid_ldgm_build(const ScenarioSpec& spec, Trace& trace) {
  const ExperimentConfig cfg = api::to_experiment_config(spec);
  LdgmParams params;
  switch (cfg.code) {
    case CodeKind::kLdgmIdentity: params.variant = LdgmVariant::kIdentity; break;
    case CodeKind::kLdgmStaircase: params.variant = LdgmVariant::kStaircase; break;
    case CodeKind::kLdgmTriangle: params.variant = LdgmVariant::kTriangle; break;
    default: return;
  }
  params.k = cfg.k;
  params.n = static_cast<std::uint32_t>(std::llround(cfg.expansion_ratio * cfg.k));
  params.left_degree = cfg.left_degree;
  params.triangle_extra_per_row = cfg.triangle_extra_per_row;
  for (std::uint32_t g = 0; g < cfg.graph_count; ++g) {
    params.seed = derive_seed(cfg.code_seed, {g});
    trace.span("fec.ldgm_build", 1, true, [&] { return LdgmCode(params).n(); });
  }
}

/// Work done by the RSE probes, for the throughput and roofline metrics.
struct RseWork {
  double encode_bytes = 0.0;  ///< source bytes encoded
  double encode_ops = 0.0;    ///< addmul row bytes encoding needs
  double decode_bytes = 0.0;  ///< source bytes of the decoded blocks
  double decode_ops = 0.0;    ///< addmul row bytes decoding needs
};

/// Wire pack/parse, lockstep transport send/recv, RSE encode/decode and
/// matrix inversion, at the net workload's payload and block geometry.
void probe_net(const ScenarioSpec& spec, std::uint64_t seed, Trace& trace,
               Checks& checks, RseWork& rse) {
  const net::NetTrialConfig cfg = api::to_net_config(spec);
  const std::size_t payload = cfg.payload_bytes;
  Rng rng(seed);
  const std::uint32_t frames = spec.run.sources;

  net::DataFrame frame;
  frame.scheme = static_cast<std::uint8_t>(cfg.stream.scheme);
  frame.coding_seed = seed;
  frame.payload = random_bytes(rng, payload);
  std::vector<std::vector<std::uint8_t>> wire(frames);
  for (std::uint32_t i = 0; i < frames; ++i) net::pack(frame, wire[i]);  // warm
  trace.span("net.pack", frames, true, [&] {
    for (std::uint32_t i = 0; i < frames; ++i) {
      frame.symbol_id = i;
      net::pack(frame, wire[i]);
    }
  });
  net::ParsedFrame parsed;
  std::uint32_t bad_parse = 0;
  trace.span("net.parse", frames, true, [&] {
    for (std::uint32_t i = 0; i < frames; ++i)
      if (net::parse(wire[i], parsed) != net::WireError::kOk ||
          parsed.data.symbol_id != i)
        ++bad_parse;
  });
  checks.record(1, bad_parse ? "net: pack/parse round trip failed" : "");

  const net::TransportPair pair = net::make_transport_pair(cfg.transport);
  std::vector<std::uint8_t> buf(net::kDataOverhead + net::kMaxPayload + 64);
  std::uint32_t bad_io = 0;
  for (std::uint32_t i = 0; i < frames; ++i) {
    const bool sent =
        trace.span("net.send", 1, true, [&] { return pair.a->send(wire[i]); });
    const std::ptrdiff_t got = trace.span("net.recv", 1, true, [&] {
      return pair.b->recv(buf, static_cast<int>(cfg.recv_timeout_ms));
    });
    if (!sent || got != static_cast<std::ptrdiff_t>(wire[i].size()) ||
        std::memcmp(buf.data(), wire[i].data(), wire[i].size()) != 0)
      ++bad_io;
  }
  checks.record(1, bad_io ? "net: lockstep send/recv lost or altered data" : "");

  // The block-RSE geometry run_stream_trial uses for this config.
  const double ratio = 1.0 + cfg.stream.overhead;
  const auto cap = static_cast<std::uint32_t>(std::min(
      255.0, std::floor(static_cast<double>(cfg.stream.block_k) * ratio)));
  const RsePlan plan(cfg.stream.source_count, ratio, cap);
  std::map<std::pair<std::uint32_t, std::uint32_t>, RseCodec> codecs;
  std::vector<std::vector<std::uint8_t>> source(plan.block_count());
  std::vector<std::vector<std::uint8_t>> parity(plan.block_count());
  for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
    const BlockInfo& info = plan.block(b);
    codecs.try_emplace({info.k, info.n}, info.k, info.n);
    source[b] = random_bytes(rng, std::size_t{info.k} * payload);
    parity[b].assign(std::size_t{info.n - info.k} * payload, 0);
  }
  const auto rows = [&](std::vector<std::uint8_t>& v, std::uint32_t count) {
    std::vector<std::uint8_t*> out(count);
    for (std::uint32_t i = 0; i < count; ++i) out[i] = v.data() + i * payload;
    return out;
  };
  for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
    const BlockInfo& info = plan.block(b);
    const RseCodec& codec = codecs.at({info.k, info.n});
    const std::vector<std::uint8_t*> src = rows(source[b], info.k);
    const std::vector<std::uint8_t*> par = rows(parity[b], info.n - info.k);
    trace.span("fec.rse_encode", 1, true,
               [&] { codec.encode_into(src.data(), payload, par.data()); });
    rse.encode_ops += static_cast<double>(info.n - info.k) * info.k * payload;
    rse.encode_bytes += static_cast<double>(info.k) * payload;
  }

  // Erasure patterns: each block sent sources-then-parity through the
  // workload's channel; a block with a lost source and >= k arrivals is
  // decoded from its first k arrivals, as the receiver does.
  const ChannelPoint pt = spec.channel.point();
  RseWorkspace ws;
  std::vector<std::uint8_t> out;
  std::vector<std::vector<std::uint8_t>> inverses;
  std::vector<std::uint32_t> inverse_sizes;
  std::uint32_t bad_decode = 0;
  for (std::uint32_t t = 0; t < spec.run.trials; ++t) {
    GilbertModel channel(pt.p, pt.q);
    channel.reset(derive_seed(seed, {t}));
    for (std::uint32_t b = 0; b < plan.block_count(); ++b) {
      const BlockInfo& info = plan.block(b);
      const RseCodec& codec = codecs.at({info.k, info.n});
      std::vector<ReceivedSymbol> got;
      std::vector<std::uint32_t> erased;
      for (std::uint32_t i = 0; i < info.n; ++i) {
        if (channel.lost()) {
          if (i < info.k) erased.push_back(i);
          continue;
        }
        if (got.size() == info.k) continue;
        got.push_back({i, i < info.k
                              ? source[b].data() + i * payload
                              : parity[b].data() + (i - info.k) * payload});
      }
      if (erased.empty() || got.size() < info.k) continue;
      out.assign(std::size_t{info.k} * payload, 0);
      const std::vector<std::uint8_t*> dst = rows(out, info.k);
      trace.span("fec.rse_decode", 1, true,
                 [&] { codec.decode_into(got, payload, dst.data(), ws); });
      if (out != source[b]) ++bad_decode;
      const auto e = static_cast<std::uint32_t>(erased.size());
      rse.decode_ops += static_cast<double>(e) * info.k * payload;
      rse.decode_bytes += static_cast<double>(info.k) * payload;
      // The e x e system of the erased columns over the parity rows used.
      std::vector<std::uint8_t> m;
      for (const ReceivedSymbol& s : got)
        if (s.index >= info.k)
          for (const std::uint32_t col : erased)
            m.push_back(codec.coefficient(s.index, col));
      inverses.push_back(std::move(m));
      inverse_sizes.push_back(e);
    }
  }
  checks.record(1, bad_decode ? "fec: rse decode_into differs from source" : "");
  std::vector<std::uint8_t> work, scratch;
  std::uint32_t bad_invert = 0;
  trace.span("fec.matrix_invert", inverses.size(), true, [&] {
    for (std::size_t i = 0; i < inverses.size(); ++i) {
      work = inverses[i];
      try {
        gf256_invert_matrix(work, inverse_sizes[i], scratch);
      } catch (const std::invalid_argument&) {
        ++bad_invert;
      }
    }
  });
  checks.record(1, bad_invert ? "fec: erased-column system not invertible" : "");
}

}  // namespace

double clock_read_ns() {
  constexpr int kReads = 200000;
  std::vector<double> samples;
  for (int batch = 0; batch < 5; ++batch) {
    const auto t0 = Clock::now();
    Clock::time_point last = t0;
    for (int i = 0; i < kReads; ++i) last = Clock::now();
    samples.push_back(
        std::chrono::duration<double, std::nano>(last - t0).count() / kReads);
  }
  return percentile(samples, 0.5);
}

Metrics run_traced(const ScenarioSpec& spec, std::uint64_t seed,
                   double seconds, Checks& checks, Trace& trace) {
  Counts n;
  std::vector<double> overhead;
  const auto start = Clock::now();
  for (std::uint64_t rep = 0;
       rep == 0 ||
       std::chrono::duration<double>(Clock::now() - start).count() <
           0.6 * seconds;
       ++rep) {
    ScenarioSpec rep_spec = spec;
    rep_spec.run.seed = derive_seed(seed, {rep});
    const auto t0 = Clock::now();
    const ScenarioResult result = api::run_scenario(rep_spec);
    const double untraced_ns =
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    (void)assess(rep_spec, result, checks);

    const int root = trace.open("bench.replay");
    const std::uint64_t traced_digest = replay(rep_spec, trace, checks, n);
    trace.close(root);
    // The engine's own calls, timed from outside; decomposition replays
    // and the benchmark's bookkeeping between spans are left out.
    double engine_ns = 0.0;
    for (const Span& s : trace.spans())
      if (s.parent == root && !s.extra) engine_ns += s.ns();
    overhead.push_back(per(engine_ns, untraced_ns));
    checks.record(1, traced_digest == digest(result)
                         ? ""
                         : "traced replay differs from run_scenario");
  }

  const int root = trace.open("bench.probes");
  constexpr std::uint64_t kResolveCalls = 200;
  trace.span("api.resolve", kResolveCalls, true, [&] {
    for (std::uint64_t i = 0; i < kResolveCalls; ++i) resolve(spec);
  });
  probe_ceilings(trace, checks);
  RseWork rse;
  if (spec.engine == "grid") probe_grid_ldgm_build(spec, trace);
  if (spec.engine == "net") probe_net(spec, seed, trace, checks, rse);
  trace.close(root);

  Metrics m;
  const auto add = [&](const std::string& name, double value,
                       const std::string& unit) {
    m.push_back({name, value, unit});
  };
  const auto ns_per_call = [&](const std::string& name) {
    const auto [ns, calls] = trace.total(name);
    return per(ns, static_cast<double>(calls));
  };
  const auto ms_at = [&](const std::string& name, double q) {
    return percentile(trace.durations(name), q) / 1e6;
  };

  add("api.resolve_us", ns_per_call("api.resolve") / 1e3, "us");
  add("sched.schedule_ns_per_id",
      per(trace.total("sched.new_schedule").first,
          static_cast<double>(n.schedule_ids)),
      "ns");

  const double draw_ns = ns_per_call("channel.lost");
  add("channel.draws", static_cast<double>(n.draws), "count");
  add("channel.draw_ns", draw_ns, "ns");
  add("channel.post_decode_draw_share",
      per(static_cast<double>(n.post_decode_draws),
          static_cast<double>(n.draws)),
      "ratio");

  const double trial_ns = trace.total("sim.run_trial").first;
  const double packets = static_cast<double>(n.trial_packets);
  const double tracker_ns = trace.total("sim.on_packet").first;
  const double trial_draw_ns = packets > 0.0 ? draw_ns * packets : 0.0;
  add("sim.experiment_build_ms", ms_at("sim.experiment_build", 0.5), "ms");
  add("sim.trial_ns_per_packet", per(trial_ns, packets), "ns");
  add("sim.tracker_calls", static_cast<double>(n.tracker_calls), "count");
  add("sim.tracker_on_packet_ns",
      per(tracker_ns, static_cast<double>(n.tracker_calls)), "ns");
  add("sim.trial_self_ns_per_packet",
      packets > 0.0 ? (trial_ns - trial_draw_ns - tracker_ns) / packets : 0.0,
      "ns");
  add("sim.floor_ratio", per(per(trial_ns, packets), draw_ns), "ratio");

  const double addmul_gb_per_s =
      median_gb_per_s(trace, "gf.addmul", static_cast<double>(kPayload));
  const double enc_ns = trace.total("fec.rse_encode").first;
  const double dec_ns = trace.total("fec.rse_decode").first;
  add("fec.rse_encode_mb_per_s", per(rse.encode_bytes, enc_ns) * 1e3, "MB/s");
  add("fec.rse_decode_mb_per_s", per(rse.decode_bytes, dec_ns) * 1e3, "MB/s");
  add("fec.rse_encode_roofline",
      per(per(rse.encode_ops, addmul_gb_per_s), enc_ns), "ratio");
  add("fec.rse_decode_roofline",
      per(per(rse.decode_ops, addmul_gb_per_s), dec_ns), "ratio");
  add("fec.matrix_invert_us", ns_per_call("fec.matrix_invert") / 1e3, "us");
  add("fec.ldgm_build_ms", ms_at("fec.ldgm_build", 0.5), "ms");
  add("gf.addmul_gb_per_s", addmul_gb_per_s, "GB/s");

  for (const std::string& v : kStreamVariantNames) {
    add("stream." + v + ".trial_ms_p50", ms_at("stream." + v, 0.5), "ms");
    add("stream." + v + ".trial_ms_p90", ms_at("stream." + v, 0.9), "ms");
  }
  for (const std::string& s : kMpathSchedulerNames) {
    add("mpath." + s + ".trial_ms_p50", ms_at("mpath." + s, 0.5), "ms");
    add("mpath." + s + ".trial_ms_p90", ms_at("mpath." + s, 0.9), "ms");
  }

  add("net.trial_ms_p50", ms_at("net.trial", 0.5), "ms");
  add("net.trial_ms_p90", ms_at("net.trial", 0.9), "ms");
  add("net.pack_ns", ns_per_call("net.pack"), "ns");
  add("net.parse_ns", ns_per_call("net.parse"), "ns");
  add("net.send_us", ns_per_call("net.send") / 1e3, "us");
  add("net.recv_us", ns_per_call("net.recv") / 1e3, "us");
  add("net.twin_ms", ms_at("stream.twin", 0.5), "ms");
  add("net.datagrams_dropped", static_cast<double>(n.net.datagrams_dropped),
      "count");
  add("net.frames_rejected", static_cast<double>(n.net.frames_rejected),
      "count");
  add("net.payload_mismatches", static_cast<double>(n.net.payload_mismatches),
      "count");
  add("net.parity_failures", static_cast<double>(n.net.parity_failures),
      "count");
  add("util.crc32_mb_per_s",
      median_gb_per_s(trace, "util.crc32", static_cast<double>(kPayload)) * 1e3,
      "MB/s");

  add("bench.clock_read_ns", clock_read_ns(), "ns");
  add("bench.trace_overhead_ratio", percentile(overhead, 0.5), "ratio");
  double wall_ns = 0.0;
  for (const Span& s : trace.spans())
    if (s.parent < 0) wall_ns += s.ns();
  add("bench.traced_wall_ms", wall_ns / 1e6, "ms");
  const std::map<std::string, double> self = trace.self_ns_by_layer();
  for (const char* layer : {"api", "sched", "channel", "sim", "fec", "gf",
                            "stream", "mpath", "net", "util", "bench"}) {
    const auto it = self.find(layer);
    add(std::string("self.") + layer + "_ms",
        it == self.end() ? 0.0 : it->second / 1e6, "ms");
  }
  return m;
}

}  // namespace e2e
