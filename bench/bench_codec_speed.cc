// Encoding/decoding speed (Sec. 6.2 / Sec. 7): "LDGM codes are an order
// of magnitude faster than RSE codes".  google-benchmark microbenchmarks
// of the real payload codecs; throughput is reported as bytes of source
// data processed per second.
//
// RSE operates per 255-packet block (GF(2^8) multiplications through the
// SIMD-dispatched kernel engine, gf/gf256_kernels.h); LDGM-* encodes the
// whole large block with XORs only.
//
// Besides the google-benchmark mode, the bench has a machine-readable
// mode used by tools/ci.sh and EXPERIMENTS.md:
//
//   bench_codec_speed --json <out> [--check] [--min-time=SECONDS]
//
// measures gf256_addmul / rse_encode / rse_decode / ldgm_encode on EVERY
// backend the host supports and writes throughput (bytes/s per op x
// backend) plus best-SIMD-over-scalar speedups as JSON (recorded as
// BENCH_codec_speed.json).  rse_encode / rse_decode time the engines'
// zero-allocation encode_into / decode_into paths with one reused
// RseWorkspace; crc32 (the net wire's per-datagram checksum, one 1 KiB
// symbol per call) has no GF backend and is timed once.  The "host" block
// names the machine that recorded the file.  On hosts that grant
// perf_event_open (obs/perfctr.h) each row also carries cycles/byte and
// cache-miss/byte read from the hardware-counter group around the timed
// loop; elsewhere
// the "perf_counters" block records why they are absent.  --check additionally enforces the perf
// acceptance criteria on SIMD-capable hosts: >= 4x addmul and >= 1.5x
// end-to-end RSE encode/decode over the scalar baseline (exit 1 when
// violated).

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fec/ldgm.h"
#include "fec/peeling_decoder.h"
#include "fec/rse.h"
#include "fec/symbol_arena.h"
#include "gf/gf256.h"
#include "gf/gf256_kernels.h"
#include "obs/manifest.h"
#include "obs/perfctr.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace {

using namespace fecsched;

constexpr std::size_t kSymbolSize = 1024;

std::vector<std::vector<std::uint8_t>> random_symbols(std::uint32_t count,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> out(count);
  for (auto& s : out) {
    s.resize(kSymbolSize);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return out;
}

// ------------------------------------------------------------------ RSE

void BM_RseEncodeBlock(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const RseCodec codec(k, n);
  const auto src = random_symbols(k, 1);
  for (auto _ : state) {
    auto parity = codec.encode(src);
    benchmark::DoNotOptimize(parity);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * k *
                          kSymbolSize);
}
BENCHMARK(BM_RseEncodeBlock)->Args({102, 255})->Args({170, 255});

void BM_RseDecodeBlock(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  const auto n = static_cast<std::uint32_t>(state.range(1));
  const RseCodec codec(k, n);
  const auto src = random_symbols(k, 2);
  const auto parity = codec.encode(src);
  // Worst recoverable case: as many sources erased as parity can repair.
  const std::uint32_t erased = std::min(n - k, k);
  std::vector<RseCodec::Received> rx;
  for (std::uint32_t i = erased; i < k; ++i) rx.push_back({i, src[i]});
  for (std::uint32_t i = 0; i < erased; ++i) rx.push_back({k + i, parity[i]});
  for (auto _ : state) {
    auto decoded = codec.decode(rx);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * k *
                          kSymbolSize);
}
BENCHMARK(BM_RseDecodeBlock)->Args({102, 255})->Args({170, 255});

// ----------------------------------------------------------------- LDGM

LdgmParams ldgm_params(std::int64_t k, double ratio, LdgmVariant v) {
  LdgmParams p;
  p.k = static_cast<std::uint32_t>(k);
  p.n = static_cast<std::uint32_t>(static_cast<double>(k) * ratio);
  p.variant = v;
  p.seed = 7;
  return p;
}

void BM_LdgmEncode(benchmark::State& state) {
  const auto variant = static_cast<LdgmVariant>(state.range(1));
  const LdgmCode code(ldgm_params(state.range(0), 1.5, variant));
  const auto src = random_symbols(code.k(), 3);
  for (auto _ : state) {
    auto parity = code.encode(src);
    benchmark::DoNotOptimize(parity);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          code.k() * kSymbolSize);
}
BENCHMARK(BM_LdgmEncode)
    ->Args({1020, static_cast<int>(LdgmVariant::kStaircase)})
    ->Args({1020, static_cast<int>(LdgmVariant::kTriangle)})
    ->Args({20000, static_cast<int>(LdgmVariant::kStaircase)})
    ->Args({20000, static_cast<int>(LdgmVariant::kTriangle)});

void BM_LdgmDecode(benchmark::State& state) {
  const auto variant = static_cast<LdgmVariant>(state.range(1));
  const LdgmCode code(ldgm_params(state.range(0), 1.5, variant));
  const auto src = random_symbols(code.k(), 4);
  const auto parity = code.encode(src);
  // A realistic lossy reception order (random permutation).
  Rng rng(5);
  std::vector<PacketId> order(code.n());
  for (PacketId id = 0; id < code.n(); ++id) order[id] = id;
  shuffle(order, rng);
  for (auto _ : state) {
    PeelingDecoder d(code.matrix(), code.k(), kSymbolSize);
    for (const PacketId id : order) {
      d.add_packet(id, id < code.k() ? src[id] : parity[id - code.k()]);
      if (d.source_complete()) break;
    }
    benchmark::DoNotOptimize(d.source_complete());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          code.k() * kSymbolSize);
}
BENCHMARK(BM_LdgmDecode)
    ->Args({1020, static_cast<int>(LdgmVariant::kStaircase)})
    ->Args({1020, static_cast<int>(LdgmVariant::kTriangle)})
    ->Args({20000, static_cast<int>(LdgmVariant::kStaircase)})
    ->Args({20000, static_cast<int>(LdgmVariant::kTriangle)});

// GF(2^8) primitive: the RSE inner loop, for reference.
void BM_Gf256Addmul(benchmark::State& state) {
  std::vector<std::uint8_t> dst(kSymbolSize, 1), src(kSymbolSize, 2);
  for (auto _ : state) {
    gf::addmul(dst, src, 0x57);
    benchmark::DoNotOptimize(dst);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kSymbolSize);
}
BENCHMARK(BM_Gf256Addmul);

// --------------------------------------------- machine-readable mode

struct Measurement {
  double bytes_per_second = 0.0;
  double cycles_per_byte = 0.0;      // 0 when perf counters unavailable
  double cache_miss_per_byte = 0.0;  // 0 when perf counters unavailable
};

/// Time `body` until at least min_time elapsed, returning bytes/second
/// (`bytes_per_call` processed per invocation).  When the host grants
/// perf_event_open, the hardware-counter group is read once around the
/// whole timed loop and normalized per byte of source data.
template <typename Fn>
Measurement measure_op(obs::PerfGroup& perf, double min_time,
                       std::uint64_t bytes_per_call, Fn&& body) {
  using clock = std::chrono::steady_clock;
  // Warm-up (tables, dispatch, caches).
  body();
  obs::PerfValues before{};
  obs::PerfValues after{};
  perf.read(before);
  std::uint64_t calls = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  do {
    for (int i = 0; i < 8; ++i) body();
    calls += 8;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  } while (elapsed < min_time);
  perf.read(after);
  Measurement m;
  const double bytes = static_cast<double>(calls * bytes_per_call);
  m.bytes_per_second = bytes / elapsed;
  if (perf.available()) {
    const auto idx = [](obs::PerfCounter c) {
      return static_cast<std::size_t>(c);
    };
    m.cycles_per_byte =
        static_cast<double>(after[idx(obs::PerfCounter::kCycles)] -
                            before[idx(obs::PerfCounter::kCycles)]) /
        bytes;
    m.cache_miss_per_byte =
        static_cast<double>(after[idx(obs::PerfCounter::kCacheMisses)] -
                            before[idx(obs::PerfCounter::kCacheMisses)]) /
        bytes;
  }
  return m;
}

/// The CPU's "model name" from /proc/cpuinfo; "" where there is none.
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        return line.substr(colon + 2);
    }
  return "";
}

struct OpResult {
  std::string op;
  std::string backend;
  double bytes_per_second = 0.0;
  double cycles_per_byte = 0.0;
  double cache_miss_per_byte = 0.0;
};

int run_json_mode(const std::string& json_path, bool check, double min_time,
                  const bench::Scale& scale) {
  const auto t0 = std::chrono::steady_clock::now();
  const gf::Backend original = gf::current_backend();
  const auto backends = gf::supported_backends();

  // Fixtures shared by every backend (built once, on the default backend;
  // outputs are backend-independent by the bit-identity contract).
  const std::uint32_t k = 102, n = 255;
  const RseCodec codec(k, n);
  const auto src = random_symbols(k, 1);
  const auto parity = codec.encode(src);
  const std::uint32_t erased = std::min(n - k, k);
  std::vector<ReceivedSymbol> rx;
  for (std::uint32_t i = erased; i < k; ++i) rx.push_back({i, src[i].data()});
  for (std::uint32_t i = 0; i < erased; ++i)
    rx.push_back({k + i, parity[i].data()});
  // Row pointers and output arenas for the _into paths, built once.
  const std::uint8_t* source_rows[RseCodec::kMaxN];
  for (std::uint32_t j = 0; j < k; ++j) source_rows[j] = src[j].data();
  SymbolArena parity_out, decoded_out;
  parity_out.configure(n - k, kSymbolSize);
  decoded_out.configure(k, kSymbolSize);
  std::uint8_t* parity_rows[RseCodec::kMaxN];
  std::uint8_t* decoded_rows[RseCodec::kMaxN];
  for (std::uint32_t i = 0; i < n - k; ++i) parity_rows[i] = parity_out.row(i);
  for (std::uint32_t j = 0; j < k; ++j) decoded_rows[j] = decoded_out.row(j);
  RseWorkspace workspace;
  const LdgmCode ldgm(ldgm_params(1020, 1.5, LdgmVariant::kStaircase));
  const auto ldgm_src = random_symbols(ldgm.k(), 3);

  // One counter group for the whole run (single-threaded bench); on hosts
  // without perf_event_open every Measurement's per-byte fields stay 0 and
  // the JSON records why.
  obs::PerfGroup perf;

  std::vector<OpResult> results;
  std::map<std::string, double> scalar_rate, best_simd_rate;
  for (const gf::Backend b : backends) {
    gf::force_backend(b);
    const std::string name(gf::to_string(b));

    std::vector<std::uint8_t> dst(kSymbolSize, 1), addmul_src(kSymbolSize, 2);
    const Measurement addmul = measure_op(
        perf, min_time, kSymbolSize,
        [&] { gf::kernels().addmul(dst.data(), addmul_src.data(), kSymbolSize, 0x57); });

    const Measurement rse_encode = measure_op(
        perf, min_time, static_cast<std::uint64_t>(k) * kSymbolSize, [&] {
          codec.encode_into(source_rows, kSymbolSize, parity_rows);
          benchmark::DoNotOptimize(parity_out.row(0));
          benchmark::ClobberMemory();
        });
    const Measurement rse_decode = measure_op(
        perf, min_time, static_cast<std::uint64_t>(k) * kSymbolSize, [&] {
          codec.decode_into(rx, kSymbolSize, decoded_rows, workspace);
          benchmark::DoNotOptimize(decoded_out.row(0));
          benchmark::ClobberMemory();
        });
    const Measurement ldgm_encode = measure_op(
        perf, min_time, static_cast<std::uint64_t>(ldgm.k()) * kSymbolSize, [&] {
          auto out = ldgm.encode(ldgm_src);
          benchmark::DoNotOptimize(out);
        });

    const std::map<std::string, Measurement> rates = {
        {"gf256_addmul", addmul},
        {"rse_encode", rse_encode},
        {"rse_decode", rse_decode},
        {"ldgm_encode", ldgm_encode}};
    const bool simd = b == gf::Backend::kSsse3 || b == gf::Backend::kAvx2 ||
                      b == gf::Backend::kNeon;
    for (const auto& [op, m] : rates) {
      results.push_back(
          {op, name, m.bytes_per_second, m.cycles_per_byte,
           m.cache_miss_per_byte});
      if (b == gf::Backend::kScalar) scalar_rate[op] = m.bytes_per_second;
      if (simd)
        best_simd_rate[op] = std::max(best_simd_rate[op], m.bytes_per_second);
    }
  }
  gf::force_backend(original);

  // Backend-independent: recorded once, outside the speedup table.
  const std::vector<std::uint8_t>& crc_src = src[0];
  std::uint32_t crc_sink = 0;
  const Measurement crc = measure_op(perf, min_time, kSymbolSize, [&] {
    crc_sink ^= crc32(crc_src);
    benchmark::DoNotOptimize(crc_sink);
  });
  results.push_back({"crc32", "portable", crc.bytes_per_second,
                     crc.cycles_per_byte, crc.cache_miss_per_byte});

  std::map<std::string, double> speedup;
  for (const auto& [op, rate] : best_simd_rate)
    if (scalar_rate[op] > 0.0) speedup[op] = rate / scalar_rate[op];

  std::ofstream file(json_path);
  if (!file) {
    std::cerr << "bench_codec_speed: cannot write " << json_path << "\n";
    return 1;
  }
  bench::JsonWriter json(file);
  json.begin_object();
  json.key("bench").value("codec_speed");
  json.key("symbol_size").value(std::uint64_t{kSymbolSize});
  json.key("default_backend").value(std::string(gf::to_string(original)));
  bench::write_manifest_block(json, /*threads=*/1);  // single-threaded bench
  json.key("host").begin_object();
  json.key("hostname").value(obs::local_hostname());
  json.key("cpu").value(cpu_model());
  json.end_object();
  json.key("backends").begin_array();
  for (const gf::Backend b : backends) json.value(std::string(gf::to_string(b)));
  json.end_array();
  json.key("perf_counters").begin_object();
  json.key("available").value(perf.available());
  json.key("status").value(perf.status());
  json.end_object();
  json.key("results").begin_array();
  for (const OpResult& r : results) {
    json.begin_object();
    json.key("op").value(r.op);
    json.key("backend").value(r.backend);
    json.key("bytes_per_second").value(r.bytes_per_second);
    if (perf.available()) {
      json.key("cycles_per_byte").value(r.cycles_per_byte);
      json.key("cache_miss_per_byte").value(r.cache_miss_per_byte);
    }
    json.end_object();
  }
  json.end_array();
  json.key("speedup_best_simd_over_scalar").begin_object();
  for (const auto& [op, s] : speedup) json.key(op).value(s);
  json.end_object();
  json.end_object();
  file << "\n";

  for (const OpResult& r : results) {
    std::cout << r.op << " [" << r.backend << "]: "
              << r.bytes_per_second / 1e6 << " MB/s";
    if (perf.available())
      std::cout << "  (" << r.cycles_per_byte << " cycles/B, "
                << r.cache_miss_per_byte << " cache-miss/B)";
    std::cout << "\n";
  }
  if (!perf.available())
    std::cout << "perf counters: unavailable (" << perf.status() << ")\n";
  for (const auto& [op, s] : speedup)
    std::cout << "speedup " << op << " (best SIMD / scalar): " << s << "x\n";

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  api::Json extra = api::Json::object();
  extra.set("symbol_size", api::Json::integer(kSymbolSize));
  extra.set("default_backend",
            api::Json(std::string(gf::to_string(original))));
  api::Json speedups = api::Json::object();
  for (const auto& [op, s] : speedup)
    speedups.set(op, api::Json::number_token(std::to_string(s)));
  extra.set("speedup_best_simd_over_scalar", std::move(speedups));
  bench::append_bench_record(scale, "codec_speed", /*threads=*/1, wall,
                             std::move(extra));

  if (check) {
    if (speedup.empty()) {
      std::cout << "check: no SIMD backend on this host, criteria waived\n";
      return 0;
    }
    bool ok = true;
    const auto require = [&](const std::string& op, double minimum) {
      if (speedup[op] < minimum) {
        std::cerr << "check FAILED: " << op << " speedup " << speedup[op]
                  << "x < " << minimum << "x\n";
        ok = false;
      }
    };
    require("gf256_addmul", 4.0);
    require("rse_encode", 1.5);
    require("rse_decode", 1.5);
    if (ok) std::cout << "check passed: >=4x addmul, >=1.5x RSE end-to-end\n";
    return ok ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Scale scale = bench::parse_scale(argc, argv);
  std::string json_path;
  bool check = false;
  double min_time = 0.15;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--check") {
      check = true;
    } else if (arg.rfind("--min-time=", 0) == 0) {
      min_time = std::stod(arg.substr(11));
    } else if (arg.rfind("--ledger=", 0) == 0) {
      // consumed by parse_scale; keep it away from google-benchmark
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!json_path.empty() || check) {
    if (json_path.empty()) json_path = "BENCH_codec_speed.json";
    return run_json_mode(json_path, check, min_time, scale);
  }
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
