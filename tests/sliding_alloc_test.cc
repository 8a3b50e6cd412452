// The sliding-window decoder's feed path allocates nothing once warm.
//
// This binary replaces the global (non-aligned) operator new family with
// a counting one.  A stream with loss, reordering and deadline advances
// is replayed into one decoder through reset(): every growth of the
// decoder's scratch is monotone and bounded, so after a few replays one
// must run with zero allocations, and so must the next.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stream/sliding_window.h"
#include "util/rng.h"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return operator new(n);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return operator new(n, tag);
}
// GCC flags free() inside a replacement operator delete as a mismatch
// with the replaced operator new; here the pairing is exactly right.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace fecsched {
namespace {

class SlidingAllocation : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SlidingAllocation, WarmFeedPathIsAllocationFree) {
  const std::size_t symbol_size = GetParam();
  SlidingWindowConfig cfg;
  cfg.window = 16;
  cfg.repair_interval = 3;
  constexpr std::uint32_t kSources = 600;

  // Paced emission, then each survivor delayed by up to two windows.
  SlidingWindowEncoder enc(cfg, symbol_size);
  std::vector<std::vector<std::uint8_t>> payloads(kSources);
  std::vector<RepairPacket> repairs;
  std::vector<std::pair<std::uint64_t, std::int64_t>> arrivals;  // ~r = repair r
  Rng rng(31);
  std::uint64_t sent = 0, received_sources = 0;
  for (std::uint32_t s = 0; s < kSources; ++s) {
    payloads[s].assign(symbol_size, static_cast<std::uint8_t>(s * 7));
    enc.push_source(payloads[s]);
    if (!rng.bernoulli(0.15)) {
      arrivals.emplace_back(sent + rng.below(33), s);
      ++received_sources;
    }
    ++sent;
    if (enc.source_count() % cfg.repair_interval == 0) {
      if (!rng.bernoulli(0.15))
        arrivals.emplace_back(sent + rng.below(33),
                              ~static_cast<std::int64_t>(repairs.size()));
      repairs.push_back(enc.make_repair());
      ++sent;
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });

  SlidingWindowDecoder dec(cfg, symbol_size);
  std::vector<std::uint64_t> settled;
  settled.reserve(kSources);
  std::uint64_t known = 0;
  const auto replay = [&] {
    dec.reset(cfg);
    g_allocations = 0;
    g_counting = true;
    for (const auto& [t, id] : arrivals) {
      if (id >= 0)
        dec.on_source(static_cast<std::uint64_t>(id),
                      payloads[static_cast<std::size_t>(id)], settled);
      else
        dec.on_repair(repairs[~id], settled);
      const std::uint64_t produced = t * cfg.repair_interval /
                                     (cfg.repair_interval + 1);
      if (produced > 2 * cfg.window)
        dec.give_up_before(produced - 2 * cfg.window, settled);
      settled.clear();
    }
    dec.give_up_before(kSources, settled);
    settled.clear();
    g_counting = false;
    known = dec.known_count();
    return g_allocations.load();
  };

  int warmups = 0;
  while (replay() != 0) ASSERT_LT(++warmups, 8) << "scratch never settled";
  EXPECT_EQ(replay(), 0u);
  // The replay did real work: recoveries beyond the received sources.
  EXPECT_GT(known, received_sources);
}

INSTANTIATE_TEST_SUITE_P(Modes, SlidingAllocation,
                         ::testing::Values(std::size_t{0}, std::size_t{16}),
                         [](const auto& info) {
                           return info.param == 0
                                      ? std::string("StructureOnly")
                                      : "Payload" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace fecsched
