// Zero-allocation guard for the event loop. Its own executable: it
// replaces the global operator new/delete with counting versions that
// forward to malloc/free, and asserts that a warm window of run_events /
// run_until allocates nothing on each hot path the benchmark workloads
// run: the adaptive and the non-adaptive thermal SET, the T = 0
// cotunneling SET, the 50 mK SSET, the pulsed-gate transient across its
// source breakpoints, and PartitionedEngine::advance_window on a
// 2-cluster weak chain.
//
// "Warm" means past everything an engine sets up once: the first full
// refreshes, the rate-memo decision, scratch buffers that grow to their
// steady size. A passing check (`require`) must construct nothing, and a
// barrier must reuse its update lists.
//
// Sanitizer runtimes own operator new, so under ASan/TSan/MSan the test
// counts through the sanitizer allocator's malloc/free hooks instead;
// those see every heap allocation, operator new included.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "base/constants.h"
#include "base/thread_pool.h"
#include "core/engine.h"
#include "core/partition.h"
#include "logic/devices.h"
#include "netlist/circuit.h"
#include "netlist/electrostatics.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SEMSIM_SANITIZED_ALLOCATOR 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SEMSIM_SANITIZED_ALLOCATOR 1
#endif
#endif

namespace {

std::atomic<std::uint64_t> g_heap_calls{0};  // allocations + releases

}  // namespace

#if defined(SEMSIM_SANITIZED_ALLOCATOR)
// The sanitizer runtimes' hook interface (sanitizer/allocator_interface.h
// in Clang's runtime headers; GCC exports the function but ships no
// header for it).
extern "C" int __sanitizer_install_malloc_and_free_hooks(
    void (*malloc_hook)(const volatile void*, std::size_t),
    void (*free_hook)(const volatile void*));

namespace {

void count_malloc(const volatile void*, std::size_t) {
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
}
void count_free(const volatile void*) {
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
}
[[maybe_unused]] const int g_hooks_installed =
    __sanitizer_install_malloc_and_free_hooks(count_malloc, count_free);

}  // namespace

#else

// Counting replacements of the allocation functions the library's
// containers and the test reach; the nothrow forms forward to these.
namespace {

void* counted_alloc(std::size_t n) {
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(al);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t size = ((n == 0 ? 1 : n) + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

#endif

namespace semsim {
namespace {

/// Heap calls (allocations plus releases) made while `body` runs.
template <typename Body>
std::uint64_t heap_calls_during(Body&& body) {
  const std::uint64_t before = g_heap_calls.load(std::memory_order_relaxed);
  body();
  return g_heap_calls.load(std::memory_order_relaxed) - before;
}

TEST(AllocGuard, CounterSeesAnAllocation) {
  // The guard is only as good as its counter: a vector growing inside the
  // window must register.
  std::vector<double>* v = nullptr;
  const std::uint64_t calls = heap_calls_during([&] {
    v = new std::vector<double>(1000, 1.0);
    delete v;
  });
  EXPECT_GE(calls, 4u);
}

EngineOptions options(double temperature, bool adaptive) {
  EngineOptions o;
  o.temperature = temperature;
  o.adaptive.enabled = adaptive;
  o.seed = 2008;
  return o;
}

/// Warms `e` up, then counts the heap calls of a window of `window`
/// events. The two windows together cross the Fenwick rebuild at event
/// 65,536 and several periodic refreshes.
void expect_allocation_free_events(Engine& e, std::uint64_t warm,
                                   std::uint64_t window) {
  ASSERT_EQ(e.run_events(warm), warm);
  std::uint64_t done = 0;
  const std::uint64_t calls =
      heap_calls_during([&] { done = e.run_events(window); });
  EXPECT_EQ(done, window);
  EXPECT_EQ(calls, 0u) << "heap calls over " << window << " warm events";
}

TEST(AllocGuard, AdaptiveThermalSet) {
  auto f = make_set(0.02, -0.02, 0.0);
  Engine e(f.c, options(5.0, true));
  expect_allocation_free_events(e, 60000, 20000);
}

TEST(AllocGuard, NonAdaptiveSet) {
  auto f = make_set(0.02, -0.02, 0.0);
  Engine e(f.c, options(5.0, false));
  expect_allocation_free_events(e, 60000, 20000);
}

TEST(AllocGuard, CotunnelingSetAtZeroTemperature) {
  auto f = make_set(0.004, -0.004, 0.0);
  EngineOptions o = options(0.0, true);
  o.cotunneling = true;
  Engine e(f.c, o);
  expect_allocation_free_events(e, 60000, 20000);
}

TEST(AllocGuard, SuperconductingSetAt50mK) {
  // The Fig. 1c operating point. Its quasi-particle table fills entries on
  // first read; the warm-up reads the ones the window needs.
  auto f = make_set(0.02, -0.02, 0.0, {.superconducting = kFig1cMaterial});
  Engine e(f.c, options(0.05, true));
  expect_allocation_free_events(e, 60000, 20000);
}

TEST(AllocGuard, PulsedGateTransientAcrossBreakpoints) {
  // The benchmark's transient: gate 0 <-> 20 mV, 5 ns of each 10 ns.
  auto f = make_set(0.01, -0.01, 0.0);
  f.c.set_source(f.gate, Waveform::pulse(0.0, 0.02, 0.0, 5e-9, 10e-9));
  Engine e(f.c, options(5.0, true));
  e.run_until(2e-7);
  const std::uint64_t updates = e.stats().source_updates;
  const std::uint64_t calls = heap_calls_during([&] { e.run_until(2e-6); });
  EXPECT_GE(e.stats().source_updates - updates, 300u);
  EXPECT_EQ(calls, 0u) << "heap calls over 180 pulse periods";
}

TEST(AllocGuard, PartitionBarrierOnATwoClusterWeakChain) {
  // Eight SET stages tied by 0.5 aF couplers: the planner cuts the chain,
  // here into two clusters. One-thread executor: the runner's own work.
  const Circuit c = make_set_chain(8, 0.5e-18);
  const ElectrostaticModel model(c);
  PartitionSpec spec;
  spec.enabled = true;
  spec.clusters = 2;
  const ParallelExecutor exec(1);
  PartitionedEngine pe(c, model, options(4.2, true), spec, &exec);
  ASSERT_EQ(pe.clusters(), 2u);
  for (int w = 0; w < 200; ++w) pe.advance_window(0);
  std::uint64_t events = 0;
  const std::uint64_t calls = heap_calls_during([&] {
    for (int w = 0; w < 200; ++w) events += pe.advance_window(0);
  });
  EXPECT_GT(events, 10000u);
  EXPECT_EQ(calls, 0u) << "heap calls over 200 warm windows";
}

}  // namespace
}  // namespace semsim
