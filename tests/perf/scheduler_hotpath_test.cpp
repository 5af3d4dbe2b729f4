// Hot-path guarantees of the layered scheduling stack
// (docs/SCHEDULING.md):
//   * a steady-state scheduler tick performs zero heap allocations, for
//     every built-in algorithm — the snapshot/decide/apply buffers and
//     the sched::core run-queue state are all sized at attach time;
//   * replication resets and steady-state replays stay allocation-free
//     with an impulse reward (system_throughput) attached;
//   * the Scheduling_Func gate's dynamic write footprint keeps
//     incremental enabling from collapsing to a full rescan every tick;
//   * model set-up (build, lint, compile) allocates linearly in model
//     size: the bridge's V x P micro-step effects are enumerated on
//     demand, never stored.
// The allocation counter overrides the global operator new, so these
// tests live in their own binary.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "san/analyze/analyzer.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "stats/rng.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define VCPUSIM_HOTPATH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define VCPUSIM_HOTPATH_SANITIZED 1
#endif
#endif

namespace {
std::atomic<long> g_allocations{0};
}  // namespace

#ifndef VCPUSIM_HOTPATH_SANITIZED
// Counting replacements for the global allocation functions. The array
// forms are replaced too so a container's choice of form cannot bypass
// the counter.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace vcpusim {
namespace {

/// Drive the Scheduling_Func gate of a freshly built system directly —
/// exactly what the simulator does once per Clock tick, minus the
/// event-queue machinery — and count heap allocations in steady state.
TEST(SchedulerHotPath, SteadyStateTickDoesNotAllocate) {
#ifdef VCPUSIM_HOTPATH_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  for (const auto& name : sched::builtin_algorithms()) {
    auto system =
        vm::build_system(vm::make_symmetric_config(4, {2, 2, 2, 2}, 5),
                         sched::make_factory(name)());
    san::Activity& clock = *system->scheduler_places.clock;
    ASSERT_EQ(clock.cases().size(), 1u) << name;
    ASSERT_EQ(clock.cases().front().output_gates.size(), 1u) << name;
    const auto& gate = clock.cases().front().output_gates.front();

    stats::Rng rng(1);
    std::vector<const san::PlaceBase*> touched;
    san::GateContext ctx{rng, 0.0, &touched};

    // Warm-up: the first ticks may grow the touch buffer to capacity.
    for (int t = 0; t < 64; ++t) {
      touched.clear();
      ctx.now = static_cast<double>(t);
      gate.function(ctx);
    }
    const long before = g_allocations.load(std::memory_order_relaxed);
    for (int t = 64; t < 192; ++t) {
      touched.clear();
      ctx.now = static_cast<double>(t);
      gate.function(ctx);
    }
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0)
        << "algorithm '" << name << "' allocated during a steady-state tick";
  }
#endif
}

/// Steady-state tracing is allocation-free: fire and marking events
/// carry string_views into model-owned names, and marking values render
/// into the simulator's reusable buffer. The event queue itself still
/// allocates rarely as occupancy reaches new high-water marks, so the
/// check is differential — with every trace category enabled, the traced
/// run (same seed, hence the bit-identical trajectory) must allocate
/// exactly as much as the untraced baseline.
TEST(SchedulerHotPath, SteadyStateTracingDoesNotAllocate) {
#ifdef VCPUSIM_HOTPATH_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  class NullSink final : public san::TraceSink {
   public:
    NullSink() : san::TraceSink(san::kTraceAll) {}
    void on_event(const san::TraceEvent& event) override {
      events += event.name.size();
    }
    std::size_t events = 0;
  };
  const auto measure = [](san::TraceSink* sink, std::uint64_t* events_out) {
    auto system =
        vm::build_system(vm::make_symmetric_config(4, {2, 2, 2, 2}, 5),
                         sched::make_factory("credit")());
    san::SimulatorConfig config;
    config.end_time = 600.0;
    config.seed = 3;
    san::Simulator sim(config);
    if (sink != nullptr) sim.set_trace(sink);
    sim.set_model(*system->model);
    sim.reset();
    sim.advance_until(300.0);  // warm-up: buffers grow to capacity
    const long before = g_allocations.load(std::memory_order_relaxed);
    const auto stats = sim.advance_until(600.0);
    *events_out = stats.events;
    return g_allocations.load(std::memory_order_relaxed) - before;
  };
  std::uint64_t base_events = 0;
  std::uint64_t traced_events = 0;
  const long baseline = measure(nullptr, &base_events);
  NullSink sink;
  const long traced = measure(&sink, &traced_events);
  ASSERT_EQ(base_events, traced_events);  // same trajectory measured
  EXPECT_GT(sink.events, 0u) << "trace sink saw no events in the window";
  EXPECT_EQ(traced, baseline)
      << "tracing added " << (traced - baseline)
      << " heap allocations over the untraced baseline";
#endif
}

/// The compiled engine's replication reset is a block copy: no virtual
/// per-place reset() walk (counted by PlaceBase::reset_count) and, once
/// the event calendar has reached capacity, no heap allocation.
TEST(SchedulerHotPath, CompiledResetIsBlockCopy) {
  auto system = vm::build_system(vm::make_symmetric_config(4, {2, 2, 2, 2}, 5),
                                 sched::make_factory("rrs")());
  san::SimulatorConfig config;
  config.end_time = 200.0;
  config.seed = 9;
  config.engine = san::Engine::kCompiled;
  san::Simulator sim(config);
  sim.set_model(*system->model);
  sim.run();
  sim.reset(10);  // warm-up reset: pools and calendar slots at capacity

  const std::uint64_t resets_before = san::PlaceBase::reset_count();
#ifndef VCPUSIM_HOTPATH_SANITIZED
  const long allocs_before = g_allocations.load(std::memory_order_relaxed);
#endif
  sim.reset(11);
  EXPECT_EQ(san::PlaceBase::reset_count(), resets_before)
      << "compiled reset fell back to the virtual per-place walk";
#ifndef VCPUSIM_HOTPATH_SANITIZED
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - allocs_before, 0)
      << "compiled reset allocated";
#endif

  // The reset simulator still replays a full replication correctly.
  const auto stats = sim.advance_until(200.0);
  EXPECT_GT(stats.events, 0u);
}

/// Impulse rewards are filed by activity when registered, so neither a
/// replication reset nor the steady state allocates on their account:
/// with system_throughput (an impulse on every VCPU Clock) and a rate
/// reward attached, replaying a warmed-up replication — reset(seed) and
/// the whole run — performs no heap allocation.
TEST(SchedulerHotPath, ImpulseRewardKeepsResetAndSteadyStateAllocationFree) {
  auto system = vm::build_system(vm::make_symmetric_config(4, {2, 2, 2, 2}, 5),
                                 sched::make_factory("credit")());
  auto throughput = vm::system_throughput(*system, 20.0);
  auto availability = vm::mean_vcpu_availability(*system, 20.0);
  san::SimulatorConfig config;
  config.end_time = 300.0;
  config.seed = 4;
  san::Simulator sim(config);
  sim.set_model(*system->model);
  sim.add_reward(*throughput);
  sim.add_reward(*availability);
  sim.run();  // warm-up: calendar slots and buffers reach capacity
  const double jobs_per_tick = throughput->time_averaged(300.0);
  ASSERT_GT(jobs_per_tick, 0.0);

  system->reset();
#ifndef VCPUSIM_HOTPATH_SANITIZED
  const long before = g_allocations.load(std::memory_order_relaxed);
#endif
  sim.reset(config.seed);
  sim.advance_until(config.end_time);
#ifndef VCPUSIM_HOTPATH_SANITIZED
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0)
      << "reset or replay allocated with an impulse reward attached";
#endif
  // The replay is the same replication, impulse for impulse.
  EXPECT_EQ(throughput->time_averaged(300.0), jobs_per_tick);
}

/// Same trajectory with and without the enabling index: the dynamic
/// footprint must cut the enabling re-evaluations well below the
/// full-scan count (before it, every Clock tick dirtied every VCPU model
/// and settle() degenerated to a full rescan).
TEST(SchedulerHotPath, SchedulerTickAvoidsFullEnablingRescan) {
  const auto cfg =
      vm::make_symmetric_config(8, std::vector<int>(8, 2), 5);
  const auto run = [&cfg](bool incremental) {
    auto system = vm::build_system(cfg, sched::make_factory("rrs")());
    san::SimulatorConfig config;
    config.end_time = 500.0;
    config.seed = 5;
    config.incremental_enabling = incremental;
    return san::run_once(*system->model, config);
  };
  const auto full = run(false);
  const auto incremental = run(true);
  EXPECT_EQ(full.events, incremental.events);
  ASSERT_GT(incremental.enabling_evals, 0u);
  EXPECT_LT(incremental.enabling_evals * 3, full.enabling_evals)
      << "incremental=" << incremental.enabling_evals
      << " full=" << full.enabling_evals;
}

/// Heap allocations of one set-up phase of a `pcpus`-PCPU host running
/// `pcpus` two-VCPU VMs.
struct SetupAllocations {
  long build = 0;
  long lint = 0;
  long compile = 0;
  long total() const { return build + lint + compile; }
};

SetupAllocations count_setup_allocations(int pcpus) {
  SetupAllocations out;
  long mark = g_allocations.load(std::memory_order_relaxed);
  const auto lap = [&mark]() {
    const long now = g_allocations.load(std::memory_order_relaxed);
    const long delta = now - mark;
    mark = now;
    return delta;
  };
  auto system = vm::build_system(
      vm::make_symmetric_config(pcpus, std::vector<int>(pcpus, 2), 5),
      sched::make_factory("rrs")());
  out.build = lap();
  san::analyze::Analyzer().check_or_throw(*system->model);
  out.lint = lap();
  san::SimulatorConfig config;
  config.end_time = 100.0;
  san::Simulator sim(config);
  sim.set_model(*system->model);
  out.compile = lap();
  return out;
}

/// Set-up grows linearly with the model: quadrupling the host (128 ->
/// 512 VCPUs, 64 -> 256 PCPUs) must cost at most 6x the allocations in
/// each phase. Linear growth gives about 4x; an eager V x P effect
/// declaration or an all-pairs lint check gives about 16x.
TEST(SchedulerHotPath, SetupAllocationsGrowLinearlyWithHostSize) {
#ifdef VCPUSIM_HOTPATH_SANITIZED
  GTEST_SKIP() << "allocation counting is disabled under sanitizers";
#else
  const SetupAllocations small = count_setup_allocations(64);
  const SetupAllocations large = count_setup_allocations(256);
  ASSERT_GT(small.build, 0);
  ASSERT_GT(small.lint, 0);
  ASSERT_GT(small.compile, 0);
  EXPECT_LE(large.build, 6 * small.build)
      << "build_system: " << small.build << " -> " << large.build;
  EXPECT_LE(large.lint, 6 * small.lint)
      << "check_or_throw: " << small.lint << " -> " << large.lint;
  EXPECT_LE(large.compile, 6 * small.compile)
      << "set_model: " << small.compile << " -> " << large.compile;
  EXPECT_LE(large.total(), 6 * small.total());
#endif
}

/// The Scheduling_Func gate declares its 2·V·P assign/deschedule
/// micro-steps by enumeration only: no EffectVariant is stored on the
/// gate, yet enumerating still yields every step.
TEST(SchedulerHotPath, BridgeGateStoresNoPerPairEffectVariant) {
  const int pcpus = 256;
  auto system = vm::build_system(
      vm::make_symmetric_config(pcpus, std::vector<int>(pcpus, 2), 5),
      sched::make_factory("rrs")());
  const san::Activity& clock = *system->scheduler_places.clock;
  const auto& gate = clock.cases().front().output_gates.front();
  ASSERT_EQ(gate.name, "Scheduling_Func");
  EXPECT_TRUE(gate.footprint.effects.empty());
  ASSERT_TRUE(gate.footprint.compositional_effects);
  std::size_t steps = 0;
  gate.footprint.for_each_effect([&steps](const san::EffectVariant&) {
    ++steps;
  });
  EXPECT_EQ(steps, 2u * static_cast<std::size_t>(system->num_vcpus()) *
                       static_cast<std::size_t>(pcpus));
}

}  // namespace
}  // namespace vcpusim
