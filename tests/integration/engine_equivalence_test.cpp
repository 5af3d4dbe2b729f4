// Whole-stack engine equivalence: every shipped scheduling algorithm,
// run under the compiled kernel and under the object-graph reference,
// must produce bit-identical trajectories — same firing sequence, same
// event/evaluation counts, same reward integrals, same job totals —
// for every combination of incremental enabling and workload depth.
// This is the system-level closure of tests/san/compiled_engine_test.cpp:
// the vm model exercises dynamic write footprints, compositional
// scheduler-bridge gates, uniform-int workload draws, and structured
// markings that no synthetic kernel model covers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "trace/sinks.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim {
namespace {

struct Outcome {
  std::vector<trace::OwnedTraceEvent> fires;
  san::RunStats stats;
  double avail, util, pcpu;
  std::int64_t jobs;
  double energy = 0.0;  ///< DVFS runs only (integral of sum_p f*V^2)
};

Outcome run_stack(const std::string& algorithm, san::Engine engine,
                  bool incremental, int jobs_per_vcpu, std::uint64_t seed,
                  bool dvfs = false) {
  auto config_vm = vm::make_symmetric_config(2, {2, 1}, jobs_per_vcpu);
  config_vm.dvfs.enabled = dvfs;  // default ladder when on
  auto system =
      vm::build_system(config_vm, sched::make_factory(algorithm)());
  auto avail = vm::mean_vcpu_availability(*system, 50.0);
  auto util = vm::mean_vcpu_utilization(*system, 50.0);
  auto pcpu = vm::pcpu_utilization(*system, 50.0);

  std::shared_ptr<san::RewardVariable> energy;
  if (dvfs) energy = vm::energy_rate(*system, 50.0);

  san::SimulatorConfig config;
  config.end_time = 400.0;
  config.seed = seed;
  config.engine = engine;
  config.incremental_enabling = incremental;
  san::Simulator sim(config);
  trace::RingBufferSink rec(0, san::trace_bit(san::TraceCategory::kFire));
  sim.set_trace(&rec);
  sim.add_reward(*avail);
  sim.add_reward(*util);
  sim.add_reward(*pcpu);
  if (energy != nullptr) sim.add_reward(*energy);
  sim.set_model(*system->model);
  const auto stats = sim.run();
  return {rec.entries(), stats,
          avail->time_averaged(400.0), util->time_averaged(400.0),
          pcpu->time_averaged(400.0), vm::total_completed_jobs(*system),
          energy != nullptr ? energy->accumulated() : 0.0};
}

void expect_identical(const Outcome& obj, const Outcome& comp,
                      const std::string& label) {
  ASSERT_FALSE(obj.fires.empty()) << label;
  EXPECT_EQ(obj.fires, comp.fires) << label;
  EXPECT_EQ(obj.stats.events, comp.stats.events) << label;
  EXPECT_EQ(obj.stats.enabling_evals, comp.stats.enabling_evals) << label;
  EXPECT_EQ(obj.stats.aborted_events, comp.stats.aborted_events) << label;
  EXPECT_EQ(obj.jobs, comp.jobs) << label;
  EXPECT_DOUBLE_EQ(obj.avail, comp.avail) << label;
  EXPECT_DOUBLE_EQ(obj.util, comp.util) << label;
  EXPECT_DOUBLE_EQ(obj.pcpu, comp.pcpu) << label;
  EXPECT_DOUBLE_EQ(obj.energy, comp.energy) << label;
}

TEST(EngineEquivalence, EveryAlgorithmBitIdenticalAcrossEngines) {
  for (const auto& name : sched::builtin_algorithms()) {
    for (const int jobs : {1, 8}) {
      const std::string label = name + "/jobs=" + std::to_string(jobs);
      const auto obj =
          run_stack(name, san::Engine::kObjectGraph, true, jobs, 99);
      const auto comp = run_stack(name, san::Engine::kCompiled, true, jobs, 99);
      expect_identical(obj, comp, label);
    }
  }
}

TEST(EngineEquivalence, FullScanModeBitIdenticalAcrossEngines) {
  // With incremental enabling off, both engines fall back to full
  // rescans after every firing; the compiled fast paths (fired masks,
  // enabled bitmasks, the event calendar) must not leak into this mode's
  // evaluation accounting.
  for (const auto& name : sched::builtin_algorithms()) {
    const auto obj = run_stack(name, san::Engine::kObjectGraph, false, 4, 7);
    const auto comp = run_stack(name, san::Engine::kCompiled, false, 4, 7);
    expect_identical(obj, comp, name + "/full-scan");
  }
}

TEST(EngineEquivalence, DvfsSystemsBitIdenticalAcrossEnginesAndJobs) {
  // The DVFS lowering (Freq_Levels vector marking, per-VCPU Service_Scale
  // places, the bridge's frequency-switch pass, the energy reward's
  // dynamic reads) must survive the compiled engine and be independent
  // of the workload depth, for frequency-driving and oblivious
  // algorithms alike.
  for (const std::string name : {"dvfs-cc", "dvfs-la", "rebalance", "credit"}) {
    for (const int jobs : {1, 8}) {
      const std::string label = name + "/dvfs/jobs=" + std::to_string(jobs);
      const auto obj = run_stack(name, san::Engine::kObjectGraph, true, jobs,
                                 99, /*dvfs=*/true);
      const auto comp = run_stack(name, san::Engine::kCompiled, true, jobs,
                                  99, /*dvfs=*/true);
      expect_identical(obj, comp, label);
    }
    // Full-scan enabling walks the identical DVFS trajectory too.
    const auto obj = run_stack(name, san::Engine::kObjectGraph, false, 4, 7,
                               /*dvfs=*/true);
    const auto comp = run_stack(name, san::Engine::kCompiled, false, 4, 7,
                                /*dvfs=*/true);
    expect_identical(obj, comp, name + "/dvfs/full-scan");
  }
}

TEST(EngineEquivalence, IncrementalTogglesAgreeWithinCompiledEngine) {
  // The incremental index is a pure optimization in both engines: the
  // trajectory (though not enabling_evals) must match full-scan mode.
  const auto inc = run_stack("credit", san::Engine::kCompiled, true, 4, 31);
  const auto full = run_stack("credit", san::Engine::kCompiled, false, 4, 31);
  EXPECT_EQ(inc.fires, full.fires);
  EXPECT_EQ(inc.stats.events, full.stats.events);
  EXPECT_EQ(inc.jobs, full.jobs);
  EXPECT_LT(inc.stats.enabling_evals, full.stats.enabling_evals);
}

}  // namespace
}  // namespace vcpusim
