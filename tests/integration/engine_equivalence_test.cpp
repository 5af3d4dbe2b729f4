// Whole-stack oracle check: every shipped scheduling algorithm, run on
// the compiled kernel and on the reference interpreter
// (tests/testing/reference_interpreter.hpp), must produce bit-identical
// trajectories — same firing and enabling streams, same event and
// aborted-event counts, same reward integrals, same job totals — with
// incremental enabling on and off and at every workload depth.
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
#include "testing/oracle.hpp"
#include "testing/reference_interpreter.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim {
namespace {

using testing::ReferenceInterpreter;

struct Outcome {
  testing::OracleRun run;
  double avail, util, pcpu;
  std::int64_t jobs;
  double energy = 0.0;  ///< DVFS runs only (integral of sum_p f*V^2)
};

template <class Runner>
Outcome run_stack(const std::string& algorithm, bool incremental,
                  int jobs_per_vcpu, std::uint64_t seed, bool dvfs = false) {
  auto config_vm = vm::make_symmetric_config(2, {2, 1}, jobs_per_vcpu);
  config_vm.dvfs.enabled = dvfs;  // default ladder when on
  auto system =
      vm::build_system(config_vm, sched::make_factory(algorithm)());
  auto avail = vm::mean_vcpu_availability(*system, 50.0);
  auto util = vm::mean_vcpu_utilization(*system, 50.0);
  auto pcpu = vm::pcpu_utilization(*system, 50.0);
  std::vector<san::RewardVariable*> rewards = {avail.get(), util.get(),
                                               pcpu.get()};
  std::shared_ptr<san::RewardVariable> energy;
  if (dvfs) {
    energy = vm::energy_rate(*system, 50.0);
    rewards.push_back(energy.get());
  }

  san::SimulatorConfig config;
  config.end_time = 400.0;
  config.seed = seed;
  config.incremental_enabling = incremental;
  testing::OracleRun run =
      testing::run_recorded<Runner>(*system->model, config, rewards);
  return {std::move(run),
          avail->time_averaged(400.0), util->time_averaged(400.0),
          pcpu->time_averaged(400.0), vm::total_completed_jobs(*system),
          energy != nullptr ? energy->accumulated() : 0.0};
}

/// Kernel with `incremental` enabling against the reference on the
/// same system, seed and horizon.
void expect_matches_reference(const std::string& algorithm, bool incremental,
                              int jobs, std::uint64_t seed, bool dvfs,
                              const std::string& label) {
  const Outcome comp =
      run_stack<san::Simulator>(algorithm, incremental, jobs, seed, dvfs);
  const Outcome ref =
      run_stack<ReferenceInterpreter>(algorithm, incremental, jobs, seed, dvfs);
  ASSERT_FALSE(ref.run.events.empty()) << label;
  testing::expect_same_trajectory(comp.run, ref.run, label);
  EXPECT_EQ(comp.jobs, ref.jobs) << label;
  // Bitwise: both runs accrue the same dwell intervals in the same order.
  EXPECT_EQ(comp.avail, ref.avail) << label;
  EXPECT_EQ(comp.util, ref.util) << label;
  EXPECT_EQ(comp.pcpu, ref.pcpu) << label;
  EXPECT_EQ(comp.energy, ref.energy) << label;
}

TEST(EngineEquivalence, EveryAlgorithmBitIdenticalAcrossEngines) {
  for (const auto& name : sched::builtin_algorithms()) {
    for (const int jobs : {1, 8}) {
      expect_matches_reference(name, true, jobs, 99, false,
                               name + "/jobs=" + std::to_string(jobs));
    }
  }
}

TEST(EngineEquivalence, FullScanModeBitIdenticalAcrossEngines) {
  // With incremental enabling off the kernel re-scans everything after
  // every firing, like the reference; the calendar, the arena and the
  // enabled bitset must not leak into this mode's trajectory.
  for (const auto& name : sched::builtin_algorithms()) {
    expect_matches_reference(name, false, 4, 7, false, name + "/full-scan");
  }
}

TEST(EngineEquivalence, DvfsSystemsBitIdenticalAcrossEnginesAndJobs) {
  // The DVFS lowering (Freq_Levels vector marking, per-VCPU Service_Scale
  // places, the bridge's frequency-switch pass, the energy reward's
  // dynamic reads) must survive the compiled kernel and be independent
  // of the workload depth, for frequency-driving and oblivious
  // algorithms alike.
  for (const std::string name : {"dvfs-cc", "dvfs-la", "rebalance", "credit"}) {
    for (const int jobs : {1, 8}) {
      expect_matches_reference(name, true, jobs, 99, true,
                               name + "/dvfs/jobs=" + std::to_string(jobs));
    }
    // Full-scan enabling walks the identical DVFS trajectory too.
    expect_matches_reference(name, false, 4, 7, true,
                             name + "/dvfs/full-scan");
  }
}

TEST(EngineEquivalence, IncrementalTogglesAgreeWithinCompiledEngine) {
  // The incremental index is a pure optimization: the trajectory (though
  // not enabling_evals) must match full-scan mode.
  const auto inc = run_stack<san::Simulator>("credit", true, 4, 31);
  const auto full = run_stack<san::Simulator>("credit", false, 4, 31);
  testing::expect_same_trajectory(inc.run, full.run, "credit");
  EXPECT_EQ(inc.jobs, full.jobs);
  EXPECT_LT(inc.run.stats.enabling_evals, full.run.stats.enabling_evals);
}

}  // namespace
}  // namespace vcpusim
