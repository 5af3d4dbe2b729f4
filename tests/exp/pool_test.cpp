// System pool: run_point runs every replication on a pooled, reset
// system, and must be bit-identical to building a fresh system per
// replication — for every builtin algorithm, both enabling modes and any
// jobs value. The fresh-build references live here, not in the product:
//  * per-replication observations against san::run_experiment over a
//    ReplicaFactory that calls vm::build_system for every replication;
//  * events, enabling_evals, scheduler counters and structured JSONL
//    trace bytes against a freshly built san::Simulator per replication
//    seed.
// These tests enforce the invariant docs/PERFORMANCE.md documents.
#include "exp/pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "san/experiment.hpp"
#include "sched/registry.hpp"
#include "stats/metrics.hpp"
#include "trace/sinks.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::exp {
namespace {

RunSpec pool_spec() {
  RunSpec spec;
  // Figure-8-style shape: 2 PCPUs, three VMs (2+1+1 VCPUs), sync 1:5 —
  // contended enough that algorithms actually differ.
  spec.system = vm::make_symmetric_config(2, {2, 1, 1}, 5);
  spec.scheduler = sched::make_factory("rrs");
  spec.end_time = 200.0;
  spec.warmup = 40.0;
  spec.base_seed = 20260805;
  // Fixed replication count: identical work in the pool and the
  // references.
  spec.policy.min_replications = 4;
  spec.policy.max_replications = 4;
  spec.policy.target_half_width = 1e-12;
  spec.policy.record_observations = true;
  return spec;
}

/// Single-reward metrics (the value is one reward's time average), so
/// san::run_experiment can serve as their reference.
const std::vector<MetricRequest>& headline_metrics() {
  static const std::vector<MetricRequest> kMetrics = {
      {MetricKind::kMeanVcpuAvailability, -1, "avail"},
      {MetricKind::kPcpuUtilization, -1, "pcpu"},
      {MetricKind::kMeanVcpuBusyFraction, -1, "busy"},
      {MetricKind::kThroughput, -1, "tput"},
  };
  return kMetrics;
}

/// A metric bound to a freshly built system, reduced as the MetricKind
/// documentation defines it.
struct ReferenceMetric {
  std::vector<std::unique_ptr<san::RewardVariable>> rewards;
  std::function<double(san::Time end)> value;
};

ReferenceMetric bind_reference(const vm::VirtualSystem& system,
                               const MetricRequest& request, san::Time warmup) {
  using Builder = std::function<std::unique_ptr<san::RewardVariable>()>;
  const int i = request.index;
  const auto single = [](Builder make) {
    ReferenceMetric m;
    m.rewards.push_back(make());
    san::RewardVariable* r = m.rewards.back().get();
    m.value = [r](san::Time end) { return r->time_averaged(end); };
    return m;
  };
  const auto ratio = [](Builder numerator, Builder denominator) {
    ReferenceMetric m;
    m.rewards.push_back(numerator());
    m.rewards.push_back(denominator());
    san::RewardVariable* num = m.rewards[0].get();
    san::RewardVariable* den = m.rewards[1].get();
    m.value = [num, den](san::Time) {
      return den->accumulated() > 0 ? num->accumulated() / den->accumulated()
                                    : 0.0;
    };
    return m;
  };
  const auto& s = system;
  switch (request.kind) {
    case MetricKind::kVcpuAvailability:
      return single([&] { return vm::vcpu_availability(s, i, warmup); });
    case MetricKind::kMeanVcpuAvailability:
      return single([&] { return vm::mean_vcpu_availability(s, warmup); });
    case MetricKind::kPcpuUtilization:
      return single([&] { return vm::pcpu_utilization(s, warmup); });
    case MetricKind::kVcpuBusyFraction:
      return single([&] { return vm::vcpu_utilization(s, i, warmup); });
    case MetricKind::kMeanVcpuBusyFraction:
      return single([&] { return vm::mean_vcpu_utilization(s, warmup); });
    case MetricKind::kVmBlockedFraction:
      return single([&] { return vm::vm_blocked_fraction(s, i, warmup); });
    case MetricKind::kThroughput:
      return single([&] { return vm::system_throughput(s, warmup); });
    case MetricKind::kMeanSpinFraction:
      return single([&] { return vm::mean_spin_fraction(s, warmup); });
    case MetricKind::kVcpuUtilization:
      return ratio([&] { return vm::vcpu_utilization(s, i, warmup); },
                   [&] { return vm::vcpu_availability(s, i, warmup); });
    case MetricKind::kMeanVcpuUtilization:
      return ratio([&] { return vm::mean_vcpu_utilization(s, warmup); },
                   [&] { return vm::mean_vcpu_availability(s, warmup); });
    case MetricKind::kMeanEffectiveUtilization:
      return ratio([&] { return vm::mean_productive_fraction(s, warmup); },
                   [&] { return vm::mean_vcpu_availability(s, warmup); });
    case MetricKind::kEnergy:
      break;
  }
  ADD_FAILURE() << "no reference for metric kind "
                << static_cast<int>(request.kind);
  return {};
}

/// Observation reference: san::run_experiment with a system built from
/// scratch for every replication. Single-reward metrics only — the driver
/// reports each reward's time average.
stats::ReplicationResult experiment_reference(
    const RunSpec& spec, const std::vector<MetricRequest>& metrics) {
  san::ExperimentConfig config;
  config.end_time = spec.end_time;
  config.base_seed = spec.base_seed;
  config.policy = spec.policy;
  config.jobs = spec.jobs;
  config.controller = spec.controller;
  const san::ReplicaFactory factory = [&](std::size_t) {
    std::shared_ptr<vm::VirtualSystem> system =
        vm::build_system(spec.system, spec.scheduler());
    san::Replica replica;
    for (const auto& m : metrics) {
      ReferenceMetric bound = bind_reference(*system, m, spec.warmup);
      EXPECT_EQ(bound.rewards.size(), 1u) << default_label(m);
      replica.rewards.push_back(std::move(bound.rewards.front()));
    }
    replica.model = std::move(system->model);
    replica.context = std::move(system);  // gates reference its places
    return replica;
  };
  std::vector<std::string> names;
  for (const auto& m : metrics) {
    names.push_back(m.label.empty() ? default_label(m) : m.label);
  }
  return san::run_experiment(names, factory, config);
}

struct Counters {
  std::vector<std::vector<double>> observations;
  std::uint64_t sim_events = 0;
  std::uint64_t enabling_evals = 0;
  std::uint64_t sched_ticks = 0;
  std::uint64_t preemptions = 0;
  std::string trace;
};

/// Kernel reference: one freshly built system and san::Simulator per
/// replication seed, its trace sent straight to the JSONL sink behind
/// the same per-replication marker run_point emits.
Counters simulator_reference(const RunSpec& spec,
                             const std::vector<MetricRequest>& metrics,
                             std::size_t replications) {
  Counters out;
  std::ostringstream os;
  trace::JsonlSink sink(os);
  for (std::size_t rep = 0; rep < replications; ++rep) {
    auto system = vm::build_system(spec.system, spec.scheduler());
    std::vector<ReferenceMetric> bound;
    for (const auto& m : metrics) {
      bound.push_back(bind_reference(*system, m, spec.warmup));
    }
    san::SimulatorConfig config;
    config.end_time = spec.end_time;
    config.seed = san::replication_seed(spec.base_seed, rep);
    config.incremental_enabling = spec.incremental_enabling;
    config.engine = spec.engine;
    san::Simulator sim(config);
    sim.set_model(*system->model);
    for (auto& b : bound) {
      for (auto& r : b.rewards) sim.add_reward(*r);
    }
    sink.on_event(san::TraceEvent{san::TraceCategory::kMarker, 0.0, 0,
                                  "replication",
                                  static_cast<std::int64_t>(rep), 0, {}});
    sim.set_trace(&sink);
    sim.reset(config.seed);
    const san::RunStats stats = sim.advance_until(spec.end_time);
    sim.set_trace(nullptr);
    out.sim_events += stats.events;
    out.enabling_evals += stats.enabling_evals;
    out.sched_ticks += system->scheduler_places.bridge_stats->ticks;
    out.preemptions += system->scheduler_places.bridge_stats->preemptions;
    std::vector<double> obs;
    for (const auto& b : bound) obs.push_back(b.value(spec.end_time));
    out.observations.push_back(std::move(obs));
  }
  sink.finish();
  out.trace = os.str();
  return out;
}

struct Pooled {
  stats::ReplicationResult result;
  Counters counters;
  std::uint64_t pool_builds = 0;
  std::uint64_t pool_reuses = 0;
};

Pooled run_pooled(RunSpec spec, const std::vector<MetricRequest>& metrics) {
  stats::MetricsRegistry registry;
  spec.metrics = &registry;
  std::ostringstream os;
  trace::JsonlSink sink(os);
  spec.trace = &sink;
  Pooled out;
  out.result = run_point(spec, metrics);
  sink.finish();
  out.counters.observations = out.result.observations;
  out.counters.trace = os.str();
  out.counters.sim_events = registry.counter("sim.events").value();
  out.counters.enabling_evals = registry.counter("sim.enabling_evals").value();
  out.counters.sched_ticks = registry.counter("sched.ticks").value();
  out.counters.preemptions = registry.counter("sched.preemptions").value();
  out.pool_builds = registry.counter("executor.pool_builds").value();
  out.pool_reuses = registry.counter("executor.pool_reuses").value();
  return out;
}

// EXPECT_EQ on doubles is exact — the contract is bit-identity, not
// tolerance.
void expect_same_estimates(const stats::ReplicationResult& reference,
                           const stats::ReplicationResult& pooled) {
  EXPECT_EQ(pooled.replications, reference.replications);
  EXPECT_EQ(pooled.converged, reference.converged);
  EXPECT_EQ(pooled.observations, reference.observations);
  ASSERT_EQ(pooled.metrics.size(), reference.metrics.size());
  for (std::size_t i = 0; i < reference.metrics.size(); ++i) {
    const auto& a = reference.metrics[i];
    const auto& b = pooled.metrics[i];
    SCOPED_TRACE("metric " + b.name);
    EXPECT_EQ(b.samples.count(), a.samples.count());
    EXPECT_EQ(b.samples.mean(), a.samples.mean());
    EXPECT_EQ(b.samples.sample_variance(), a.samples.sample_variance());
    EXPECT_EQ(b.samples.min(), a.samples.min());
    EXPECT_EQ(b.samples.max(), a.samples.max());
    EXPECT_EQ(b.ci.mean, a.ci.mean);
    EXPECT_EQ(b.ci.half_width, a.ci.half_width);
  }
}

void expect_same_run(const Counters& reference, const Counters& pooled) {
  EXPECT_EQ(pooled.observations, reference.observations);
  EXPECT_EQ(pooled.sim_events, reference.sim_events);
  EXPECT_EQ(pooled.enabling_evals, reference.enabling_evals)
      << "the reused simulator must perform exactly a fresh one's "
         "enabling work";
  EXPECT_EQ(pooled.sched_ticks, reference.sched_ticks);
  EXPECT_EQ(pooled.preemptions, reference.preemptions);
  // Not EXPECT_EQ: gtest's line diff of two large traces is quadratic
  // in memory.
  EXPECT_TRUE(pooled.trace == reference.trace)
      << "structured trace byte streams diverge (" << pooled.trace.size()
      << " vs " << reference.trace.size() << " bytes)";
}

/// Pooled run against both fresh-build references.
void expect_matches_fresh_builds(const RunSpec& spec,
                                 const std::vector<MetricRequest>& metrics,
                                 const Pooled& pooled) {
  ASSERT_EQ(pooled.result.replications, spec.policy.max_replications);
  expect_same_estimates(experiment_reference(spec, metrics), pooled.result);
  expect_same_run(simulator_reference(spec, metrics, pooled.result.replications),
                  pooled.counters);
}

TEST(PoolIdentity, MatchesRebuildForEveryAlgorithmEnablingModeAndJobs) {
  for (const auto& algorithm : sched::builtin_algorithms()) {
    for (const bool incremental : {true, false}) {
      for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        SCOPED_TRACE(algorithm + (incremental ? "/incremental" : "/full-scan") +
                     "/jobs=" + std::to_string(jobs));
        RunSpec spec = pool_spec();
        spec.scheduler = sched::make_factory(algorithm);
        spec.incremental_enabling = incremental;
        spec.jobs = jobs;
        expect_matches_fresh_builds(spec, headline_metrics(),
                                    run_pooled(spec, headline_metrics()));
      }
    }
  }
}

TEST(PoolIdentity, MatchesRebuildForEveryMetricKind) {
  RunSpec spec = pool_spec();
  for (auto& vmc : spec.system.vms) vmc.spinlock.enabled = true;
  spec.jobs = 8;
  const std::vector<MetricRequest> single_reward_kinds = {
      {MetricKind::kVcpuAvailability, 0, ""},
      {MetricKind::kMeanVcpuAvailability, -1, ""},
      {MetricKind::kPcpuUtilization, -1, ""},
      {MetricKind::kVcpuBusyFraction, 0, ""},
      {MetricKind::kMeanVcpuBusyFraction, -1, ""},
      {MetricKind::kVmBlockedFraction, 0, ""},
      {MetricKind::kThroughput, -1, ""},
      {MetricKind::kMeanSpinFraction, -1, ""},
  };
  expect_matches_fresh_builds(spec, single_reward_kinds,
                              run_pooled(spec, single_reward_kinds));

  // Ratio kinds reduce two rewards; san::run_experiment cannot report
  // them, so only the simulator reference checks their observations.
  const std::vector<MetricRequest> ratio_kinds = {
      {MetricKind::kVcpuUtilization, 0, ""},
      {MetricKind::kMeanVcpuUtilization, -1, ""},
      {MetricKind::kMeanEffectiveUtilization, -1, ""},
  };
  const Pooled pooled = run_pooled(spec, ratio_kinds);
  expect_same_run(
      simulator_reference(spec, ratio_kinds, pooled.result.replications),
      pooled.counters);
}

TEST(PoolIdentity, SharedExternalPoolStaysIdenticalAcrossRuns) {
  // State-leak check: the SAME built system serves three consecutive
  // runs off one external pool; every run must still match the
  // fresh-build references bit for bit, and the second/third runs must
  // not build.
  RunSpec spec = pool_spec();
  SystemPool pool(spec.system);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    RunSpec pooled_spec = spec;
    pooled_spec.pool = &pool;
    expect_matches_fresh_builds(spec, headline_metrics(),
                                run_pooled(pooled_spec, headline_metrics()));
  }
  // jobs=1: one slot, built once, reused by every later checkout.
  EXPECT_EQ(pool.builds(), 1u);
  EXPECT_EQ(pool.reuses(), 11u);  // 3 runs x 4 reps, minus the one build
}

TEST(PoolCounters, PrivatePoolExportsBuildAndReuseDeltas) {
  const auto pooled = run_pooled(pool_spec(), headline_metrics());
  EXPECT_EQ(pooled.pool_builds, 1u);
  EXPECT_EQ(pooled.pool_reuses, 3u);
}

TEST(PoolCounters, LintBuildSeedsThePool) {
  // The lint fail-fast build is donated to the pool instead of being
  // thrown away: still exactly one build, and every replication —
  // including the first — counts as a reuse.
  RunSpec spec = pool_spec();
  spec.lint = true;
  const auto pooled = run_pooled(spec, headline_metrics());
  EXPECT_EQ(pooled.pool_builds, 1u);
  EXPECT_EQ(pooled.pool_reuses, 4u);
}

TEST(PoolExternal, FingerprintMismatchThrows) {
  RunSpec spec = pool_spec();
  SystemPool wrong(vm::make_symmetric_config(4, {1, 1}, 0));
  spec.pool = &wrong;
  EXPECT_THROW(run_point(spec, headline_metrics()), std::invalid_argument);
}

TEST(PoolFingerprint, DistinguishesBuildRelevantConfigChanges) {
  const auto base = vm::make_symmetric_config(2, {2, 1, 1}, 5);
  EXPECT_EQ(SystemPool::fingerprint_of(base), SystemPool::fingerprint_of(base));

  auto more_pcpus = base;
  more_pcpus.num_pcpus += 1;
  EXPECT_NE(SystemPool::fingerprint_of(base),
            SystemPool::fingerprint_of(more_pcpus));

  auto spinlocked = base;
  for (auto& vmc : spinlocked.vms) vmc.spinlock.enabled = true;
  EXPECT_NE(SystemPool::fingerprint_of(base),
            SystemPool::fingerprint_of(spinlocked));

  auto other_sync = base;
  for (auto& vmc : other_sync.vms) vmc.sync_ratio_k = 9;
  EXPECT_NE(SystemPool::fingerprint_of(base),
            SystemPool::fingerprint_of(other_sync));
}

}  // namespace
}  // namespace vcpusim::exp
