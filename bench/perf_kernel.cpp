// google-benchmark microbenchmarks of the discrete-event SAN kernel:
// events/second across system sizes, the primitive building blocks
// (RNG, distribution sampling, event queue churn via an M/M/1 model),
// replication-level parallel speedup, and incremental-enabling settle
// throughput. CI publishes the parallel/settle numbers as
// BENCH_parallel.json (see docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <type_traits>

#include "exp/runner.hpp"
#include "san/analyze/analyzer.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "stats/distribution.hpp"
#include "testing/reference_interpreter.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace {

using namespace vcpusim;

void BM_RngUniform01(benchmark::State& state) {
  stats::Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform01());
  }
}
BENCHMARK(BM_RngUniform01);

void BM_ExponentialSample(benchmark::State& state) {
  stats::Rng rng(1);
  const auto dist = stats::make_exponential(0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist->sample(rng));
  }
}
BENCHMARK(BM_ExponentialSample);

void BM_MM1Events(benchmark::State& state) {
  double total_events = 0;
  for (auto _ : state) {
    san::ComposedModel model("MM1");
    auto& sub = model.add_submodel("Q");
    auto queue = sub.add_place<std::int64_t>("queue", 0);
    auto& arrive = sub.add_timed_activity("arrive", stats::make_exponential(0.5));
    arrive.add_output_gate(
        {"a", [queue](san::GateContext&) { queue->mut() += 1; }});
    auto& serve = sub.add_timed_activity("serve", stats::make_exponential(1.0));
    serve.add_input_gate(
        {"busy", [queue]() { return queue->get() > 0; }, nullptr});
    serve.add_output_gate(
        {"s", [queue](san::GateContext&) { queue->mut() -= 1; }});
    san::SimulatorConfig config;
    config.end_time = 10000.0;
    config.seed = 7;
    const auto stats_out = san::run_once(model, config);
    total_events += static_cast<double>(stats_out.events);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MM1Events)->Unit(benchmark::kMillisecond);

/// Full virtualization-system simulation throughput at increasing scale:
/// arg = number of 2-VCPU VMs (PCPUs = VMs, i.e. 50% over-commit).
void BM_VirtualSystemScale(benchmark::State& state) {
  const int vms = static_cast<int>(state.range(0));
  double total_events = 0;
  for (auto _ : state) {
    auto system = vm::build_system(
        vm::make_symmetric_config(vms, std::vector<int>(static_cast<std::size_t>(vms), 2), 5),
        sched::make_factory("rrs")());
    san::SimulatorConfig config;
    config.end_time = 1000.0;
    config.seed = 11;
    const auto stats_out = san::run_once(*system->model, config);
    total_events += static_cast<double>(stats_out.events);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
  state.counters["vcpus"] = static_cast<double>(vms * 2);
}
BENCHMARK(BM_VirtualSystemScale)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

/// Per-algorithm scheduling-function overhead across system sizes:
/// arg = total VCPUs with 2-VCPU VMs and PCPUs = VMs, i.e. 50%
/// over-commit. The system and simulator are built once and reused via
/// the replication recipe (VirtualSystem::reset + Simulator::reset(seed))
/// — the same steady state the exp::SystemPool runs in, so model
/// construction and compilation are not in the measured loop. CI
/// publishes the matrix as BENCH_kernel.json and gates, for rrs and
/// credit, the kernel's speedup over BM_SchedulerTickReference at 64
/// VCPUs and its events/s at 256 VCPUs against 16 VCPUs (the per-event
/// kernel cost must not grow with the model; see the perf-smoke job).
/// enabling_evals_per_event is the tell-tale for the Scheduling_Func
/// gate's dynamic write footprint: it stays roughly flat as the system
/// grows, whereas a full enabling rescan on every scheduler tick would
/// make it grow linearly with the VCPU count.
template <class Runner>
void run_scheduler_tick(benchmark::State& state, const std::string& algorithm) {
  const int vms = static_cast<int>(state.range(0)) / 2;
  auto system = vm::build_system(
      vm::make_symmetric_config(
          vms, std::vector<int>(static_cast<std::size_t>(vms), 2), 5),
      sched::make_factory(algorithm)());
  san::SimulatorConfig config;
  config.end_time = 1000.0;
  config.seed = 3;
  Runner sim(config);
  sim.set_model(*system->model);
  double total_events = 0;
  double total_evals = 0;
  double total_aborted = 0;
  for (auto _ : state) {
    system->reset();
    sim.reset(config.seed);
    const auto stats_out = sim.advance_until(config.end_time);
    total_events += static_cast<double>(stats_out.events);
    total_evals += static_cast<double>(stats_out.enabling_evals);
    total_aborted += static_cast<double>(stats_out.aborted_events);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
  state.counters["enabling_evals_per_event"] = total_evals / total_events;
  state.counters["aborted_per_event"] = total_aborted / total_events;
  state.counters["vcpus"] = static_cast<double>(state.range(0));
  // 1 = the compiled kernel, 0 = the reference interpreter; the CI size
  // gate keys on it.
  state.counters["engine_compiled"] =
      std::is_same_v<Runner, san::Simulator> ? 1.0 : 0.0;
}

void BM_SchedulerTick(benchmark::State& state, const std::string& algorithm) {
  run_scheduler_tick<san::Simulator>(state, algorithm);
}
BENCHMARK_CAPTURE(BM_SchedulerTick, rrs, std::string("rrs"))
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerTick, scs, std::string("scs"))
    ->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerTick, rcs, std::string("rcs"))
    ->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerTick, credit, std::string("credit"))
    ->Arg(4)->Arg(16)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/// The same 64-VCPU workloads (config, seed and horizon) on the test-side
/// reference interpreter (tests/testing/reference_interpreter.hpp):
/// closures only, a binary heap, a full enabling scan every settle
/// round. The trajectory is the kernel's, bit for bit, so the ratio of
/// the two rows' times is what the kernel's index, arena, calendar and
/// bitsets buy. CI gates that ratio.
void BM_SchedulerTickReference(benchmark::State& state,
                               const std::string& algorithm) {
  run_scheduler_tick<vcpusim::testing::ReferenceInterpreter>(state, algorithm);
}
BENCHMARK_CAPTURE(BM_SchedulerTickReference, rrs, std::string("rrs"))
    ->Arg(64)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SchedulerTickReference, credit, std::string("credit"))
    ->Arg(64)->Unit(benchmark::kMillisecond);

/// Where scheduler-tick time actually goes: the same workload as
/// BM_SchedulerTick with phase profiling enabled, publishing per-phase
/// nanosecond shares (settle/fire from the kernel, compile from the
/// data-oriented lowering, decide/apply from the scheduler bridge) as
/// counters. Compare events_per_s against the BM_SchedulerTick rows to
/// see the profiling overhead itself; the tracing/profiling-disabled
/// rows above are the regression gate.
void BM_SchedulerTickProfiled(benchmark::State& state) {
  const int vms = static_cast<int>(state.range(0)) / 2;
  double total_events = 0;
  stats::PhaseProfile total;
  auto system = vm::build_system(
      vm::make_symmetric_config(
          vms, std::vector<int>(static_cast<std::size_t>(vms), 2), 5),
      sched::make_factory("rrs")());
  san::SimulatorConfig config;
  config.end_time = 1000.0;
  config.seed = 3;
  config.profile = true;
  system->scheduler_places.profile->set_enabled(true);
  san::Simulator sim(config);
  sim.set_model(*system->model);
  total.merge(sim.compile_profile());  // one-time lowering cost
  for (auto _ : state) {
    system->reset();
    sim.reset(config.seed);
    const auto stats_out = sim.advance_until(config.end_time);
    total_events += static_cast<double>(stats_out.events);
    total.merge(sim.profile());
    total.merge(*system->scheduler_places.profile);
    system->scheduler_places.profile->reset();
    system->scheduler_places.profile->set_enabled(true);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(stats::Phase::kCount_); ++i) {
    const auto phase = static_cast<stats::Phase>(i);
    if (total.calls(phase) == 0) continue;
    state.counters[std::string(stats::phase_name(phase)) + "_ns_per_event"] =
        static_cast<double>(total.nanoseconds(phase)) / total_events;
  }
}
BENCHMARK(BM_SchedulerTickProfiled)
    ->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

/// Parallel replication speedup: a fig8-style run_point with a fixed
/// replication count (min == max, unreachable CI target, so every jobs
/// value does identical work) at arg = worker threads. The 8-job row
/// over the 1-job row is the speedup figure the CI perf-smoke job
/// records; results are bit-identical across rows by construction.
void BM_ParallelRunPoint(benchmark::State& state) {
  const auto jobs = static_cast<std::size_t>(state.range(0));
  exp::RunSpec spec;
  spec.system = vm::make_symmetric_config(2, {2, 1, 1}, 5);
  spec.scheduler = sched::make_factory("rrs");
  spec.end_time = 1500.0;
  spec.warmup = 200.0;
  spec.jobs = jobs;
  spec.policy.min_replications = 16;
  spec.policy.max_replications = 16;
  spec.policy.target_half_width = 1e-12;  // never converges early
  double total_replications = 0;
  for (auto _ : state) {
    const auto result = exp::run_point(
        spec, {{exp::MetricKind::kMeanVcpuAvailability, -1, ""}});
    total_replications += static_cast<double>(result.replications);
  }
  state.counters["replications_per_s"] =
      benchmark::Counter(total_replications, benchmark::Counter::kIsRate);
  state.counters["jobs"] = static_cast<double>(jobs);
}
BENCHMARK(BM_ParallelRunPoint)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Setup-cost amortization of the system pool, at args = total VCPUs on
/// a fig8-style shape with a deliberately short horizon:
///  * BM_ReplicationSetup runs 32 fixed replications through run_point,
///    which builds one (system, simulator) slot and resets it for every
///    later replication;
///  * BM_SlotSetup times the one-time work of a slot's first checkout
///    that the pool amortizes: vm::build_system, Simulator construction
///    and set_model.
/// Building per replication would pay both for every replication, so CI
/// gates (setup + pooled replication) / pooled replication >= 2 at every
/// size (see docs/PERFORMANCE.md).
vm::SystemConfig setup_config(int vcpus) {
  const int vms = vcpus / 2;
  return vm::make_symmetric_config(
      vms, std::vector<int>(static_cast<std::size_t>(vms), 2), 5);
}

constexpr san::Time kSetupEndTime = 20.0;  // short horizon: setup dominates

void BM_ReplicationSetup(benchmark::State& state) {
  const int vcpus = static_cast<int>(state.range(0));
  exp::RunSpec spec;
  spec.system = setup_config(vcpus);
  spec.scheduler = sched::make_factory("rrs");
  spec.end_time = kSetupEndTime;
  spec.warmup = 5.0;
  spec.jobs = 1;
  spec.policy.min_replications = 32;
  spec.policy.max_replications = 32;
  spec.policy.target_half_width = 1e-12;  // never converges early
  double total_replications = 0;
  for (auto _ : state) {
    const auto result = exp::run_point(
        spec, {{exp::MetricKind::kMeanVcpuAvailability, -1, ""}});
    total_replications += static_cast<double>(result.replications);
  }
  state.counters["replications_per_s"] =
      benchmark::Counter(total_replications, benchmark::Counter::kIsRate);
  state.counters["vcpus"] = static_cast<double>(vcpus);
}
BENCHMARK(BM_ReplicationSetup)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_SlotSetup(benchmark::State& state) {
  const int vcpus = static_cast<int>(state.range(0));
  const vm::SystemConfig config = setup_config(vcpus);
  const auto factory = sched::make_factory("rrs");
  san::SimulatorConfig sim_config;
  sim_config.end_time = kSetupEndTime;
  double total_setups = 0;
  for (auto _ : state) {
    auto system = vm::build_system(config, factory());
    san::Simulator sim(sim_config);
    sim.set_model(*system->model);
    benchmark::DoNotOptimize(system.get());
    total_setups += 1;
  }
  state.counters["setups_per_s"] =
      benchmark::Counter(total_setups, benchmark::Counter::kIsRate);
  state.counters["vcpus"] = static_cast<double>(vcpus);
}
BENCHMARK(BM_SlotSetup)->Arg(4)->Arg(16)->Arg(64)
    ->Unit(benchmark::kMillisecond);

/// Model set-up cost by phase, at args = total VCPUs (same shape as
/// BM_SlotSetup): vm::build_system, the default static analysis
/// (Analyzer::check_or_throw, as RunSpec::lint runs it) and
/// Simulator::set_model, each reported as mean milliseconds per set-up.
/// Every phase is linear in model size, so CI gates the 256-VCPU total
/// at <= 8x the 64-VCPU one (4x is linear; see docs/PERFORMANCE.md).
void BM_SetupScaling(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const int vcpus = static_cast<int>(state.range(0));
  const vm::SystemConfig config = setup_config(vcpus);
  const auto factory = sched::make_factory("rrs");
  san::SimulatorConfig sim_config;
  sim_config.end_time = kSetupEndTime;
  const san::analyze::Analyzer analyzer;
  const auto ms = [](Clock::duration d) {
    return std::chrono::duration<double, std::milli>(d).count();
  };
  double build_ms = 0, lint_ms = 0, set_model_ms = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    auto system = vm::build_system(config, factory());
    const auto t1 = Clock::now();
    analyzer.check_or_throw(*system->model);
    const auto t2 = Clock::now();
    san::Simulator sim(sim_config);
    sim.set_model(*system->model);
    const auto t3 = Clock::now();
    benchmark::DoNotOptimize(system.get());
    build_ms += ms(t1 - t0);
    lint_ms += ms(t2 - t1);
    set_model_ms += ms(t3 - t2);
  }
  const auto per_setup = benchmark::Counter::kAvgIterations;
  state.counters["build_ms"] = benchmark::Counter(build_ms, per_setup);
  state.counters["lint_ms"] = benchmark::Counter(lint_ms, per_setup);
  state.counters["set_model_ms"] = benchmark::Counter(set_model_ms, per_setup);
  state.counters["total_ms"] =
      benchmark::Counter(build_ms + lint_ms + set_model_ms, per_setup);
  state.counters["vcpus"] = static_cast<double>(vcpus);
}
BENCHMARK(BM_SetupScaling)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/// Incremental vs full-scan enabling on a large composed system: the
/// same trajectory, with settle() either re-evaluating every activity
/// after each firing (arg = 0) or only the footprint-affected ones
/// (arg = 1). events_per_s is the settle-throughput figure.
void BM_SettleEnabling(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  const int vms = 12;  // 24 VCPUs on 12 PCPUs: wide activity fan-out
  double total_events = 0;
  for (auto _ : state) {
    auto system = vm::build_system(
        vm::make_symmetric_config(
            vms, std::vector<int>(static_cast<std::size_t>(vms), 2), 5),
        sched::make_factory("rrs")());
    san::SimulatorConfig config;
    config.end_time = 600.0;
    config.seed = 17;
    config.incremental_enabling = incremental;
    const auto stats_out = san::run_once(*system->model, config);
    total_events += static_cast<double>(stats_out.events);
  }
  state.counters["events_per_s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
  state.counters["incremental"] = incremental ? 1.0 : 0.0;
}
BENCHMARK(BM_SettleEnabling)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
