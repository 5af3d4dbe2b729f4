#include "exp/runner.hpp"

#include <map>
#include <mutex>
#include <stdexcept>

#include "exp/pool.hpp"
#include "san/analyze/analyzer.hpp"
#include "san/experiment.hpp"
#include "san/simulator.hpp"
#include "stats/phase_profile.hpp"
#include "trace/sinks.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::exp {

std::string default_label(const MetricRequest& request) {
  switch (request.kind) {
    case MetricKind::kVcpuAvailability:
      return "vcpu_availability[" + std::to_string(request.index) + "]";
    case MetricKind::kMeanVcpuAvailability:
      return "mean_vcpu_availability";
    case MetricKind::kPcpuUtilization:
      return "pcpu_utilization";
    case MetricKind::kVcpuUtilization:
      return "vcpu_utilization[" + std::to_string(request.index) + "]";
    case MetricKind::kMeanVcpuUtilization:
      return "mean_vcpu_utilization";
    case MetricKind::kVcpuBusyFraction:
      return "vcpu_busy_fraction[" + std::to_string(request.index) + "]";
    case MetricKind::kMeanVcpuBusyFraction:
      return "mean_vcpu_busy_fraction";
    case MetricKind::kVmBlockedFraction:
      return "vm_blocked_fraction[" + std::to_string(request.index) + "]";
    case MetricKind::kThroughput:
      return "throughput";
    case MetricKind::kMeanSpinFraction:
      return "mean_spin_fraction";
    case MetricKind::kMeanEffectiveUtilization:
      return "mean_effective_utilization";
    case MetricKind::kEnergy:
      return "energy";
  }
  return "metric";
}

namespace {

/// One metric bound to a freshly built system: its reward variables plus
/// the function that reduces them to the reported value at end of run.
struct BoundMetric {
  std::vector<std::unique_ptr<san::RewardVariable>> rewards;
  std::function<double(san::Time end)> finalize;
};

BoundMetric bind_metric(const vm::VirtualSystem& system,
                        const MetricRequest& request, san::Time warmup) {
  BoundMetric bound;
  const auto single = [&bound](std::unique_ptr<san::RewardVariable> reward) {
    san::RewardVariable* raw = reward.get();
    bound.rewards.push_back(std::move(reward));
    bound.finalize = [raw](san::Time end) { return raw->time_averaged(end); };
  };
  const auto ratio = [&bound](std::unique_ptr<san::RewardVariable> numerator,
                              std::unique_ptr<san::RewardVariable> denominator) {
    san::RewardVariable* num = numerator.get();
    san::RewardVariable* den = denominator.get();
    bound.rewards.push_back(std::move(numerator));
    bound.rewards.push_back(std::move(denominator));
    bound.finalize = [num, den](san::Time) {
      const double d = den->accumulated();
      return d > 0 ? num->accumulated() / d : 0.0;
    };
  };

  switch (request.kind) {
    case MetricKind::kVcpuAvailability:
      single(vm::vcpu_availability(system, request.index, warmup));
      break;
    case MetricKind::kMeanVcpuAvailability:
      single(vm::mean_vcpu_availability(system, warmup));
      break;
    case MetricKind::kPcpuUtilization:
      single(vm::pcpu_utilization(system, warmup));
      break;
    case MetricKind::kVcpuUtilization:
      // Paper metric: busy time over scheduled (ACTIVE) time.
      ratio(vm::vcpu_utilization(system, request.index, warmup),
            vm::vcpu_availability(system, request.index, warmup));
      break;
    case MetricKind::kMeanVcpuUtilization:
      // Sum of busy over sum of active across all VCPUs.
      ratio(vm::mean_vcpu_utilization(system, warmup),
            vm::mean_vcpu_availability(system, warmup));
      break;
    case MetricKind::kVcpuBusyFraction:
      single(vm::vcpu_utilization(system, request.index, warmup));
      break;
    case MetricKind::kMeanVcpuBusyFraction:
      single(vm::mean_vcpu_utilization(system, warmup));
      break;
    case MetricKind::kVmBlockedFraction:
      single(vm::vm_blocked_fraction(system, request.index, warmup));
      break;
    case MetricKind::kThroughput:
      single(vm::system_throughput(system, warmup));
      break;
    case MetricKind::kMeanSpinFraction:
      single(vm::mean_spin_fraction(system, warmup));
      break;
    case MetricKind::kMeanEffectiveUtilization:
      // Productive (non-spinning) busy time over scheduled time.
      ratio(vm::mean_productive_fraction(system, warmup),
            vm::mean_vcpu_availability(system, warmup));
      break;
    case MetricKind::kEnergy: {
      // Energy is the *integral* of the power rate, not its time
      // average: report the accumulated value.
      auto reward = vm::energy_rate(system, warmup);
      san::RewardVariable* raw = reward.get();
      bound.rewards.push_back(std::move(reward));
      bound.finalize = [raw](san::Time) { return raw->accumulated(); };
      break;
    }
  }
  if (!bound.finalize) {
    throw std::invalid_argument("run_point: unknown metric kind");
  }
  return bound;
}

/// Observability record of one replication, captured inside the
/// (possibly concurrent) replication function and folded after the
/// parallel region.
struct RepRecord {
  san::RunStats stats;
  vm::BridgeStats bridge;
  stats::PhaseProfile profile;  ///< reset + simulator + bridge phases merged
  san::KernelStats kernel;      ///< compiled-kernel census
  std::unique_ptr<trace::RingBufferSink> trace;
};

/// The metric bindings a pool slot is carrying, stored opaquely in
/// SystemPool::Slot::bindings (the pool cannot see this TU's types).
struct SlotBindings {
  std::vector<BoundMetric> bound;
};

}  // namespace

stats::ReplicationResult run_point(const RunSpec& spec,
                                   const std::vector<MetricRequest>& metrics) {
  if (metrics.empty()) {
    throw std::invalid_argument("run_point: no metrics requested");
  }
  if (!spec.scheduler) {
    throw std::invalid_argument("run_point: no scheduler factory");
  }
  if (!(spec.warmup >= 0) || spec.warmup >= spec.end_time) {
    throw std::invalid_argument("run_point: warmup must be in [0, end_time)");
  }
  std::unique_ptr<SystemPool> local_pool;
  SystemPool* pool = spec.pool;
  if (pool == nullptr) {
    local_pool = std::make_unique<SystemPool>(spec.system);
    pool = local_pool.get();
  } else if (pool->fingerprint() != SystemPool::fingerprint_of(spec.system)) {
    throw std::invalid_argument(
        "run_point: spec.pool was built for a different system "
        "configuration (fingerprint mismatch)");
  }
  const std::uint64_t stamp = pool->next_stamp();
  const std::uint64_t pool_builds_before = pool->builds();
  const std::uint64_t pool_reuses_before = pool->reuses();

  if (spec.lint) {
    // Fail fast on structural defects before spending replication time.
    auto system = vm::build_system(spec.system, spec.scheduler());
    san::analyze::Analyzer().check_or_throw(*system->model);
    // The lint build is a perfectly good pooled system: seed the pool so
    // replication 0 checks it out instead of building again.
    pool->add_built(std::move(system));
  }

  std::vector<std::string> names;
  names.reserve(metrics.size());
  for (const auto& m : metrics) {
    names.push_back(m.label.empty() ? default_label(m) : m.label);
  }

  const bool observe =
      spec.metrics != nullptr || spec.trace != nullptr || spec.profile;
  std::mutex records_mutex;
  std::map<std::size_t, RepRecord> records;

  // One replication: check a pool slot out, build/rebind it only on the
  // first touch and reset it otherwise (the kReset phase times all of
  // that setup), replay the replication from the re-seeded simulator
  // into a private trace buffer, finalize the metrics and capture the
  // observability record.
  const auto one_replication = [&](const stats::ReplicationTask& task)
      -> std::vector<double> {
    const std::size_t rep = task.rep;
    const std::uint64_t seed =
        san::replication_seed(spec.base_seed, task.stream.stream);
    stats::PhaseProfile reset_profile;
    reset_profile.set_enabled(spec.profile);
    SystemPool::Checkout checkout;
    {
      stats::ScopedPhaseTimer timer(&reset_profile, stats::Phase::kReset);
      checkout = pool->acquire();
      SystemPool::Slot& slot = checkout.slot();
      bool built = false;
      if (slot.system == nullptr) {
        slot.system = vm::build_system(spec.system, spec.scheduler());
        built = true;
      }
      if (slot.stamp != stamp) {
        // First touch by this run: bind the slot to this run's
        // scheduler, simulator configuration and metric set. The
        // expensive part (build_system) is what stays amortized; the
        // simulator re-derives its index from the already-built model.
        if (!built) slot.system->rebind_scheduler(spec.scheduler());
        san::SimulatorConfig config;
        config.end_time = spec.end_time;
        config.seed = seed;
        config.incremental_enabling = spec.incremental_enabling;
        config.profile = spec.profile;
        config.verify_footprints = spec.verify_footprints;
        slot.simulator = std::make_unique<san::Simulator>(config);
        slot.simulator->set_model(*slot.system->model);
        auto bindings = std::make_shared<SlotBindings>();
        bindings->bound.reserve(metrics.size());
        for (const auto& m : metrics) {
          bindings->bound.push_back(bind_metric(*slot.system, m, spec.warmup));
        }
        for (auto& b : bindings->bound) {
          for (auto& r : b.rewards) slot.simulator->add_reward(*r);
        }
        slot.bindings = std::move(bindings);
        slot.stamp = stamp;
        if (slot.system->scheduler_places.profile != nullptr) {
          slot.system->scheduler_places.profile->set_enabled(spec.profile);
        }
      }
      // Bridge counters + scheduler state back to just-built (a system
      // built this very checkout is already there).
      if (!built) slot.system->reset();
    }
    vm::VirtualSystem& system = *checkout.slot().system;
    san::Simulator& sim = *checkout.slot().simulator;
    auto& bound =
        static_cast<SlotBindings*>(checkout.slot().bindings.get())->bound;

    std::unique_ptr<trace::RingBufferSink> buffer;
    if (spec.trace != nullptr) {
      // Unbounded private buffer; the category mask mirrors the user
      // sink's so unwanted events are never constructed.
      buffer = std::make_unique<trace::RingBufferSink>(
          0, spec.trace->categories());
      sim.set_trace(buffer.get());
    }
    sim.reset(seed, task.stream.antithetic);
    const san::RunStats run_stats = sim.advance_until(spec.end_time);
    sim.set_trace(nullptr);
    if (spec.verify_footprints) {
      const san::FootprintReport* fp = sim.footprint_report();
      if (fp != nullptr && fp->errors() > 0) {
        throw std::runtime_error("footprint sanitizer: replication " +
                                 std::to_string(rep) + " reported " +
                                 std::to_string(fp->errors()) +
                                 " violation(s)\n" + fp->render_text());
      }
    }
    std::vector<double> obs;
    obs.reserve(bound.size());
    for (auto& b : bound) obs.push_back(b.finalize(spec.end_time));
    if (observe) {
      RepRecord record;
      record.stats = run_stats;
      if (system.scheduler_places.bridge_stats != nullptr) {
        record.bridge = *system.scheduler_places.bridge_stats;
      }
      record.profile = std::move(reset_profile);
      record.profile.merge(sim.profile());
      // Drained, not copied: compilation happens once per set_model, so
      // only the replication that compiled carries the kCompile phase.
      record.profile.merge(sim.take_compile_profile());
      record.kernel = sim.kernel_stats();
      if (spec.profile && system.scheduler_places.profile != nullptr) {
        record.profile.merge(*system.scheduler_places.profile);
      }
      record.trace = std::move(buffer);
      const std::lock_guard<std::mutex> lock(records_mutex);
      records.insert_or_assign(rep, std::move(record));
    }
    return obs;
  };

  const auto controller = stats::make_controller(spec.controller, spec.policy);
  stats::ReplicationResult result =
      stats::run_replications(names, one_replication, *controller, spec.jobs);

  // Prune speculative records past the stopping index: they are never
  // forwarded or folded, and each may hold a full trace buffer.
  records.erase(records.lower_bound(result.replications), records.end());

  // Forward the buffered per-replication streams in index order, each
  // preceded by a replication marker — the stream the user sink sees is
  // therefore identical for every `jobs` value (speculative replications
  // past the stopping point are buffered but never forwarded).
  if (spec.trace != nullptr) {
    for (std::size_t rep = 0; rep < result.replications; ++rep) {
      if (spec.trace->wants(san::TraceCategory::kMarker)) {
        spec.trace->on_event(san::TraceEvent{
            san::TraceCategory::kMarker, 0.0, 0,
            "replication", static_cast<std::int64_t>(rep), 0, {}});
      }
      const auto it = records.find(rep);
      if (it != records.end() && it->second.trace != nullptr) {
        it->second.trace->replay_into(*spec.trace);
      }
    }
  }

  // Fold the deterministic per-replication counters (non-speculative
  // replications only, index order) and the executor bookkeeping into
  // the registry.
  if (spec.metrics != nullptr) {
    stats::MetricsRegistry& reg = *spec.metrics;
    stats::PhaseProfile profile_total;
    bool kernel_exported = false;
    for (std::size_t rep = 0; rep < result.replications; ++rep) {
      const auto it = records.find(rep);
      if (it == records.end()) continue;
      const RepRecord& record = it->second;
      reg.counter("sim.events").add(record.stats.events);
      reg.counter("sim.enabling_evals").add(record.stats.enabling_evals);
      reg.summary("sim.events_per_replication")
          .add(static_cast<double>(record.stats.events));
      reg.counter("sched.ticks").add(record.bridge.ticks);
      reg.counter("sched.schedules_in").add(record.bridge.schedules_in);
      reg.counter("sched.schedules_out").add(record.bridge.schedules_out);
      reg.counter("sched.preemptions").add(record.bridge.preemptions);
      reg.counter("sched.freq_changes").add(record.bridge.freq_changes);
      profile_total.merge(record.profile);
      // Static per-model census — identical for every replication of the
      // run, so exported once.
      if (!kernel_exported) {
        reg.counter("arena.bytes").add(record.kernel.arena_bytes);
        reg.counter("kernel.compiled_gates").add(record.kernel.compiled_gates);
        reg.counter("kernel.trampoline_gates")
            .add(record.kernel.trampoline_gates);
        kernel_exported = true;
      }
    }
    reg.counter("run.replications").add(result.replications);
    if (result.converged) reg.counter("run.converged").add(1);
    // Which controller drove the run, as a self-describing flag counter.
    reg.counter("run.controller." + result.controller).add(1);
    reg.counter("run.controller.batches").add(result.batches);
    // The single waste figure: replications invoked past the stopping
    // index and discarded (previously derivable only as
    // executor.invoked - run.replications).
    reg.counter("executor.speculative_waste").add(result.speculative_waste());
    reg.counter("executor.batches").add(result.batches);
    reg.gauge("executor.jobs").set(static_cast<double>(result.jobs));
    // Deltas, so a shared external pool reports per-run figures.
    reg.counter("executor.pool_builds").add(pool->builds() - pool_builds_before);
    reg.counter("executor.pool_reuses").add(pool->reuses() - pool_reuses_before);
    for (const auto& m : result.metrics) {
      reg.summary("metric." + m.name) = m.samples;
    }
    if (spec.profile) profile_total.export_to(reg);
  }
  return result;
}

}  // namespace vcpusim::exp
