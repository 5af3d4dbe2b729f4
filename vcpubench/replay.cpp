#include "replay.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "san/analyze/analyzer.hpp"
#include "san/experiment.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "stats/phase_profile.hpp"
#include "stats/replication.hpp"
#include "vm/metrics.hpp"
#include "vm/system_builder.hpp"

namespace vcpubench {

namespace san = vcpusim::san;
namespace vm = vcpusim::vm;

int SpanLog::open(std::string name, int pass, int parent, int point,
                  int rep) {
  return add(std::move(name), pass, parent, point, rep, now_ns(), 0);
}

void SpanLog::close(int id) {
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.dur_ns = now_ns() - span.start_ns;
}

int SpanLog::add(std::string name, int pass, int parent, int point, int rep,
                 std::uint64_t start_ns, std::uint64_t dur_ns) {
  spans_.push_back(
      Span{std::move(name), pass, parent, point, rep, start_ns, dur_ns});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::write_jsonl(std::ostream& os) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << "{\"id\":" << i << ",\"pass\":" << s.pass
       << ",\"parent\":" << s.parent << ",\"name\":\"" << s.name
       << "\",\"point\":" << s.point << ",\"rep\":" << s.rep
       << ",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << s.dur_ns
       << "}\n";
  }
}

namespace {

/// Forwards to the wrapped scheduler and sums the host time of its
/// decide calls, so decide time is measured from outside the library.
class TimedScheduler final : public vm::Scheduler {
 public:
  TimedScheduler(vm::SchedulerPtr inner, std::uint64_t* decide_ns)
      : inner_(std::move(inner)), decide_ns_(decide_ns) {}

  void on_attach(const vm::SystemTopology& topology) override {
    inner_->on_attach(topology);
  }
  void on_reset(const vm::SystemTopology& topology) override {
    inner_->on_reset(topology);
  }
  bool schedule(std::span<vm::VCPU_host_external> vcpus,
                std::span<vm::PCPU_external> pcpus, long timestamp) override {
    const std::uint64_t start = now_ns();
    const bool changed = inner_->schedule(vcpus, pcpus, timestamp);
    *decide_ns_ += now_ns() - start;
    return changed;
  }
  std::string name() const override { return inner_->name(); }

 private:
  vm::SchedulerPtr inner_;
  std::uint64_t* decide_ns_;
};

/// One metric's reward variables and its end-of-run reduction, built the
/// way exp::run_point binds the same MetricKind.
struct Binding {
  std::vector<std::unique_ptr<san::RewardVariable>> rewards;
  enum class Reduce { kTimeAverage, kRatio, kAccumulated } reduce;

  double value(san::Time end) const {
    switch (reduce) {
      case Reduce::kTimeAverage:
        return rewards[0]->time_averaged(end);
      case Reduce::kRatio: {
        const double d = rewards[1]->accumulated();
        return d > 0 ? rewards[0]->accumulated() / d : 0.0;
      }
      case Reduce::kAccumulated:
        return rewards[0]->accumulated();
    }
    return 0.0;
  }
};

Binding bind(const vm::VirtualSystem& system, const exp::MetricRequest& m,
             san::Time warmup) {
  Binding b;
  using Reduce = Binding::Reduce;
  b.reduce = Reduce::kTimeAverage;
  switch (m.kind) {
    case exp::MetricKind::kVcpuAvailability:
      b.rewards.push_back(vm::vcpu_availability(system, m.index, warmup));
      break;
    case exp::MetricKind::kMeanVcpuAvailability:
      b.rewards.push_back(vm::mean_vcpu_availability(system, warmup));
      break;
    case exp::MetricKind::kPcpuUtilization:
      b.rewards.push_back(vm::pcpu_utilization(system, warmup));
      break;
    case exp::MetricKind::kMeanVcpuUtilization:
      b.reduce = Reduce::kRatio;
      b.rewards.push_back(vm::mean_vcpu_utilization(system, warmup));
      b.rewards.push_back(vm::mean_vcpu_availability(system, warmup));
      break;
    case exp::MetricKind::kThroughput:
      b.rewards.push_back(vm::system_throughput(system, warmup));
      break;
    case exp::MetricKind::kEnergy:
      b.reduce = Reduce::kAccumulated;
      b.rewards.push_back(vm::energy_rate(system, warmup));
      break;
    default:
      throw std::invalid_argument("replay: metric kind not used by any "
                                  "workload: " + exp::default_label(m));
  }
  return b;
}

using stats::Phase;

/// Replay one point; spans are children of `root`.
PointOutcome replay_point(const Point& point, std::size_t replications_pin,
                          SpanLog& log, int pass, int root, int index,
                          ReplayResult& out) {
  PointOutcome outcome;
  std::uint64_t decide_ns = 0;
  const auto inner = vcpusim::sched::make_factory(point.algorithm);
  const auto timed = [&inner, &decide_ns]() -> vm::SchedulerPtr {
    return std::make_unique<TimedScheduler>(inner(), &decide_ns);
  };
  const exp::RunSpec& spec = point.spec;

  int span = log.open("vm.build", pass, root, index, -1);
  auto system = vm::build_system(spec.system, timed());
  log.close(span);

  if (spec.lint) {
    span = log.open("san.lint", pass, root, index, -1);
    san::analyze::Analyzer().check_or_throw(*system->model);
    log.close(span);
  }

  span = log.open("san.compile", pass, root, index, -1);
  san::SimulatorConfig config;
  config.end_time = spec.end_time;
  config.seed = san::replication_seed(spec.base_seed, 0);
  config.incremental_enabling = spec.incremental_enabling;
  config.engine = spec.engine;
  config.profile = true;
  san::Simulator sim(config);
  sim.set_model(*system->model);
  log.close(span);
  const san::KernelStats kernel = sim.kernel_stats();

  span = log.open("exp.bind", pass, root, index, -1);
  std::vector<Binding> bindings;
  for (const auto& m : point.metrics) {
    bindings.push_back(bind(*system, m, spec.warmup));
    for (auto& r : bindings.back().rewards) sim.add_reward(*r);
  }
  std::vector<std::string> names;
  for (const auto& m : point.metrics) {
    names.push_back(m.label.empty() ? exp::default_label(m) : m.label);
  }
  stats::PhaseProfile& bridge_profile = *system->scheduler_places.profile;
  bridge_profile.set_enabled(true);
  log.close(span);

  std::map<std::string, std::uint64_t>& counters = outcome.counters;
  const int stats_span = log.open("stats.replications", pass, root, index, -1);
  const stats::StreamedReplicationFn fn =
      [&](const stats::ReplicationTask& task) -> std::vector<double> {
    const int rep = static_cast<int>(task.rep);
    const int rep_span = log.open("exp.rep", pass, stats_span, index, rep);
    int s = log.open("vm.reset", pass, rep_span, index, rep);
    system->reset();
    log.close(s);
    out.vm_reset_ns += log.spans()[static_cast<std::size_t>(s)].dur_ns;

    s = log.open("san.reset", pass, rep_span, index, rep);
    sim.reset(san::replication_seed(spec.base_seed, task.stream.stream),
              task.stream.antithetic);
    log.close(s);
    out.san_reset_ns += log.spans()[static_cast<std::size_t>(s)].dur_ns;

    decide_ns = 0;
    const int advance = log.open("san.advance", pass, rep_span, index, rep);
    const san::RunStats run = sim.advance_until(spec.end_time);
    log.close(advance);
    const Span& adv = log.spans()[static_cast<std::size_t>(advance)];
    const std::uint64_t advance_ns = adv.dur_ns;
    const std::uint64_t advance_start = adv.start_ns;
    const std::uint64_t bridge = bridge_profile.nanoseconds(Phase::kSnapshot) +
                                 bridge_profile.nanoseconds(Phase::kApply);
    log.add("sched.decide", pass, advance, index, rep, advance_start,
            decide_ns);
    log.add("vm.bridge", pass, advance, index, rep, advance_start, bridge);
    out.decide_ns += decide_ns;
    out.bridge_ns += bridge;
    // The bridge phases run inside the Scheduling_Func fire, and that
    // inside advance_until: de-nest them. A replication whose nested
    // times outlast the enclosing one would make the self times wrong,
    // so it is counted and fails the run.
    const std::uint64_t nested = bridge + bridge_profile.nanoseconds(
                                              Phase::kDecide);
    const std::uint64_t fire = sim.profile().nanoseconds(Phase::kFire);
    if (nested > fire || decide_ns + bridge > advance_ns) {
      ++out.denest_violations;
    } else {
      out.advance_self_ns += advance_ns - decide_ns - bridge;
      out.fire_self_ns += fire - nested;
    }
    out.settle_ns += sim.profile().nanoseconds(Phase::kSettle);

    const vm::BridgeStats& ticks = *system->scheduler_places.bridge_stats;
    counters["sim.events"] += run.events;
    counters["sim.enabling_evals"] += run.enabling_evals;
    counters["sched.ticks"] += ticks.ticks;
    counters["sched.schedules_in"] += ticks.schedules_in;
    counters["sched.schedules_out"] += ticks.schedules_out;
    counters["sched.preemptions"] += ticks.preemptions;
    counters["sched.freq_changes"] += ticks.freq_changes;
    out.aborted += run.aborted_events;
    if (run.hit_event_cap) {
      outcome.max_events_per_rep = static_cast<double>(config.max_events);
    }

    s = log.open("exp.finalize", pass, rep_span, index, rep);
    std::vector<double> obs;
    obs.reserve(bindings.size());
    for (const auto& b : bindings) obs.push_back(b.value(spec.end_time));
    log.close(s);
    log.close(rep_span);
    return obs;
  };
  stats::ReplicationPolicy policy = spec.policy;
  if (replications_pin > 0) {
    policy.min_replications = replications_pin;
    policy.max_replications = replications_pin;
  }
  const auto controller = stats::make_controller(spec.controller, policy);
  const stats::ReplicationResult result =
      stats::run_replications(names, fn, *controller, 1);
  log.close(stats_span);

  counters["run.replications"] = result.replications;
  counters["kernel.compiled_gates"] = kernel.compiled_gates;
  counters["kernel.trampoline_gates"] = kernel.trampoline_gates;
  outcome.replications = result.replications;
  outcome.converged = result.converged;
  for (const auto& m : result.metrics) {
    outcome.names.push_back(m.name);
    outcome.estimates.push_back(m.ci);
  }
  return outcome;
}

}  // namespace

ReplayResult replay(const Workload& workload, SpanLog& log, int pass) {
  ReplayResult out;
  const std::size_t first = log.spans().size();
  const std::uint64_t start = now_ns();
  for (std::size_t i = 0; i < workload.points.size(); ++i) {
    const int index = static_cast<int>(i);
    const int root = log.open("exp.point", pass, -1, index, -1);
    // compare_points pins every leg to the baseline's replication count.
    const std::size_t pin =
        workload.compare && i > 0 ? out.outcomes.front().replications : 0;
    try {
      out.outcomes.push_back(
          replay_point(workload.points[i], pin, log, pass, root, index, out));
    } catch (const std::exception& e) {
      PointOutcome failed;
      failed.error = e.what();
      out.outcomes.push_back(std::move(failed));
    }
    log.close(root);
  }
  out.wall_ns = now_ns() - start;

  for (const auto& o : out.outcomes) {
    const auto count = [&o](const char* name) -> std::uint64_t {
      const auto it = o.counters.find(name);
      return it != o.counters.end() ? it->second : 0;
    };
    out.replications += count("run.replications");
    out.events += count("sim.events");
    out.evals += count("sim.enabling_evals");
    out.ticks += count("sched.ticks");
    out.preemptions += count("sched.preemptions");
    out.compiled_gates += count("kernel.compiled_gates");
    out.trampoline_gates += count("kernel.trampoline_gates");
  }

  // Self time per span, then per layer.
  const auto& spans = log.spans();
  std::vector<std::uint64_t> child_ns(spans.size() - first, 0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      child_ns[static_cast<std::size_t>(spans[i].parent) - first] +=
          spans[i].dur_ns;
    }
  }
  for (const char* layer : {"exp", "stats", "vm", "san", "sched"}) {
    out.layer_self_ns[layer] = 0;
  }
  for (std::size_t i = first; i < spans.size(); ++i) {
    const std::uint64_t children = child_ns[i - first];
    if (children > spans[i].dur_ns) {
      out.negative_self = true;
      continue;
    }
    const std::string& name = spans[i].name;
    out.layer_self_ns[name.substr(0, name.find('.'))] +=
        spans[i].dur_ns - children;
  }
  return out;
}

double ReplayResult::unattributed_share() const {
  std::uint64_t self = 0;
  for (const auto& [layer, ns] : layer_self_ns) self += ns;
  return (static_cast<double>(wall_ns) - static_cast<double>(self)) /
         static_cast<double>(std::max<std::uint64_t>(wall_ns, 1));
}

}  // namespace vcpubench
