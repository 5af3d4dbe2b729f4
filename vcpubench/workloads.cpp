// The three benchmark workloads, generated from the seed, and the output
// checks that do not need a reference: finite estimates, the event cap,
// convergence, and the paper's exact cells. README.md gives the reason
// for each workload.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "exp/quality.hpp"
#include "san/simulator.hpp"
#include "vcpubench.hpp"
#include "vm/config.hpp"

namespace vcpubench {

namespace vm = vcpusim::vm;

namespace {

const std::vector<std::string> kPaperAlgorithms = {"rrs", "scs", "rcs"};

/// The load distribution of a VM left at its defaults.
stats::DistributionPtr default_load() {
  vm::VmConfig cfg;
  cfg.apply_defaults();
  return cfg.load_distribution;
}

/// Shortened horizon and replication budget for the self-test. Points
/// with a fixed replication count keep it fixed; stopping-rule points
/// get a target they meet at the minimum.
void make_tiny(exp::RunSpec& spec) {
  spec.end_time = 1000.0;
  spec.warmup = 100.0;
  auto& policy = spec.policy;
  if (policy.min_replications == policy.max_replications) {
    policy.max_replications = 3;
  } else {
    policy.max_replications = 4;
    policy.target_half_width = 1.0;
  }
  policy.min_replications = 3;
}

std::string set_label(const std::vector<int>& vms) {
  std::string out;
  for (const int v : vms) {
    if (!out.empty()) out += '+';
    out += std::to_string(v);
  }
  return out;
}

/// Fig. 8/9/10 grids at the `full` quality preset, lint on, two lanes.
Workload paper_figs(std::uint64_t seed) {
  Workload w;
  w.name = "paper-figs";
  w.load = default_load();
  const auto point = [&](std::string id, const std::string& algorithm,
                         vm::SystemConfig system,
                         std::vector<exp::MetricRequest> metrics) {
    Point p;
    p.id = std::move(id);
    p.algorithm = algorithm;
    p.spec.system = std::move(system);
    p.spec.base_seed = seed;
    p.spec.lint = true;
    p.spec.jobs = 2;
    exp::apply(exp::quality_preset("full"), p.spec);
    p.metrics = std::move(metrics);
    w.points.push_back(std::move(p));
  };
  for (const auto& algorithm : kPaperAlgorithms) {
    for (int pcpus = 1; pcpus <= 4; ++pcpus) {
      std::vector<exp::MetricRequest> metrics;
      for (int v = 0; v < 4; ++v) {
        metrics.push_back({exp::MetricKind::kVcpuAvailability, v, ""});
      }
      point("fig8/" + algorithm + "/p" + std::to_string(pcpus), algorithm,
            vm::make_symmetric_config(pcpus, {2, 1, 1}, 5), std::move(metrics));
    }
  }
  const std::vector<std::vector<int>> sets = {{2, 2}, {2, 3}, {2, 4}};
  for (const auto& vms : sets) {
    for (const auto& algorithm : kPaperAlgorithms) {
      point("fig9/" + algorithm + "/" + set_label(vms), algorithm,
            vm::make_symmetric_config(4, vms, 5),
            {{exp::MetricKind::kPcpuUtilization, -1, ""}});
    }
  }
  for (const auto& vms : sets) {
    for (int k = 5; k >= 2; --k) {
      for (const auto& algorithm : kPaperAlgorithms) {
        point("fig10/" + algorithm + "/" + set_label(vms) + "/k" +
                  std::to_string(k),
              algorithm, vm::make_symmetric_config(4, vms, k),
              {{exp::MetricKind::kMeanVcpuUtilization, -1, ""}});
      }
    }
  }
  return w;
}

/// Exactly `replications` replications at horizon 10000, warm-up 500.
exp::RunSpec fixed_count_spec(vm::SystemConfig system, std::uint64_t seed,
                              std::size_t replications) {
  exp::RunSpec spec;
  spec.system = std::move(system);
  spec.base_seed = seed;
  spec.lint = true;
  spec.jobs = 1;
  spec.end_time = 10000.0;
  spec.warmup = 500.0;
  spec.policy.min_replications = replications;
  spec.policy.max_replications = replications;
  return spec;
}

/// One large model: 128 two-VCPU VMs on 128 PCPUs under RRS.
Workload host_256(std::uint64_t seed) {
  Workload w;
  w.name = "host-256";
  Point p;
  p.id = "host256/rrs";
  p.algorithm = "rrs";
  p.spec = fixed_count_spec(
      vm::make_symmetric_config(128, std::vector<int>(128, 2), 5), seed, 6);
  p.metrics = {{exp::MetricKind::kMeanVcpuAvailability, -1, ""},
               {exp::MetricKind::kPcpuUtilization, -1, ""},
               {exp::MetricKind::kMeanVcpuUtilization, -1, ""}};
  w.load = default_load();
  w.points.push_back(std::move(p));
  return w;
}

/// 30 mixed VMs (64 VCPUs) on 24 DVFS PCPUs, four schedulers under CRN.
Workload crn_mix_64(std::uint64_t seed) {
  Workload w;
  w.name = "crn-mix-64";
  w.compare = true;
  w.load = stats::make_uniform_int(2, 12);
  vm::SystemConfig system;
  system.num_pcpus = 24;
  system.dvfs.enabled = true;
  // {VCPUs per VM, VM count, how many of them carry spinlocks}
  const int shape[4][3] = {{8, 2, 1}, {4, 4, 1}, {2, 8, 3}, {1, 16, 0}};
  for (const auto& [vcpus, count, locked] : shape) {
    for (int i = 0; i < count; ++i) {
      vm::VmConfig cfg;
      cfg.num_vcpus = vcpus;
      cfg.load_distribution = w.load;
      cfg.sync_ratio_k = vcpus > 1 ? 3 : 0;
      if (i < locked) {
        cfg.spinlock.enabled = true;
        cfg.spinlock.lock_probability = 0.5;
        cfg.spinlock.critical_fraction = 0.3;
      }
      system.vms.push_back(std::move(cfg));
    }
  }
  for (const char* algorithm : {"credit", "rcs", "scs", "dvfs-cc"}) {
    Point p;
    p.id = std::string("crn/") + algorithm;
    p.algorithm = algorithm;
    p.spec = fixed_count_spec(system, seed, 6);
    p.metrics = {{exp::MetricKind::kMeanVcpuAvailability, -1, ""},
                 {exp::MetricKind::kMeanVcpuUtilization, -1, ""},
                 {exp::MetricKind::kPcpuUtilization, -1, ""},
                 {exp::MetricKind::kThroughput, -1, ""},
                 {exp::MetricKind::kEnergy, -1, ""}};
    w.points.push_back(std::move(p));
  }
  return w;
}

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
}

void fnv(std::uint64_t& h, const std::string& s) {
  fnv(h, s.data(), s.size());
  fnv(h, "\0", 1);
}

void fnv(std::uint64_t& h, std::uint64_t v) { fnv(h, &v, sizeof v); }

void fnv(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv(h, bits);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  Workload w;
  if (name == "paper-figs") {
    w = paper_figs(seed);
  } else if (name == "host-256") {
    w = host_256(seed);
  } else if (name == "crn-mix-64") {
    w = crn_mix_64(seed);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  if (tiny) {
    for (auto& p : w.points) make_tiny(p.spec);
  }
  return w;
}

const std::vector<std::string>& exact_counter_names(bool replayable) {
  static const std::vector<std::string> replay = {
      "kernel.compiled_gates", "kernel.trampoline_gates", "run.replications",
      "sched.freq_changes",    "sched.preemptions",       "sched.schedules_in",
      "sched.schedules_out",   "sched.ticks",             "sim.enabling_evals",
      "sim.events"};
  static const std::vector<std::string> all = [] {
    std::vector<std::string> v = replay;
    for (const char* n : {"executor.batches", "executor.speculative_waste"}) {
      v.emplace_back(n);
    }
    std::sort(v.begin(), v.end());
    return v;
  }();
  return replayable ? replay : all;
}

std::uint64_t estimate_digest(const PointOutcome& outcome) {
  std::uint64_t h = kFnvOffset;
  fnv(h, static_cast<std::uint64_t>(outcome.replications));
  for (std::size_t m = 0; m < outcome.estimates.size(); ++m) {
    fnv(h, outcome.names.at(m));
    fnv(h, outcome.estimates[m].mean);
    fnv(h, outcome.estimates[m].half_width);
    fnv(h, static_cast<std::uint64_t>(outcome.estimates[m].count));
  }
  return h;
}

std::uint64_t counter_digest(const PointOutcome& outcome, bool replayable) {
  std::uint64_t h = kFnvOffset;
  for (const auto& name : exact_counter_names(replayable)) {
    const auto it = outcome.counters.find(name);
    fnv(h, name);
    fnv(h, it != outcome.counters.end() ? it->second : 0);
  }
  return h;
}

std::string check_outcome(const Workload& workload, const Point& point,
                          const PointOutcome& outcome) {
  if (!outcome.error.empty()) return "threw: " + outcome.error;
  if (outcome.estimates.size() != point.metrics.size()) {
    return "estimate count differs from the metrics requested";
  }
  for (std::size_t m = 0; m < outcome.estimates.size(); ++m) {
    const auto& ci = outcome.estimates[m];
    if (!std::isfinite(ci.mean) || !std::isfinite(ci.half_width)) {
      return "non-finite estimate for " + outcome.names[m];
    }
  }
  const vcpusim::san::SimulatorConfig defaults;
  if (outcome.max_events_per_rep >= static_cast<double>(defaults.max_events)) {
    return "a replication hit max_events";
  }
  const auto& policy = point.spec.policy;
  if (policy.min_replications < policy.max_replications) {
    // A stopping-rule point must stop on the rule, not on the cap.
    if (!outcome.converged) {
      return "did not converge within " +
             std::to_string(policy.max_replications) + " replications";
    }
  } else if (outcome.replications != policy.max_replications) {
    return "ran " + std::to_string(outcome.replications) + " of " +
           std::to_string(policy.max_replications) + " replications";
  }
  if (workload.name != "paper-figs") return "";

  // The paper's exact cells (EXPERIMENTS.md, Fig. 8): RRS hands every
  // VCPU exactly min(1, P/4) of a PCPU, and SCS never schedules the
  // 2-VCPU VM on one PCPU.
  const int pcpus = point.spec.system.num_pcpus;
  const bool fig8 = point.id.rfind("fig8/", 0) == 0;
  constexpr double kExact = 1e-12;
  if (fig8 && point.algorithm == "rrs") {
    const double share = std::min(1.0, pcpus / 4.0);
    for (std::size_t m = 0; m < outcome.estimates.size(); ++m) {
      if (std::abs(outcome.estimates[m].mean - share) > kExact) {
        return "RRS availability of " + outcome.names[m] + " is not " +
               std::to_string(share);
      }
    }
  }
  if (fig8 && point.algorithm == "scs" && pcpus == 1) {
    for (std::size_t m = 0; m < 2; ++m) {
      if (std::abs(outcome.estimates[m].mean) > kExact) {
        return "SCS schedules the 2-VCPU VM on one PCPU (" +
               outcome.names[m] + ")";
      }
    }
  }
  return "";
}

}  // namespace vcpubench
