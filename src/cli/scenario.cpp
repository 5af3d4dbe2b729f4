#include "cli/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "sched/registry.hpp"

namespace vcpusim::cli {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return s;
}

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + message);
}

double parse_number(int line, const std::string& key, const std::string& v) {
  try {
    return cli::parse_number(key, v);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

std::uint64_t parse_count(int line, const std::string& key,
                          const std::string& v,
                          std::uint64_t max = kMaxExactCount) {
  try {
    return cli::parse_count(key, v, max);
  } catch (const std::invalid_argument& e) {
    fail(line, e.what());
  }
}

/// A min/max_replications value, held to the rule run_replications
/// enforces.
std::size_t parse_replications(int line, const std::string& key,
                               const std::string& v) {
  const std::uint64_t n = parse_count(line, key, v);
  if (!stats::ReplicationPolicy::valid_replication_bound(n)) {
    fail(line, key + " must be >= 2, got " + v);
  }
  return n;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::istringstream is(s);
  std::string token;
  while (std::getline(is, token, sep)) {
    const std::string t = trim(token);
    if (!t.empty()) parts.push_back(t);
  }
  return parts;
}

}  // namespace

double parse_number(const std::string& what, const std::string& text) {
  try {
    std::size_t used = 0;
    const double x = std::stod(text, &used);
    if (used == text.size()) return x;
  } catch (const std::exception&) {
  }
  throw std::invalid_argument("invalid number for '" + what + "': " + text);
}

std::uint64_t parse_count(const std::string& what, const std::string& text,
                          std::uint64_t max) {
  const double x = parse_number(what, text);
  if (!(x >= 0 && x <= static_cast<double>(max) && x == std::floor(x))) {
    throw std::invalid_argument("'" + what +
                                "' must be a whole number in [0, " +
                                std::to_string(max) + "], got " + text);
  }
  return static_cast<std::uint64_t>(x);
}

exp::MetricRequest parse_metric(const std::string& name) {
  std::string base = lower(trim(name));
  int index = -1;
  const auto open = base.find('[');
  if (open != std::string::npos) {
    const auto close = base.find(']', open);
    if (close == std::string::npos) {
      throw std::invalid_argument("metric '" + name + "': missing ']'");
    }
    if (close + 1 != base.size()) {
      throw std::invalid_argument("metric '" + name +
                                  "': unexpected text after ']'");
    }
    try {
      index = std::stoi(base.substr(open + 1, close - open - 1));
    } catch (const std::exception&) {
      throw std::invalid_argument("metric '" + name + "': bad index");
    }
    if (index < 0) {
      throw std::invalid_argument("metric '" + name +
                                  "': index must be >= 0");
    }
    base = base.substr(0, open);
  }
  const bool indexed = index >= 0;
  // Reject an index on metrics that do not take one, instead of the old
  // behaviour of silently discarding it.
  const auto no_index = [&](const char* metric) {
    if (indexed) {
      throw std::invalid_argument("metric '" + std::string(metric) +
                                  "' does not take an index");
    }
  };
  if (base == "availability" || base == "vcpu_availability") {
    return {indexed ? exp::MetricKind::kVcpuAvailability
                    : exp::MetricKind::kMeanVcpuAvailability,
            index, ""};
  }
  if (base == "vcpu_utilization" || base == "utilization") {
    return {indexed ? exp::MetricKind::kVcpuUtilization
                    : exp::MetricKind::kMeanVcpuUtilization,
            index, ""};
  }
  if (base == "busy_fraction") {
    return {indexed ? exp::MetricKind::kVcpuBusyFraction
                    : exp::MetricKind::kMeanVcpuBusyFraction,
            index, ""};
  }
  if (base == "pcpu_utilization" || base == "pcpu") {
    no_index("pcpu_utilization");
    return {exp::MetricKind::kPcpuUtilization, -1, ""};
  }
  if (base == "blocked_fraction") {
    if (!indexed) {
      throw std::invalid_argument(
          "metric 'blocked_fraction' requires a VM index, e.g. "
          "blocked_fraction[0]");
    }
    return {exp::MetricKind::kVmBlockedFraction, index, ""};
  }
  if (base == "throughput") {
    no_index("throughput");
    return {exp::MetricKind::kThroughput, -1, ""};
  }
  if (base == "spin_fraction") {
    no_index("spin_fraction");
    return {exp::MetricKind::kMeanSpinFraction, -1, ""};
  }
  if (base == "effective_utilization") {
    no_index("effective_utilization");
    return {exp::MetricKind::kMeanEffectiveUtilization, -1, ""};
  }
  if (base == "energy") {
    no_index("energy");
    return {exp::MetricKind::kEnergy, -1, ""};
  }
  throw std::invalid_argument("unknown metric: " + name);
}

Scenario parse_scenario(std::istream& in) {
  Scenario scenario;
  scenario.spec.system.vms.clear();
  vm::VmConfig* current_vm = nullptr;
  bool in_compare = false;
  bool in_dvfs = false;
  std::string compare_baseline;

  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    ++line;
    const auto hash = raw.find('#');
    std::string text = trim(hash == std::string::npos ? raw : raw.substr(0, hash));
    if (text.empty()) continue;

    if (text.front() == '[') {
      if (text.back() != ']') fail(line, "unterminated section header");
      const std::string inside = trim(text.substr(1, text.size() - 2));
      const auto space = inside.find(' ');
      const std::string kind =
          lower(space == std::string::npos ? inside : inside.substr(0, space));
      if (kind == "compare") {
        if (space != std::string::npos) {
          fail(line, "the [compare] section takes no name");
        }
        current_vm = nullptr;
        in_compare = true;
        in_dvfs = false;
        continue;
      }
      if (kind == "dvfs") {
        if (space != std::string::npos) {
          fail(line, "the [dvfs] section takes no name");
        }
        current_vm = nullptr;
        in_compare = false;
        in_dvfs = true;
        scenario.spec.system.dvfs.enabled = true;
        continue;
      }
      if (kind != "vm") fail(line, "unknown section '" + inside + "'");
      vm::VmConfig vm_cfg;
      if (space != std::string::npos) vm_cfg.name = trim(inside.substr(space + 1));
      scenario.spec.system.vms.push_back(std::move(vm_cfg));
      current_vm = &scenario.spec.system.vms.back();
      in_compare = false;
      in_dvfs = false;
      continue;
    }

    const auto eq = text.find('=');
    if (eq == std::string::npos) fail(line, "expected 'key = value'");
    const std::string key = lower(trim(text.substr(0, eq)));
    const std::string value = trim(text.substr(eq + 1));
    if (value.empty()) fail(line, "empty value for '" + key + "'");

    if (in_dvfs) {
      if (key == "levels") {
        // `f:v` pairs, comma-separated, ascending frequency; an empty
        // list is rejected here (an absent key keeps the default ladder).
        scenario.spec.system.dvfs.levels.clear();
        for (const auto& entry : split(value, ',')) {
          const auto parts = split(entry, ':');
          if (parts.size() != 2) {
            fail(line, "invalid dvfs level '" + entry +
                           "': expected frequency:voltage");
          }
          vm::DvfsLevel level;
          level.frequency = parse_number(line, key, parts[0]);
          level.voltage = parse_number(line, key, parts[1]);
          scenario.spec.system.dvfs.levels.push_back(level);
        }
        if (scenario.spec.system.dvfs.levels.empty()) {
          fail(line, "dvfs levels list is empty");
        }
      } else if (key == "policy") {
        // Initial frequency governor: where every PCPU boots.
        const std::string policy = lower(value);
        if (policy == "max") {
          scenario.spec.system.dvfs.initial_level = -1;  // highest level
        } else if (policy == "min") {
          scenario.spec.system.dvfs.initial_level = 0;
        } else {
          const double n = parse_number(line, key, value);
          if (n < 0 || n != static_cast<double>(static_cast<int>(n))) {
            fail(line,
                 "policy must be 'max', 'min' or a level index >= 0");
          }
          scenario.spec.system.dvfs.initial_level = static_cast<int>(n);
        }
      } else {
        fail(line, "unknown dvfs key '" + key + "'");
      }
      continue;
    }

    if (in_compare) {
      if (key == "algorithms") {
        for (const auto& name : split(value, ',')) {
          const std::string algorithm = lower(name);
          try {
            sched::make_factory(algorithm);
          } catch (const std::exception& e) {
            fail(line, e.what());
          }
          scenario.compare_algorithms.push_back(algorithm);
        }
      } else if (key == "baseline") {
        compare_baseline = lower(value);
      } else {
        fail(line, "unknown compare key '" + key + "'");
      }
      continue;
    }

    if (current_vm == nullptr) {
      // Global section.
      if (key == "pcpus") {
        scenario.spec.system.num_pcpus =
            static_cast<int>(parse_count(line, key, value, kMaxIntSetting));
      } else if (key == "timeslice") {
        scenario.spec.system.default_timeslice = parse_number(line, key, value);
      } else if (key == "algorithm") {
        scenario.algorithm = lower(value);
      } else if (key == "end_time") {
        const double t = parse_number(line, key, value);
        if (!san::SimulatorConfig::valid_end_time(t)) {
          fail(line, "end_time must be in (0, 2^53], got " + value);
        }
        scenario.spec.end_time = t;
      } else if (key == "warmup") {
        scenario.spec.warmup = parse_number(line, key, value);
      } else if (key == "seed") {
        scenario.spec.base_seed = parse_count(line, key, value);
      } else if (key == "confidence") {
        const double c = parse_number(line, key, value);
        if (!stats::ReplicationPolicy::valid_confidence(c)) {
          fail(line, "confidence must be in (0, 1), got " + value);
        }
        scenario.spec.policy.confidence = c;
      } else if (key == "half_width") {
        const double w = parse_number(line, key, value);
        if (!stats::ReplicationPolicy::valid_half_width(w)) {
          fail(line, "half_width must be finite and > 0, got " + value);
        }
        scenario.spec.policy.target_half_width = w;
      } else if (key == "min_replications") {
        scenario.spec.policy.min_replications =
            parse_replications(line, key, value);
      } else if (key == "max_replications") {
        scenario.spec.policy.max_replications =
            parse_replications(line, key, value);
      } else if (key == "controller") {
        if (!stats::parse_controller(lower(value), scenario.spec.controller)) {
          fail(line, "controller must be 'fixed', 'adaptive' or 'antithetic'");
        }
      } else if (key == "jobs") {
        scenario.spec.jobs = parse_count(line, key, value);
      } else if (key == "verify_footprints") {
        const std::string flag = lower(value);
        if (flag == "true" || flag == "on" || flag == "1") {
          scenario.spec.verify_footprints = true;
        } else if (flag == "false" || flag == "off" || flag == "0") {
          scenario.spec.verify_footprints = false;
        } else {
          fail(line, "verify_footprints must be true/false, on/off or 1/0");
        }
      } else if (key == "metrics") {
        for (const auto& m : split(value, ',')) {
          try {
            scenario.metrics.push_back(parse_metric(m));
          } catch (const std::exception& e) {
            fail(line, e.what());
          }
        }
      } else {
        fail(line, "unknown key '" + key + "'");
      }
      continue;
    }

    // VM section.
    if (key == "vcpus") {
      current_vm->num_vcpus =
          static_cast<int>(parse_count(line, key, value, kMaxIntSetting));
    } else if (key == "load") {
      try {
        current_vm->load_distribution = stats::parse_distribution(value);
      } catch (const std::exception& e) {
        fail(line, e.what());
      }
    } else if (key == "inter_generation") {
      try {
        current_vm->inter_generation = stats::parse_distribution(value);
      } catch (const std::exception& e) {
        fail(line, e.what());
      }
    } else if (key == "sync_ratio") {
      current_vm->sync_ratio_k =
          static_cast<int>(parse_count(line, key, value, kMaxIntSetting));
    } else if (key == "sync_mode") {
      const std::string mode = lower(value);
      if (mode == "every_kth") {
        current_vm->sync_mode = vm::SyncMode::kEveryKth;
      } else if (mode == "random") {
        current_vm->sync_mode = vm::SyncMode::kRandom;
      } else {
        fail(line, "sync_mode must be 'every_kth' or 'random'");
      }
    } else if (key == "spinlock") {
      const auto parts = split(value, ' ');
      if (parts.size() != 2) {
        fail(line, "spinlock expects two numbers: lock_probability "
                   "critical_fraction");
      }
      current_vm->spinlock.enabled = true;
      current_vm->spinlock.lock_probability = parse_number(line, key, parts[0]);
      current_vm->spinlock.critical_fraction = parse_number(line, key, parts[1]);
    } else {
      fail(line, "unknown VM key '" + key + "'");
    }
  }

  if (scenario.spec.system.vms.empty()) {
    throw std::invalid_argument("scenario defines no [vm] sections");
  }
  if (!compare_baseline.empty()) {
    const auto it = std::find(scenario.compare_algorithms.begin(),
                              scenario.compare_algorithms.end(),
                              compare_baseline);
    if (it == scenario.compare_algorithms.end()) {
      throw std::invalid_argument("compare baseline '" + compare_baseline +
                                  "' is not in the compare algorithms list");
    }
    std::rotate(scenario.compare_algorithms.begin(), it, it + 1);
  }
  if (scenario.metrics.empty()) {
    scenario.metrics = {{exp::MetricKind::kMeanVcpuAvailability, -1, ""},
                        {exp::MetricKind::kPcpuUtilization, -1, ""},
                        {exp::MetricKind::kMeanVcpuUtilization, -1, ""}};
  }
  scenario.spec.scheduler = sched::make_factory(scenario.algorithm);
  scenario.spec.system.validate();
  return scenario;
}

Scenario load_scenario(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    throw std::invalid_argument("cannot open scenario file: " + path);
  }
  return parse_scenario(file);
}

}  // namespace vcpusim::cli
