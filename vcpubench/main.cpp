// vcpusim benchmark: one workload, one seed, a fixed measuring time.
//
//   vcpubench --workload paper-figs|host-256|crn-mix-64 --seed N
//             --seconds S --trace 0|1 [--reference FILE]
//             [--record-reference FILE] [--spans FILE] [--tiny]
//
// --trace 0 reports the end-to-end metrics (host time, tracing off);
// --trace 1 replays the same points layer by layer and reports the
// per-layer metrics. Either way the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Failures are counted per
// point run; see README.md for the checks.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/compare.hpp"
#include "exp/pool.hpp"
#include "replay.hpp"
#include "san/analyze/analyzer.hpp"
#include "san/experiment.hpp"
#include "sched/registry.hpp"
#include "stats/metrics.hpp"
#include "vcpubench.hpp"
#include "vm/system_builder.hpp"

namespace vcpubench {
namespace {

namespace san = vcpusim::san;
namespace vm = vcpusim::vm;

/// Seed used when --seed is absent, and the seed held out from tuning:
/// a claimed gain must also hold on it. Both have recorded digests.
constexpr std::uint64_t kDefaultSeed = 42;
constexpr std::uint64_t kHeldOutSeed = 1013;

/// Set-ups measured after the reference pass and after every timed pass
/// or replay, so the samples spread over the run like the passes do.
constexpr int kSetupsPerPass = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string reference;
  std::string record_reference;
  std::string spans;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      args.workload = value();
    } else if (arg == "--seed") {
      args.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      args.seconds = std::stod(value());
    } else if (arg == "--trace") {
      args.trace = std::stoi(value());
    } else if (arg == "--reference") {
      args.reference = value();
    } else if (arg == "--record-reference") {
      args.record_reference = value();
    } else if (arg == "--spans") {
      args.spans = value();
    } else if (arg == "--tiny") {
      args.tiny = true;
    } else {
      throw std::invalid_argument("unknown argument: " + arg);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload missing");
  if (args.trace != 0 && args.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  if (!(args.seconds >= 0)) throw std::invalid_argument("--seconds < 0");
  return args;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Recorded digests: (point id) -> (estimate digest, counter digest) for
/// one workload key and seed.
using Reference = std::map<std::string, std::pair<std::string, std::string>>;

/// Lines "<workload> <seed> <point> <estimates> <counters>"; '#' starts a
/// comment. Returns whether the file holds any line for key/seed.
bool load_reference(const std::string& path, const std::string& key,
                    std::uint64_t seed, Reference& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  bool found = false;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string workload, point, est, ctr;
    std::uint64_t s = 0;
    if (!(fields >> workload >> s >> point >> est >> ctr)) {
      throw std::runtime_error("malformed reference line: " + line);
    }
    if (workload == key && s == seed) {
      out[point] = {est, ctr};
      found = true;
    }
  }
  return found;
}

std::uint64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

exp::RunSpec spec_of(const Point& point) {
  exp::RunSpec spec = point.spec;
  spec.scheduler = vcpusim::sched::make_factory(point.algorithm);
  return spec;
}

void fill(PointOutcome& o, const stats::ReplicationResult& r) {
  o.replications = r.replications;
  o.converged = r.converged;
  for (const auto& m : r.metrics) {
    o.names.push_back(m.name);
    o.estimates.push_back(m.ci);
  }
}

/// Run a point through exp::run_point with a metrics registry attached.
/// `pool`/`pin` reproduce how exp::compare_points runs a leg.
PointOutcome run_observed(const Point& point, exp::SystemPool* pool,
                          std::size_t pin) {
  PointOutcome o;
  stats::MetricsRegistry registry;
  exp::RunSpec spec = spec_of(point);
  spec.metrics = &registry;
  if (pool != nullptr) {
    spec.pool = pool;
    spec.policy.record_observations = true;
  }
  if (pin > 0) {
    spec.policy.min_replications = pin;
    spec.policy.max_replications = pin;
  }
  const std::uint64_t start = now_ns();
  try {
    fill(o, exp::run_point(spec, point.metrics));
  } catch (const std::exception& e) {
    o.error = e.what();
  }
  o.seconds = static_cast<double>(now_ns() - start) * 1e-9;
  std::vector<std::string> names = exact_counter_names(false);
  names.insert(names.end(), {"executor.pool_builds", "executor.pool_reuses"});
  for (const auto& name : names) {
    if (registry.has(name)) o.counters[name] = registry.counter_value(name);
  }
  if (registry.has("sim.events_per_replication")) {
    o.max_events_per_rep =
        registry.summary_values("sim.events_per_replication").max();
  }
  return o;
}

/// The reference pass: every point with its exact counters.
std::vector<PointOutcome> observed_pass(const Workload& w) {
  std::vector<PointOutcome> out;
  std::unique_ptr<exp::SystemPool> pool;
  if (w.compare) {
    pool = std::make_unique<exp::SystemPool>(w.points[0].spec.system);
  }
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const std::size_t pin =
        w.compare && i > 0 ? out.front().replications : 0;
    out.push_back(run_observed(w.points[i], pool.get(), pin));
  }
  return out;
}

/// A timed pass through the public entry points, tracing off.
std::vector<PointOutcome> timed_pass(const Workload& w) {
  std::vector<PointOutcome> out(w.points.size());
  if (!w.compare) {
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const std::uint64_t start = now_ns();
      const std::uint64_t cpu_start = cpu_ns();
      try {
        fill(out[i], exp::run_point(spec_of(w.points[i]), w.points[i].metrics));
      } catch (const std::exception& e) {
        out[i].error = e.what();
      }
      out[i].seconds = static_cast<double>(now_ns() - start) * 1e-9;
      out[i].cpu_seconds = static_cast<double>(cpu_ns() - cpu_start) * 1e-9;
    }
    return out;
  }
  std::vector<std::string> algorithms;
  for (const auto& p : w.points) algorithms.push_back(p.algorithm);
  const std::uint64_t start = now_ns();
  const std::uint64_t cpu_start = cpu_ns();
  try {
    const exp::CompareResult r =
        exp::compare_points(w.points[0].spec, algorithms, w.points[0].metrics);
    for (std::size_t a = 0; a < out.size(); ++a) {
      out[a].names = r.metric_names;
      out[a].estimates = r.estimates.at(a);
      out[a].replications = r.replications;
    }
  } catch (const std::exception& e) {
    for (auto& o : out) o.error = e.what();
  }
  // One call runs every leg, so each leg is charged an equal share.
  const double legs = static_cast<double>(out.size());
  const double seconds = static_cast<double>(now_ns() - start) * 1e-9;
  const double cpu_seconds = static_cast<double>(cpu_ns() - cpu_start) * 1e-9;
  for (auto& o : out) {
    o.seconds = seconds / legs;
    o.cpu_seconds = cpu_seconds / legs;
  }
  return out;
}

/// Host time of the per-point set-up: model build, lint, compile.
struct SetupSample {
  std::uint64_t build_ns = 0;
  std::uint64_t lint_ns = 0;
  std::uint64_t compile_ns = 0;
  std::uint64_t total() const { return build_ns + lint_ns + compile_ns; }
};

SetupSample measure_setup(const Workload& w) {
  SetupSample s;
  for (const auto& p : w.points) {
    try {
      std::uint64_t t0 = now_ns();
      auto system = vm::build_system(
          p.spec.system, vcpusim::sched::make_factory(p.algorithm)());
      std::uint64_t t1 = now_ns();
      s.build_ns += t1 - t0;
      if (p.spec.lint) {
        san::analyze::Analyzer().check_or_throw(*system->model);
        t0 = now_ns();
        s.lint_ns += t0 - t1;
        t1 = t0;
      }
      san::SimulatorConfig config;
      config.end_time = p.spec.end_time;
      config.seed = san::replication_seed(p.spec.base_seed, 0);
      config.engine = p.spec.engine;
      san::Simulator sim(config);
      sim.set_model(*system->model);
      s.compile_ns += now_ns() - t1;
    } catch (const std::exception&) {
      // The reference pass already counts this point as failed.
    }
  }
  return s;
}

/// Set-up samples of one run; setup_s is the median of `total_s`.
struct SetupSamples {
  std::vector<double> total_s, build_ns, lint_ns, compile_ns;

  void take(const Workload& w) {
    for (int r = 0; r < kSetupsPerPass; ++r) {
      const SetupSample s = measure_setup(w);
      total_s.push_back(static_cast<double>(s.total()) * 1e-9);
      build_ns.push_back(static_cast<double>(s.build_ns));
      lint_ns.push_back(static_cast<double>(s.lint_ns));
      compile_ns.push_back(static_cast<double>(s.compile_ns));
    }
  }
};

/// Per-point failure accounting with reasons on stderr.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool other_check_failed = false;

  void point(const std::string& where, const std::string& id,
             const std::string& reason) {
    ++attempted;
    if (reason.empty()) return;
    ++failed;
    std::cerr << "FAILED " << where << " " << id << ": " << reason << "\n";
  }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    other_check_failed = true;
    std::cerr << "FAILED check: " << what << "\n";
  }
};

std::uint64_t sum_counter(const std::vector<PointOutcome>& outcomes,
                          const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& o : outcomes) {
    const auto it = o.counters.find(name);
    if (it != o.counters.end()) total += it->second;
  }
  return total;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": "
     << (tally.failed == 0 && !tally.other_check_failed ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Whether one more repetition lasting about `last` seconds still ends
/// within `budget` seconds of `start`.
bool fits_another(std::uint64_t start, double last, double budget) {
  return static_cast<double>(now_ns() - start) * 1e-9 + last <= budget;
}

/// Nanoseconds per call of `fn`, median of five timed batches of `n` calls.
template <typename Fn>
double ns_per_call(std::size_t n, Fn&& fn) {
  std::vector<double> samples;
  for (int r = 0; r < 5; ++r) {
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < n; ++i) fn();
    samples.push_back(static_cast<double>(now_ns() - start) /
                      static_cast<double>(n));
  }
  return median(samples);
}

/// Steady-state heap allocations per replication through exp::run_point:
/// the difference between a 4- and a 2-replication run of the first
/// point, halved.
double allocs_per_rep(const Workload& w) {
  const auto allocs_for = [&w](std::size_t reps) {
    Point p = w.points.front();
    p.spec.jobs = 1;
    const std::uint64_t before = allocations();
    const PointOutcome o = run_observed(p, nullptr, reps);
    if (!o.error.empty()) throw std::runtime_error(o.error);
    return allocations() - before;
  };
  const std::uint64_t two = allocs_for(2);
  const std::uint64_t four = allocs_for(4);
  return (static_cast<double>(four) - static_cast<double>(two)) / 2.0;
}

int run(const Args& args) {
  const Workload w = make_workload(args.workload, args.seed, args.tiny);
  const std::string key = w.name + (args.tiny ? "/tiny" : "");
  Reference reference;
  const bool have_reference =
      !args.reference.empty() &&
      load_reference(args.reference, key, args.seed, reference);
  std::cout << "workload " << w.name << (args.tiny ? " (tiny)" : "")
            << ", seed " << args.seed << " (default " << kDefaultSeed
            << ", held-out " << kHeldOutSeed << "), " << w.points.size()
            << " points, reference digests "
            << (have_reference ? "recorded" : "absent for this seed") << "\n";

  Tally tally;
  // Reference pass: exact counters, digests, and the checks that need no
  // second run.
  const std::vector<PointOutcome> base = observed_pass(w);
  // High-water memory of one full pass; later passes only add thread
  // arenas whose number depends on how many passes fit the time.
  const double peak_rss_mb = static_cast<double>(peak_rss_kib()) / 1024.0;

  SetupSamples setup;
  setup.take(w);

  std::vector<std::uint64_t> base_est;
  std::ostringstream record;
  for (std::size_t i = 0; i < w.points.size(); ++i) {
    const Point& p = w.points[i];
    const PointOutcome& o = base[i];
    std::string reason = check_outcome(w, p, o);
    const std::string est = hex(estimate_digest(o));
    const std::string ctr = hex(counter_digest(o, false));
    base_est.push_back(estimate_digest(o));
    record << key << " " << args.seed << " " << p.id << " " << est << " "
           << ctr << "\n";
    if (reason.empty() && have_reference) {
      const auto it = reference.find(p.id);
      if (it == reference.end()) {
        reason = "no reference digest recorded";
      } else if (it->second.first != est) {
        reason = "estimate digest " + est + " != reference " +
                 it->second.first;
      } else if (it->second.second != ctr) {
        reason = "counter digest " + ctr + " != reference " + it->second.second;
      }
    }
    tally.point("reference-pass", p.id, reason);
  }
  if (!args.record_reference.empty()) {
    std::ofstream(args.record_reference) << record.str();
  }
  const double events = static_cast<double>(sum_counter(base, "sim.events"));
  const double reps =
      static_cast<double>(sum_counter(base, "run.replications"));

  const auto same_estimates = [&](const std::vector<PointOutcome>& run,
                                  const char* where) {
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      std::string reason = check_outcome(w, w.points[i], run[i]);
      if (reason.empty() && estimate_digest(run[i]) != base_est[i]) {
        reason = "estimate digest " + hex(estimate_digest(run[i])) +
                 " differs from the reference pass " + hex(base_est[i]);
      }
      tally.point(where, w.points[i].id, reason);
    }
  };

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    // seconds[p][k] / cpu[p][k]: host wall / process CPU time of point p
    // in timed pass k.
    std::vector<std::vector<double>> seconds(w.points.size());
    std::vector<std::vector<double>> cpu(w.points.size());
    std::vector<double> walls;
    const std::uint64_t start = now_ns();
    do {
      const std::vector<PointOutcome> pass = timed_pass(w);
      double wall = 0;
      for (std::size_t i = 0; i < pass.size(); ++i) {
        seconds[i].push_back(pass[i].seconds);
        cpu[i].push_back(pass[i].cpu_seconds);
        wall += pass[i].seconds;
      }
      walls.push_back(wall);
      same_estimates(pass, "timed-pass");
      setup.take(w);
    } while (fits_another(start, walls.back(), args.seconds));

    // Sum of per-point medians: a burst of host interference spoils the
    // points it overlaps, not a whole pass. The entry points set each
    // point up before its first replication; that set-up is setup_s
    // (single-threaded, so wall and CPU time alike) and is taken out.
    const double setup_s = median(setup.total_s);
    double wall_s = -setup_s;
    double cpu_s = -setup_s;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      wall_s += median(seconds[i]);
      cpu_s += median(cpu[i]);
    }
    std::cout << "wall_s " << wall_s << ", cpu_s " << cpu_s
              << " (sums of per-point medians over " << walls.size()
              << " timed passes, minus setup_s), setup_s median of "
              << setup.total_s.size() << " set-ups\n  pass totals:";
    for (const double wall : walls) std::cout << " " << wall;
    std::cout << "\n";
    metrics = {
        {"wall_s", wall_s, "s"},
        {"cpu_s", cpu_s, "s"},
        {"events_per_s", events / wall_s, "events/s"},
        {"replications_per_s", reps / wall_s, "1/s"},
        {"setup_s", setup_s, "s"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
    };
    print_result(tally, metrics);
    return 0;
  }

  // One untraced pass of the same points on one lane, as the replay
  // runs them: the baseline of trace.overhead_s.
  Workload sequential = w;
  for (auto& p : sequential.points) p.spec.jobs = 1;
  const std::vector<PointOutcome> untraced = timed_pass(sequential);
  double untraced_wall = 0;
  for (const auto& o : untraced) untraced_wall += o.seconds;
  same_estimates(untraced, "sequential-pass");

  // Traced run: replay layer by layer until the measuring time is used.
  SpanLog log;
  std::vector<ReplayResult> replays;
  const std::uint64_t start = now_ns();
  do {
    replays.push_back(replay(w, log, static_cast<int>(replays.size())));
    const ReplayResult& r = replays.back();
    for (std::size_t i = 0; i < w.points.size(); ++i) {
      const PointOutcome& o = r.outcomes[i];
      std::string reason = check_outcome(w, w.points[i], o);
      if (reason.empty() && estimate_digest(o) != base_est[i]) {
        reason = "replayed estimates differ from the untraced run";
      }
      if (reason.empty() &&
          counter_digest(o, true) != counter_digest(base[i], true)) {
        reason = "replayed exact counters differ from the untraced run";
      }
      tally.point("replay", w.points[i].id, reason);
    }
    tally.check(!r.negative_self, "a span's children outlast it");
    tally.check(r.denest_violations == 0,
                std::to_string(r.denest_violations) +
                    " replications whose bridge phases outlast their fire "
                    "or advance_until");
    setup.take(w);
  } while (fits_another(start,
                        static_cast<double>(replays.back().wall_ns) * 1e-9,
                        args.seconds));

  const ReplayResult& first = replays.front();
  // Denominators of the per-unit figures; at least 1 so that a run whose
  // points all failed still prints finite (and incorrect) numbers.
  const auto at_least_one = [](std::uint64_t n) {
    return static_cast<double>(std::max<std::uint64_t>(n, 1));
  };
  const double n_points = at_least_one(w.points.size());
  const double r_reps = at_least_one(first.replications);
  const double r_events = at_least_one(first.events);
  const double r_ticks = at_least_one(first.ticks);
  const auto med = [&replays](auto field) {
    std::vector<double> v;
    for (const auto& r : replays) v.push_back(field(r));
    return median(v);
  };
  const auto ns = [](std::uint64_t v) { return static_cast<double>(v); };
  const auto self = [](const ReplayResult& r, const char* layer) {
    return static_cast<double>(r.layer_self_ns.at(layer));
  };

  double allocs = 0;
  try {
    allocs = allocs_per_rep(w);
  } catch (const std::exception& e) {
    tally.check(false, std::string("allocation probe: ") + e.what());
  }

  stats::Rng rng(args.seed);
  std::uint64_t draws = 0;
  const double rng_draw_ns = ns_per_call(1u << 22, [&] { draws ^= rng(); });
  double samples = 0;
  const double sample_ns =
      ns_per_call(1u << 21, [&] { samples += w.load->sample(rng); });
  volatile double keep = static_cast<double>(draws) + samples;  // no elision
  (void)keep;

  const double traced_wall = med([](const ReplayResult& r) {
    return static_cast<double>(r.wall_ns) * 1e-9;
  });
  const double gates =
      static_cast<double>(first.compiled_gates + first.trampoline_gates);
  std::cout << "replays " << replays.size() << ", traced wall " << traced_wall
            << " s, untraced sequential pass " << untraced_wall << " s\n";
  for (const auto& [layer, self_ns] : first.layer_self_ns) {
    std::cout << "  self " << layer << ": "
              << static_cast<double>(self_ns) * 1e-9 << " s\n";
  }
  metrics = {
      {"stats.replications", reps, "count"},
      {"stats.speculative_waste",
       static_cast<double>(sum_counter(base, "executor.speculative_waste")),
       "count"},
      {"stats.rng_draw_ns", rng_draw_ns, "ns"},
      {"stats.sample_ns", sample_ns, "ns"},
      {"stats.fold_us_per_rep",
       med([&](const ReplayResult& r) { return self(r, "stats"); }) /
           r_reps * 1e-3,
       "us"},
      {"san.self_ns_per_event",
       med([&](const ReplayResult& r) { return ns(r.advance_self_ns); }) /
           r_events,
       "ns"},
      {"san.settle_ns_per_event",
       med([&](const ReplayResult& r) { return ns(r.settle_ns); }) / r_events,
       "ns"},
      {"san.fire_self_ns_per_event",
       med([&](const ReplayResult& r) { return ns(r.fire_self_ns); }) /
           r_events,
       "ns"},
      {"san.events_per_rep", r_events / r_reps, "count"},
      {"san.evals_per_event", static_cast<double>(first.evals) / r_events,
       "ratio"},
      {"san.aborted_per_event", static_cast<double>(first.aborted) / r_events,
       "ratio"},
      {"san.trampoline_share",
       gates > 0 ? static_cast<double>(first.trampoline_gates) / gates : 0.0,
       "ratio"},
      {"san.compile_ms", median(setup.compile_ns) / n_points * 1e-6, "ms"},
      {"san.lint_ms", median(setup.lint_ns) / n_points * 1e-6, "ms"},
      {"san.reset_us",
       med([&](const ReplayResult& r) { return ns(r.san_reset_ns); }) /
           r_reps * 1e-3,
       "us"},
      {"vm.build_ms", median(setup.build_ns) / n_points * 1e-6, "ms"},
      {"vm.reset_us",
       med([&](const ReplayResult& r) { return ns(r.vm_reset_ns); }) /
           r_reps * 1e-3,
       "us"},
      {"vm.bridge_ns_per_tick",
       med([&](const ReplayResult& r) { return ns(r.bridge_ns); }) / r_ticks,
       "ns"},
      {"vm.ticks_per_rep", r_ticks / r_reps, "count"},
      {"vm.preemptions_per_tick",
       static_cast<double>(first.preemptions) / r_ticks, "ratio"},
      {"sched.decide_ns_per_tick",
       med([&](const ReplayResult& r) { return ns(r.decide_ns); }) / r_ticks,
       "ns"},
      {"exp.self_ms_per_point",
       med([&](const ReplayResult& r) { return self(r, "exp"); }) /
           n_points * 1e-6,
       "ms"},
      {"exp.pool_builds",
       static_cast<double>(sum_counter(base, "executor.pool_builds")),
       "count"},
      {"exp.pool_reuses",
       static_cast<double>(sum_counter(base, "executor.pool_reuses")),
       "count"},
      {"exp.allocs_per_rep", allocs, "count"},
      {"trace.wall_s", traced_wall, "s"},
      {"trace.overhead_s", traced_wall - untraced_wall, "s"},
      {"trace.unattributed_share",
       med([](const ReplayResult& r) { return r.unattributed_share(); }),
       "ratio"},
  };
  for (const char* layer : {"exp", "stats", "vm", "san", "sched"}) {
    metrics.push_back(
        {std::string(layer) + ".self_s",
         med([&](const ReplayResult& r) { return self(r, layer); }) * 1e-9,
         "s"});
  }
  if (!args.spans.empty()) {
    std::ofstream out(args.spans);
    log.write_jsonl(out);
  }
  print_result(tally, metrics);
  return 0;
}

}  // namespace
}  // namespace vcpubench

int main(int argc, char** argv) {
  try {
    return vcpubench::run(vcpubench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "vcpubench: " << e.what() << "\n";
    return 2;
  }
}
