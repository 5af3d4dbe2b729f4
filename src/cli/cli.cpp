#include "cli/cli.hpp"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/scenario.hpp"
#include "exp/compare.hpp"
#include "exp/table.hpp"
#include "san/analyze/analyzer.hpp"
#include "san/simulator.hpp"
#include "sched/contract.hpp"
#include "sched/registry.hpp"
#include "stats/metrics.hpp"
#include "trace/sinks.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::cli {

namespace {

constexpr const char* kUsage = R"(usage: vcpusim [run] [options]
       vcpusim compare [SCENARIO] [options] [--algorithms LIST]
                       [--baseline NAME] [--json]
       vcpusim trace [SCENARIO] [options] [--sink NAME] [--out FILE]
                     [--categories LIST]
       vcpusim algorithms [--json]
       vcpusim lint [SCENARIO] [options] [--json] [--strict]
                    [--all-algorithms] [--prove] [--list-checks]

  --scenario FILE        run the experiment described by FILE
  --pcpus N              number of physical CPUs (default 4)
  --vm N                 add a VM with N VCPUs (repeatable)
  --algorithm NAME       scheduling algorithm (default rrs)
  --sync K               sync ratio 1:K for all VMs (default 5, 0 = off)
  --timeslice T          scheduler timeslice in ticks (default 5)
  --metric NAME          metric to report (repeatable; default: the
                         paper's three). Names: availability,
                         vcpu_utilization, busy_fraction,
                         pcpu_utilization, blocked_fraction[i],
                         throughput, spin_fraction,
                         effective_utilization, energy; per-VCPU
                         variants take an index suffix, e.g.
                         availability[2]
  --dvfs                 enable per-PCPU frequency scaling with the
                         default four-step level ladder and append the
                         energy metric (integral of sum_p f*V^2; see
                         docs/MODEL.md). Scenario block: [dvfs] with
                         levels = f:v, ... and policy = max/min/index
  --end-time T           simulation horizon in ticks (default 3000)
  --warmup T             reward warm-up (default 200)
  --seed S               base seed (default 42)
  --half-width W         CI half-width convergence target (default 0.02)
  --min-replications N   replications before the stopping rule may fire
                         (default 6)
  --max-replications N   replication cap (default 40)
  --controller NAME      replication controller: fixed (default,
                         jobs-sized batches), adaptive (variance-sized
                         batches, less speculative waste) or antithetic
                         (mirrored replication pairs, fewer replications
                         to converge). Results are deterministic and
                         jobs-invariant for every controller; see
                         docs/STATISTICS.md. Scenario key:
                         controller = fixed/adaptive/antithetic
  --jobs N               worker threads for replication batches
                         (default 1; 0 = all hardware threads). Results
                         are identical for every value of N
  --metrics-out FILE     write the run-metrics registry (sim.*, sched.*,
                         executor.*, metric.*) as JSON to FILE
  --profile              collect wall-clock phase timings (settle/fire,
                         snapshot/decide/apply) into the metrics registry
  --verify-footprints    run every replication under the footprint
                         sanitizer: shadow-check each gate's place
                         accesses against its declared footprint and
                         re-check the statically proven invariants after
                         every firing (fails the run on violations;
                         trajectories are bit-identical). Scenario key:
                         verify_footprints = true/false
  --csv                  emit CSV instead of an aligned table
  --compare              run ALL registered algorithms on the configured
                         system and print one row per algorithm
  --list-algorithms      print registered algorithms and exit
  --help                 this text

The compare verb runs every algorithm of the list against identical
replication seed streams (common random numbers) on the configured
system and reports, per metric, each algorithm's estimate plus the
paired-difference CI against the baseline — the honest interval for
"is A better than B", typically far tighter than differencing two
independent runs. See docs/STATISTICS.md.

  --algorithms LIST      comma-separated registry names; the first is
                         the baseline (default: the scenario's [compare]
                         block, else all registered algorithms with the
                         scenario's `algorithm` as baseline)
  --baseline NAME        move NAME to the front of the algorithm list
  --json                 emit the comparison as JSON instead of tables

The algorithms verb prints the catalog of built-in scheduling
algorithms — canonical name, Scheduler::name(), accepted aliases, a
one-line summary, and each algorithm's option keys with their
construction-time defaults (set through the C++ make_* option structs;
see docs/SCHEDULING.md). With --json the catalog is emitted as JSON.

The lint verb statically analyzes the composed SAN model the options
describe — dead activities, orphan places, join defects, unserialized
shared writes, instantaneous cycles, case probabilities — and checks
the selected algorithm's scheduler contract, WITHOUT running the
simulation. Exit status is 1 when error-severity diagnostics (or, with
--strict, warnings) are present. See docs/ANALYZER.md.

  --json                 emit the lint report as JSON
  --strict               treat lint warnings as errors
  --all-algorithms       contract-check every registered algorithm
  --prove                run the structural invariant engine: extract
                         the incidence structure from the declared gate
                         effects, derive integer P-invariants (Farkas
                         elimination), and prove per-place token bounds;
                         the report gains an invariant section
  --list-checks          print the catalog of check ids with default
                         severity and summary, then exit (with --json:
                         machine-readable)

The trace verb runs the experiment with structured tracing enabled and
streams the per-replication event streams (activity fires, enabling
changes, marking updates, scheduler decisions) to --out FILE (default:
stdout; the result table then goes to stderr). For a fixed seed the
emitted bytes are identical for every --jobs value. See
docs/OBSERVABILITY.md.

  --sink NAME            trace format: jsonl (default) or chrome
                         (load in chrome://tracing or ui.perfetto.dev)
  --out FILE             write the trace to FILE instead of stdout
  --categories LIST      comma-separated event filter: fire, enabling,
                         marking, sched, marker, all (default all)
)";

struct Options {
  Scenario scenario;
  bool have_scenario_file = false;
  bool csv = false;
  bool compare = false;
  std::vector<int> vm_sizes;
  int sync_k = 5;
  bool list_algorithms = false;
  bool help = false;
  std::string metrics_out;  ///< --metrics-out FILE ("" = off)
  bool profile = false;
};

int parse_args(int argc, const char* const* argv, Options& options,
               std::ostream& err) {
  auto& spec = options.scenario.spec;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        err << "vcpusim: " << flag << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    try {
      if (arg == "--help" || arg == "-h") {
        options.help = true;
      } else if (arg == "--list-algorithms") {
        options.list_algorithms = true;
      } else if (arg == "--csv") {
        options.csv = true;
      } else if (arg == "--compare") {
        options.compare = true;
      } else if (arg == "--scenario") {
        const char* v = need_value("--scenario");
        if (v == nullptr) return 1;
        options.scenario = load_scenario(v);
        options.have_scenario_file = true;
      } else if (arg == "--pcpus") {
        const char* v = need_value("--pcpus");
        if (v == nullptr) return 1;
        spec.system.num_pcpus =
            static_cast<int>(parse_count(arg, v, kMaxIntSetting));
      } else if (arg == "--vm") {
        const char* v = need_value("--vm");
        if (v == nullptr) return 1;
        options.vm_sizes.push_back(
            static_cast<int>(parse_count(arg, v, kMaxIntSetting)));
      } else if (arg == "--algorithm") {
        const char* v = need_value("--algorithm");
        if (v == nullptr) return 1;
        options.scenario.algorithm = v;
      } else if (arg == "--sync") {
        const char* v = need_value("--sync");
        if (v == nullptr) return 1;
        options.sync_k =
            static_cast<int>(parse_count(arg, v, kMaxIntSetting));
      } else if (arg == "--timeslice") {
        const char* v = need_value("--timeslice");
        if (v == nullptr) return 1;
        spec.system.default_timeslice = parse_number(arg, v);
      } else if (arg == "--metric") {
        const char* v = need_value("--metric");
        if (v == nullptr) return 1;
        options.scenario.metrics.push_back(parse_metric(v));
      } else if (arg == "--end-time") {
        const char* v = need_value("--end-time");
        if (v == nullptr) return 1;
        spec.end_time = parse_number(arg, v);
      } else if (arg == "--warmup") {
        const char* v = need_value("--warmup");
        if (v == nullptr) return 1;
        spec.warmup = parse_number(arg, v);
      } else if (arg == "--seed") {
        const char* v = need_value("--seed");
        if (v == nullptr) return 1;
        spec.base_seed = parse_count(arg, v);
      } else if (arg == "--half-width") {
        const char* v = need_value("--half-width");
        if (v == nullptr) return 1;
        spec.policy.target_half_width = parse_number(arg, v);
      } else if (arg == "--min-replications") {
        const char* v = need_value("--min-replications");
        if (v == nullptr) return 1;
        spec.policy.min_replications = parse_count(arg, v);
      } else if (arg == "--max-replications") {
        const char* v = need_value("--max-replications");
        if (v == nullptr) return 1;
        spec.policy.max_replications = parse_count(arg, v);
      } else if (arg == "--controller") {
        const char* v = need_value("--controller");
        if (v == nullptr) return 1;
        if (!stats::parse_controller(v, spec.controller)) {
          err << "vcpusim: --controller must be 'fixed', 'adaptive' or "
                 "'antithetic', got '" << v << "'\n";
          return 1;
        }
      } else if (arg == "--jobs") {
        const char* v = need_value("--jobs");
        if (v == nullptr) return 1;
        spec.jobs = parse_count(arg, v);
      } else if (arg == "--dvfs") {
        spec.system.dvfs.enabled = true;
      } else if (arg == "--verify-footprints") {
        spec.verify_footprints = true;
      } else if (arg == "--metrics-out") {
        const char* v = need_value("--metrics-out");
        if (v == nullptr) return 1;
        options.metrics_out = v;
      } else if (arg == "--profile") {
        options.profile = true;
      } else {
        err << "vcpusim: unknown option '" << arg << "' (--help for usage)\n";
        return 1;
      }
    } catch (const std::exception& e) {
      err << "vcpusim: " << e.what() << "\n";
      return 1;
    }
  }
  return 0;
}

/// Resolve the system config + metrics defaults shared by the run and
/// lint paths (CLI flags describe a symmetric system when no scenario
/// file was given).
void finalize_scenario(Options& options) {
  auto& scenario = options.scenario;
  if (!options.have_scenario_file) {
    if (options.vm_sizes.empty()) options.vm_sizes = {2, 2};
    const double timeslice = scenario.spec.system.default_timeslice;
    const vm::DvfsConfig dvfs = scenario.spec.system.dvfs;
    const int pcpus = scenario.spec.system.num_pcpus;
    scenario.spec.system =
        vm::make_symmetric_config(pcpus, options.vm_sizes, options.sync_k);
    scenario.spec.system.default_timeslice = timeslice;
    scenario.spec.system.dvfs = dvfs;
    if (scenario.metrics.empty()) {
      scenario.metrics = {{exp::MetricKind::kMeanVcpuAvailability, -1, ""},
                          {exp::MetricKind::kPcpuUtilization, -1, ""},
                          {exp::MetricKind::kMeanVcpuUtilization, -1, ""}};
    }
  }
  // A DVFS system always reports its energy integral unless the user
  // already asked for it explicitly.
  if (scenario.spec.system.dvfs.enabled) {
    const bool have_energy =
        std::any_of(scenario.metrics.begin(), scenario.metrics.end(),
                    [](const exp::MetricRequest& m) {
                      return m.kind == exp::MetricKind::kEnergy;
                    });
    if (!have_energy) {
      scenario.metrics.push_back({exp::MetricKind::kEnergy, -1, ""});
    }
  }
  scenario.spec.system.validate();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// Write the registry JSON to `path`; returns 0 or an exit status.
int write_metrics_file(const stats::MetricsRegistry& registry,
                       const std::string& path, std::ostream& err) {
  std::ofstream file(path);
  if (!file) {
    err << "vcpusim: cannot open metrics file '" << path << "'\n";
    return 2;
  }
  registry.write_json(file);
  if (!file) {
    err << "vcpusim: failed writing metrics file '" << path << "'\n";
    return 2;
  }
  return 0;
}

/// The `vcpusim trace` verb: run the experiment with a structured trace
/// sink attached and stream the events to --out (default stdout). The
/// result table goes to `err` so it never interleaves with trace bytes
/// on stdout.
int run_trace(int argc, const char* const* argv, std::ostream& out,
              std::ostream& err) {
  std::string sink_name = "jsonl";
  std::string out_path;
  std::uint8_t categories = san::kTraceAll;

  // Peel off trace-only flags and promote a bare SCENARIO argument to
  // --scenario, then reuse the standard option parser for the rest.
  std::vector<const char*> rest = {argv[0]};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        err << "vcpusim: " << flag << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--sink") {
      const char* v = need_value("--sink");
      if (v == nullptr) return 1;
      sink_name = v;
    } else if (arg == "--out") {
      const char* v = need_value("--out");
      if (v == nullptr) return 1;
      out_path = v;
    } else if (arg == "--categories") {
      const char* v = need_value("--categories");
      if (v == nullptr) return 1;
      try {
        categories = trace::parse_trace_categories(v);
      } catch (const std::exception& e) {
        err << "vcpusim: " << e.what() << "\n";
        return 1;
      }
    } else if (!arg.empty() && arg[0] != '-' && rest.size() == 1) {
      rest.push_back("--scenario");
      rest.push_back(argv[i]);
    } else {
      rest.push_back(argv[i]);
    }
  }

  Options options;
  if (const int rc = parse_args(static_cast<int>(rest.size()), rest.data(),
                                options, err);
      rc != 0) {
    return rc;
  }
  if (options.help) {
    out << kUsage;
    return 0;
  }

  try {
    finalize_scenario(options);
    auto& scenario = options.scenario;
    scenario.spec.scheduler = sched::make_factory(scenario.algorithm);

    std::ofstream file;
    std::ostream* trace_out = &out;
    if (!out_path.empty()) {
      file.open(out_path);
      if (!file) {
        err << "vcpusim: cannot open trace file '" << out_path << "'\n";
        return 2;
      }
      trace_out = &file;
    }
    const auto sink = trace::make_stream_sink(sink_name, *trace_out,
                                              categories);
    scenario.spec.trace = sink.get();

    stats::MetricsRegistry registry;
    scenario.spec.profile = options.profile;
    if (!options.metrics_out.empty() || options.profile) {
      scenario.spec.metrics = &registry;
    }

    const auto result = exp::run_point(scenario.spec, scenario.metrics);
    sink->finish();

    if (!options.metrics_out.empty()) {
      if (const int rc = write_metrics_file(registry, options.metrics_out,
                                            err);
          rc != 0) {
        return rc;
      }
    }

    // Summary to the non-trace stream: trace bytes must stay clean.
    std::ostream& summary = out_path.empty() ? err : out;
    summary << "traced " << result.replications << " replication"
            << (result.replications == 1 ? "" : "s") << " ("
            << scenario.algorithm << ", seed " << scenario.spec.base_seed
            << ", sink " << sink_name << ")\n";
    return 0;
  } catch (const std::invalid_argument& e) {
    err << "vcpusim: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "vcpusim: trace failed: " << e.what() << "\n";
    return 2;
  }
}

/// The `vcpusim algorithms` verb: render the registry catalog, without
/// building or running anything.
int run_algorithms(int argc, const char* const* argv, std::ostream& out,
                   std::ostream& err) {
  bool json = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else {
      err << "vcpusim: unknown option '" << arg
          << "' (usage: vcpusim algorithms [--json])\n";
      return 1;
    }
  }

  const auto& catalog = sched::algorithm_catalog();
  if (json) {
    out << "[\n";
    for (std::size_t i = 0; i < catalog.size(); ++i) {
      const auto& a = catalog[i];
      out << "  {\n    \"name\": \"" << json_escape(a.name)
          << "\",\n    \"display_name\": \"" << json_escape(a.display_name)
          << "\",\n    \"aliases\": [";
      for (std::size_t k = 0; k < a.aliases.size(); ++k) {
        out << (k != 0 ? ", " : "") << '"' << json_escape(a.aliases[k]) << '"';
      }
      out << "],\n    \"summary\": \"" << json_escape(a.summary)
          << "\",\n    \"options_struct\": \"" << json_escape(a.options_struct)
          << "\",\n    \"options\": [";
      for (std::size_t k = 0; k < a.options.size(); ++k) {
        const auto& o = a.options[k];
        out << (k != 0 ? "," : "") << "\n      {\"key\": \""
            << json_escape(o.key) << "\", \"default\": \""
            << json_escape(o.default_value) << "\", \"summary\": \""
            << json_escape(o.summary) << "\"}";
      }
      out << (a.options.empty() ? "]" : "\n    ]") << "\n  }"
          << (i + 1 < catalog.size() ? "," : "") << "\n";
    }
    out << "]\n";
    return 0;
  }

  for (const auto& a : catalog) {
    out << a.name << " (" << a.display_name << ")";
    if (!a.aliases.empty()) {
      out << "  aliases:";
      for (const auto& alias : a.aliases) out << " " << alias;
    }
    out << "\n  " << a.summary << "\n";
    if (a.options.empty()) {
      out << "  options: none\n";
    } else {
      out << "  options (" << a.options_struct << "):\n";
      for (const auto& o : a.options) {
        out << "    " << o.key << " = " << o.default_value << "  # "
            << o.summary << "\n";
      }
    }
  }
  return 0;
}

/// Render a double for the JSON outputs with round-trip precision.
std::string json_number(double value) {
  std::ostringstream os;
  os << std::setprecision(17) << value;
  return os.str();
}

/// The `vcpusim compare` verb: common-random-numbers comparison of K
/// algorithms on the configured system — per-algorithm estimates plus
/// paired-difference CIs against the baseline (exp::compare_points).
int run_compare(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err) {
  bool json = false;
  std::vector<std::string> algorithms;
  std::string baseline;

  // Peel off compare-only flags and promote a bare SCENARIO argument to
  // --scenario, then reuse the standard option parser for the rest.
  std::vector<const char*> rest = {argv[0]};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        err << "vcpusim: " << flag << " requires a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json = true;
    } else if (arg == "--algorithms") {
      const char* v = need_value("--algorithms");
      if (v == nullptr) return 1;
      std::istringstream is(v);
      std::string token;
      while (std::getline(is, token, ',')) {
        if (!token.empty()) algorithms.push_back(token);
      }
    } else if (arg == "--baseline") {
      const char* v = need_value("--baseline");
      if (v == nullptr) return 1;
      baseline = v;
    } else if (!arg.empty() && arg[0] != '-' && rest.size() == 1) {
      rest.push_back("--scenario");
      rest.push_back(argv[i]);
    } else {
      rest.push_back(argv[i]);
    }
  }

  Options options;
  if (const int rc = parse_args(static_cast<int>(rest.size()), rest.data(),
                                options, err);
      rc != 0) {
    return rc;
  }
  if (options.help) {
    out << kUsage;
    return 0;
  }

  try {
    finalize_scenario(options);
    auto& scenario = options.scenario;

    // Algorithm list priority: --algorithms, the scenario's [compare]
    // block, then every registered algorithm with the scenario's
    // configured algorithm as baseline.
    if (algorithms.empty()) algorithms = scenario.compare_algorithms;
    if (algorithms.empty()) {
      algorithms = sched::builtin_algorithms();
      if (baseline.empty()) baseline = scenario.algorithm;
    }
    if (!baseline.empty()) {
      const auto it = std::find(algorithms.begin(), algorithms.end(), baseline);
      if (it == algorithms.end()) {
        err << "vcpusim: baseline '" << baseline
            << "' is not in the algorithm list\n";
        return 1;
      }
      std::rotate(algorithms.begin(), it, it + 1);
    }
    if (algorithms.size() < 2) {
      err << "vcpusim: compare needs at least two algorithms\n";
      return 1;
    }

    const auto result =
        exp::compare_points(scenario.spec, algorithms, scenario.metrics);

    if (json) {
      out << "{\n  \"baseline\": \"" << json_escape(result.baseline)
          << "\",\n  \"controller\": \"" << json_escape(result.controller)
          << "\",\n  \"replications\": " << result.replications
          << ",\n  \"confidence\": "
          << json_number(scenario.spec.policy.confidence)
          << ",\n  \"seeds\": [";
      for (std::size_t r = 0; r < result.seeds.size(); ++r) {
        out << (r != 0 ? ", " : "") << result.seeds[r];
      }
      out << "],\n  \"metrics\": [";
      for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
        out << (m != 0 ? ", " : "") << '"'
            << json_escape(result.metric_names[m]) << '"';
      }
      out << "],\n  \"algorithms\": [";
      for (std::size_t a = 0; a < result.algorithms.size(); ++a) {
        out << (a != 0 ? "," : "") << "\n    {\n      \"name\": \""
            << json_escape(result.algorithms[a]) << "\",\n      \"baseline\": "
            << (a == 0 ? "true" : "false") << ",\n      \"estimates\": [";
        for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
          const auto& ci = result.estimates[a][m];
          out << (m != 0 ? "," : "") << "\n        {\"metric\": \""
              << json_escape(result.metric_names[m]) << "\", \"mean\": "
              << json_number(ci.mean) << ", \"half_width\": "
              << json_number(ci.half_width) << "}";
        }
        out << "\n      ]";
        if (a != 0) {
          out << ",\n      \"deltas\": [";
          for (std::size_t m = 0; m < result.metric_names.size(); ++m) {
            const auto& d = result.deltas[a - 1][m];
            out << (m != 0 ? "," : "") << "\n        {\"metric\": \""
                << json_escape(result.metric_names[m]) << "\", \"mean\": "
                << json_number(d.paired.mean) << ", \"half_width\": "
                << json_number(d.paired.half_width)
                << ", \"unpaired_half_width\": "
                << json_number(d.unpaired_half_width) << ", \"correlation\": "
                << json_number(d.correlation) << "}";
          }
          out << "\n      ]";
        }
        out << "\n    }";
      }
      out << "\n  ]\n}\n";
      return 0;
    }

    const exp::Table estimates = result.estimates_table();
    const exp::Table deltas = result.deltas_table();
    if (options.csv) {
      out << estimates.to_csv() << deltas.to_csv();
    } else {
      out << estimates.render() << "\n" << deltas.render();
    }
    out << "\n" << result.replications << " common-seed replication"
        << (result.replications == 1 ? "" : "s") << " per algorithm ("
        << result.controller << " controller, baseline " << result.baseline
        << "); paired CIs use common random numbers\n";
    return 0;
  } catch (const std::invalid_argument& e) {
    err << "vcpusim: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "vcpusim: compare failed: " << e.what() << "\n";
    return 2;
  }
}

/// The `vcpusim lint` verb: build the composed model the options
/// describe, statically analyze it, contract-check the scheduler, and
/// render the report. Never runs the simulation.
int run_lint(int argc, const char* const* argv, std::ostream& out,
             std::ostream& err) {
  bool json = false;
  bool strict = false;
  bool all_algorithms = false;
  bool prove = false;
  bool list_checks = false;

  // Peel off lint-only flags and promote a bare SCENARIO argument to
  // --scenario, then reuse the standard option parser for the rest.
  std::vector<const char*> rest = {argv[0]};
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--all-algorithms") {
      all_algorithms = true;
    } else if (arg == "--prove") {
      prove = true;
    } else if (arg == "--list-checks") {
      list_checks = true;
    } else if (!arg.empty() && arg[0] != '-' && rest.size() == 1) {
      rest.push_back("--scenario");
      rest.push_back(argv[i]);
    } else {
      rest.push_back(argv[i]);
    }
  }

  if (list_checks) {
    // Enumerate the check catalog and exit: no model is built.
    const auto& catalog = san::analyze::check_catalog();
    if (json) {
      out << "{\"checks\":[";
      bool first = true;
      for (const auto& check : catalog) {
        if (!first) out << ",";
        first = false;
        out << "{\"id\":\"" << check.id << "\",\"severity\":\""
            << san::analyze::to_string(check.default_severity)
            << "\",\"summary\":\"" << check.summary << "\"}";
      }
      out << "]}\n";
    } else {
      for (const auto& check : catalog) {
        out << check.id << "  [" << san::analyze::to_string(check.default_severity)
            << "]\n    " << check.summary << "\n";
      }
    }
    return 0;
  }

  Options options;
  if (const int rc = parse_args(static_cast<int>(rest.size()), rest.data(),
                                options, err);
      rc != 0) {
    return rc;
  }
  if (options.help) {
    out << kUsage;
    return 0;
  }

  try {
    finalize_scenario(options);
    auto& scenario = options.scenario;

    const auto factory = sched::make_factory(scenario.algorithm);
    const auto system = vm::build_system(scenario.spec.system, factory());

    san::analyze::AnalyzerOptions analyzer_options;
    analyzer_options.prove = prove;
    auto report =
        san::analyze::Analyzer(analyzer_options).analyze(*system->model);

    if (all_algorithms) {
      auto contract = sched::check_builtin_contracts();
      report.diagnostics.insert(report.diagnostics.end(),
                                std::make_move_iterator(contract.begin()),
                                std::make_move_iterator(contract.end()));
    } else {
      auto contract =
          sched::check_scheduler_contract(scenario.algorithm, factory);
      report.diagnostics.insert(report.diagnostics.end(),
                                std::make_move_iterator(contract.begin()),
                                std::make_move_iterator(contract.end()));
    }

    out << (json ? report.render_json() : report.render_text());
    if (report.errors() > 0) return 1;
    if (strict && report.warnings() > 0) return 1;
    return 0;
  } catch (const std::exception& e) {
    err << "vcpusim: lint failed: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace

int run_cli(int argc, const char* const* argv, std::ostream& out,
            std::ostream& err) {
  if (argc > 1 && std::string(argv[1]) == "lint") {
    return run_lint(argc, argv, out, err);
  }
  if (argc > 1 && std::string(argv[1]) == "algorithms") {
    return run_algorithms(argc, argv, out, err);
  }
  if (argc > 1 && std::string(argv[1]) == "trace") {
    return run_trace(argc, argv, out, err);
  }
  if (argc > 1 && std::string(argv[1]) == "compare") {
    return run_compare(argc, argv, out, err);
  }

  // `vcpusim run ...` is the explicit spelling of the default verb.
  std::vector<const char*> args(argv, argv + argc);
  if (argc > 1 && std::string(argv[1]) == "run") {
    args.erase(args.begin() + 1);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  Options options;
  if (const int rc = parse_args(argc, argv, options, err); rc != 0) return rc;

  if (options.help) {
    out << kUsage;
    return 0;
  }
  if (options.list_algorithms) {
    for (const auto& name : sched::builtin_algorithms()) out << name << "\n";
    return 0;
  }

  try {
    finalize_scenario(options);
    auto& scenario = options.scenario;

    stats::MetricsRegistry registry;
    scenario.spec.profile = options.profile;
    if (!options.metrics_out.empty() || options.profile) {
      scenario.spec.metrics = &registry;
    }
    // Writes the registry (accumulated across every run_point of this
    // invocation) once the run paths below finish without error.
    const auto flush_metrics = [&]() -> int {
      if (options.metrics_out.empty()) return 0;
      return write_metrics_file(registry, options.metrics_out, err);
    };

    if (options.compare) {
      // One row per algorithm, one column per metric.
      std::vector<std::string> columns = {"algorithm"};
      for (const auto& m : scenario.metrics) {
        columns.push_back(m.label.empty() ? exp::default_label(m) : m.label);
      }
      columns.push_back("replications");
      exp::Table table(std::move(columns));
      for (const auto& name : sched::builtin_algorithms()) {
        scenario.spec.scheduler = sched::make_factory(name);
        const auto result = exp::run_point(scenario.spec, scenario.metrics);
        std::vector<std::string> row = {name};
        for (const auto& m : result.metrics) {
          row.push_back(exp::format_fixed(m.ci.mean, 4) + " ±" +
                        exp::format_fixed(m.ci.half_width, 4));
        }
        row.push_back(std::to_string(result.replications));
        table.add_row(std::move(row));
      }
      out << (options.csv ? table.to_csv() : table.render());
      return flush_metrics();
    }

    scenario.spec.scheduler = sched::make_factory(scenario.algorithm);
    const auto result = exp::run_point(scenario.spec, scenario.metrics);

    exp::Table table({"metric", "mean", "ci_half_width", "replications",
                      "converged"});
    for (const auto& m : result.metrics) {
      table.add_row({m.name, exp::format_fixed(m.ci.mean, 4),
                     exp::format_fixed(m.ci.half_width, 4),
                     std::to_string(result.replications),
                     result.converged ? "yes" : "no"});
    }
    out << (options.csv ? table.to_csv() : table.render());
    return flush_metrics();
  } catch (const std::invalid_argument& e) {
    err << "vcpusim: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    err << "vcpusim: simulation failed: " << e.what() << "\n";
    return 2;
  }
}

}  // namespace vcpusim::cli
