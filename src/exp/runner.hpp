// High-level experiment runner: one call evaluates a set of metrics on a
// (system config, algorithm) point, replicated to the paper's confidence
// target. Every bench and example goes through this API.
#pragma once

#include <string>
#include <vector>

#include "san/experiment.hpp"
#include "san/simulator.hpp"
#include "san/trace.hpp"
#include "stats/metrics.hpp"
#include "stats/replication.hpp"
#include "vm/config.hpp"
#include "vm/sched_interface.hpp"

namespace vcpusim::exp {

class SystemPool;

/// Which metric to measure.
///
/// The *utilization* kinds follow the paper's definitions: VCPU
/// Utilization is the portion of time a VCPU processes workload **while
/// it holds a PCPU** (busy time / active time) — the metric that exposes
/// synchronization latency independent of how much PCPU time the
/// algorithm hands out. The *busy-fraction* kinds are the wall-clock
/// variant (busy time / total time).
enum class MetricKind {
  kVcpuAvailability,      ///< per-VCPU (index = global vcpu id)
  kMeanVcpuAvailability,  ///< averaged over all VCPUs
  kPcpuUtilization,       ///< averaged over all PCPUs
  kVcpuUtilization,       ///< busy/active ratio, per-VCPU (index)
  kMeanVcpuUtilization,   ///< busy/active ratio over all VCPUs
  kVcpuBusyFraction,      ///< busy/wall-clock, per-VCPU (index)
  kMeanVcpuBusyFraction,  ///< busy/wall-clock over all VCPUs
  kVmBlockedFraction,     ///< per-VM (index = vm id)
  kThroughput,            ///< completed jobs per tick, whole system
  kMeanSpinFraction,      ///< spinlock ext: spin-waiting / wall-clock
  kMeanEffectiveUtilization,  ///< spinlock ext: (busy - spinning) / active
  kEnergy,                ///< DVFS ext: integral of sum_p f·V² (energy units)
};

struct MetricRequest {
  MetricKind kind;
  int index = -1;     ///< vcpu or vm id for the per-entity kinds
  std::string label;  ///< metric name in the result (auto if empty)
};

struct RunSpec {
  vm::SystemConfig system;
  vm::SchedulerFactory scheduler;  ///< fresh scheduler per replication

  /// Opt-in fail-fast: statically analyze the composed model (a
  /// throwaway build) before the first replication and throw
  /// san::analyze::ModelAnalysisError on error-severity diagnostics —
  /// so a mis-wired model or scheduler aborts in milliseconds instead of
  /// deep into a replication run. See docs/ANALYZER.md.
  bool lint = false;

  san::Time end_time = 3000.0;
  san::Time warmup = 200.0;  ///< rewards start accruing here
  std::uint64_t base_seed = 42;

  /// Worker threads for the replication batches (0 = hardware
  /// concurrency). Replications are independently seeded and folded in
  /// index order, so every value of `jobs` yields the same
  /// ReplicationResult bit for bit. See docs/PERFORMANCE.md.
  std::size_t jobs = 1;

  /// Every replication runs on a built (system, simulator) slot checked
  /// out of an exp::SystemPool and reset, so a run builds at most `jobs`
  /// systems (docs/PERFORMANCE.md). By default run_point makes a private
  /// pool; set this to share an externally owned one across run_point
  /// calls whose spec.system has the same SystemPool fingerprint
  /// (run_sweep shares one pool per sweep row, compare_points one per
  /// comparison). Throws std::invalid_argument on a fingerprint mismatch.
  SystemPool* pool = nullptr;

  /// Forwarded to san::SimulatorConfig::incremental_enabling: use the
  /// footprint-driven enabling index (default) or the full-scan
  /// fallback. Trajectories are identical either way; the flag exists
  /// for benchmarking and equivalence tests.
  bool incremental_enabling = true;

  /// Forwarded to san::SimulatorConfig::verify_footprints: run every
  /// replication under the footprint sanitizer (san/sanitizer.hpp) and
  /// throw std::runtime_error with the full violation report if any
  /// replication ends with non-advisory violations. Trajectories are
  /// bit-identical to an unsanitized run; the cost is per-place-access
  /// checking, so off by default.
  bool verify_footprints = false;

  /// Not read: the compiled kernel is the only runtime (see
  /// san::Engine). Kept while the vcpubench harness still assigns it.
  san::Engine engine = san::Engine::kCompiled;

  /// The paper's statistical target (stats::ReplicationPolicy::paper());
  /// the exp::quality presets scale it per tier.
  stats::ReplicationPolicy policy = stats::ReplicationPolicy::paper();

  /// Replication controller: batch sizing, observation folding and the
  /// stopping decision (stats/replication.hpp, docs/STATISTICS.md).
  /// kFixed dispatches `jobs`-sized batches (bit-identical to the
  /// pre-controller runner); kAdaptive sizes batches from the observed
  /// variance, cutting speculative waste; kAntithetic runs mirrored
  /// replication pairs, typically converging in far fewer replications.
  /// Every kind folds in index order, so results are jobs-invariant.
  stats::ControllerKind controller = stats::ControllerKind::kFixed;

  // --- Observability (see docs/OBSERVABILITY.md) --------------------
  /// Structured trace sink receiving every non-speculative replication's
  /// event stream. Each replication records into a private in-memory
  /// buffer; after the stopping rule fires, the buffers are forwarded in
  /// replication-index order, each preceded by a kMarker "replication"
  /// event — so the delivered byte stream is identical for every value
  /// of `jobs`. The runner does NOT call sink->finish(); the owner does
  /// when the stream is complete.
  san::TraceSink* trace = nullptr;

  /// Registry receiving run-level metrics after the replications finish:
  /// "sim.*" (RunStats), "sched.*" (BridgeStats), "executor.*",
  /// "run.replications", "run.controller.*" (controller flag + batches),
  /// per-metric "metric.<name>" summaries, and with
  /// `profile` also "profile.<phase>.{calls,ns}". Deterministic entries
  /// ("sim.*", "sched.*", "metric.*", "run.*") fold only the
  /// non-speculative replications, in index order.
  stats::MetricsRegistry* metrics = nullptr;

  /// Enable wall-clock phase profiling (simulator settle/fire, bridge
  /// snapshot/decide/apply) in every replication; totals are exported
  /// into `metrics`. Timings are nondeterministic by nature.
  bool profile = false;
};

/// Run the experiment point: replications of the configured system under
/// the configured scheduler until every requested metric's CI converges.
/// Throws std::invalid_argument on empty metrics or missing scheduler.
stats::ReplicationResult run_point(const RunSpec& spec,
                                   const std::vector<MetricRequest>& metrics);

/// Default label of a metric request ("vcpu_availability[2]", ...).
std::string default_label(const MetricRequest& request);

}  // namespace vcpusim::exp
