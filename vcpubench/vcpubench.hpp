// Shared types of the vcpusim benchmark: workload points, per-point
// outcomes with their digests, and the host-time helpers.
#pragma once

#include <time.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exp/runner.hpp"
#include "stats/distribution.hpp"

namespace vcpubench {

namespace exp = vcpusim::exp;
namespace stats = vcpusim::stats;

/// Host time in nanoseconds (steady clock).
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (all threads) in nanoseconds.
inline std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// Global operator-new calls since process start (alloc_counter.cpp).
std::uint64_t allocations() noexcept;

/// One experiment point: a system, one algorithm and the metrics asked
/// of it. `spec.scheduler` is left empty; the runner fills it from
/// `algorithm` (the replay wraps it in a timing decorator first).
struct Point {
  std::string id;
  std::string algorithm;
  exp::RunSpec spec;
  std::vector<exp::MetricRequest> metrics;
};

struct Workload {
  std::string name;
  std::vector<Point> points;
  /// The points are the legs of one exp::compare_points call under
  /// common random numbers, baseline first (they share spec.system).
  bool compare = false;
  /// The workload's own load-duration distribution (stats.sample_ns).
  stats::DistributionPtr load;
};

/// Generate a workload ("paper-figs", "host-256", "crn-mix-64") from its
/// seed. `tiny` shortens every horizon and replication budget for the
/// self-test. Throws std::invalid_argument on an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed, bool tiny);

/// What one run of one point produced.
struct PointOutcome {
  std::string error;  ///< non-empty: the point threw
  std::vector<std::string> names;
  std::vector<stats::ConfidenceInterval> estimates;
  std::size_t replications = 0;
  bool converged = false;
  /// Exact counters from the run's stats::MetricsRegistry (empty when
  /// the run had none attached, i.e. inside exp::compare_points).
  std::map<std::string, std::uint64_t> counters;
  /// Largest per-replication event count (0 when unobserved).
  double max_events_per_rep = 0;
  double seconds = 0;      ///< host wall time
  double cpu_seconds = 0;  ///< process CPU time over the same interval
};

/// The registry counters the reference digests cover. `replayable`
/// restricts to those a sequential replay of the point reproduces (the
/// executor's bookkeeping is excluded). executor.pool_builds/_reuses are
/// not covered: with two lanes, whether the second lane finds a free
/// built slot depends on thread timing.
const std::vector<std::string>& exact_counter_names(bool replayable);

/// FNV-1a digest of replication count and every estimate's bits.
std::uint64_t estimate_digest(const PointOutcome& outcome);

/// FNV-1a digest of the exact counters (all of them, or the replayable
/// subset).
std::uint64_t counter_digest(const PointOutcome& outcome, bool replayable);

/// Workload-specific output checks on top of the digests: finite
/// estimates, the event cap, convergence of stopping-rule points and the
/// paper's exact cells. Returns the reason of the first failure, or "".
std::string check_outcome(const Workload& workload, const Point& point,
                          const PointOutcome& outcome);

}  // namespace vcpubench
