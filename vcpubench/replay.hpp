// The traced run: replays a workload's points layer by layer through the
// library's public calls, with a span around every call into a layer.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "vcpubench.hpp"

namespace vcpubench {

/// One timed call into a layer. The layer is the name's prefix before
/// the first '.'; `parent` is the index of the enclosing span (-1 for a
/// point's root span). A span's self time is its duration minus its
/// children's durations.
struct Span {
  std::string name;
  int pass = 0;  ///< which replay of the run
  int parent = -1;
  int point = -1;
  int rep = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// In-memory span store, written out once at exit.
class SpanLog {
 public:
  /// Open a span now; close it with close(). Returns its index.
  int open(std::string name, int pass, int parent, int point, int rep);
  void close(int id);
  /// Record a span whose duration was measured elsewhere (decide time
  /// summed by the scheduler decorator, the bridge's phase profile).
  int add(std::string name, int pass, int parent, int point, int rep,
          std::uint64_t start_ns, std::uint64_t dur_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// One JSON object per line.
  void write_jsonl(std::ostream& os) const;

 private:
  std::vector<Span> spans_;
};

/// Totals of one replay of a workload.
struct ReplayResult {
  /// Per point: estimates plus the replayable exact counters.
  std::vector<PointOutcome> outcomes;
  std::uint64_t wall_ns = 0;
  /// Self time per layer ("exp", "stats", "vm", "san", "sched").
  std::map<std::string, std::uint64_t> layer_self_ns;
  bool negative_self = false;  ///< some span's children outlasted it
  /// Replications whose snapshot + decide + apply outlast their
  /// Scheduling_Func fire, or decide + bridge their advance_until.
  std::uint64_t denest_violations = 0;

  /// Share of the wall time outside every point's root span (the replay
  /// loop's own bookkeeping). The layer self times cover the rest by
  /// construction.
  double unattributed_share() const;

  // Host time, summed over all replications.
  std::uint64_t advance_self_ns = 0;  ///< advance_until - decide - bridge
  std::uint64_t settle_ns = 0;
  std::uint64_t fire_self_ns = 0;     ///< fire - snapshot - decide - apply
  std::uint64_t decide_ns = 0;        ///< measured by the decorator
  std::uint64_t bridge_ns = 0;        ///< snapshot + apply
  std::uint64_t san_reset_ns = 0;
  std::uint64_t vm_reset_ns = 0;

  // Exact work counts.
  std::uint64_t replications = 0;
  std::uint64_t events = 0;
  std::uint64_t aborted = 0;
  std::uint64_t evals = 0;
  std::uint64_t ticks = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t compiled_gates = 0;
  std::uint64_t trampoline_gates = 0;
};

/// Replay every point of `workload` sequentially: vm::build_system, the
/// analyzer, Simulator::set_model, then per replication
/// VirtualSystem::reset + Simulator::reset + advance_until with the
/// vm/metrics.hpp rewards attached, driven by stats::run_replications
/// under the point's own controller — so estimates and counters must
/// equal the untraced run's. Spans go to `log`, tagged with `pass`.
ReplayResult replay(const Workload& workload, SpanLog& log, int pass);

}  // namespace vcpubench
