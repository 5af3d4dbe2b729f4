// Kernel-against-oracle comparison helpers: run a model on the compiled
// kernel (san::Simulator) and on the reference interpreter, and check
// the two trajectories agree bit for bit.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "san/simulator.hpp"
#include "testing/reference_interpreter.hpp"
#include "trace/sinks.hpp"

namespace vcpusim::testing {

/// The trace categories an oracle comparison records.
inline constexpr std::uint8_t kOracleCategories =
    san::trace_bit(san::TraceCategory::kFire) |
    san::trace_bit(san::TraceCategory::kEnabling);

/// The comparable outputs of one run.
struct OracleRun {
  std::vector<trace::OwnedTraceEvent> events;  ///< kFire + kEnabling
  san::RunStats stats;
};

/// Run `model` once under `config` on `Runner` (san::Simulator or
/// ReferenceInterpreter) with `rewards` registered, recording the
/// oracle categories.
template <class Runner>
OracleRun run_recorded(san::ComposedModel& model,
                       const san::SimulatorConfig& config,
                       const std::vector<san::RewardVariable*>& rewards = {}) {
  Runner sim(config);
  trace::RingBufferSink rec(0, kOracleCategories);
  sim.set_trace(&rec);
  for (san::RewardVariable* r : rewards) sim.add_reward(*r);
  sim.set_model(model);
  const san::RunStats stats = sim.run();
  return {rec.entries(), stats};
}

/// The same kFire / kEnabling stream, events and aborted events. Not
/// enabling_evals: the interpreter always scans everything. A mismatch
/// reports the first differing event, not both streams.
inline void expect_same_trajectory(const OracleRun& kernel,
                                   const OracleRun& reference,
                                   const std::string& label) {
  const auto [k, r] = std::mismatch(kernel.events.begin(), kernel.events.end(),
                                    reference.events.begin(),
                                    reference.events.end());
  if (k != kernel.events.end() || r != reference.events.end()) {
    const auto describe = [](const auto& it, const auto& end) {
      if (it == end) return std::string("<end of stream>");
      return "t=" + std::to_string(it->time) + " seq=" +
             std::to_string(it->seq) + " " + it->name + " a=" +
             std::to_string(it->a) + " category=" +
             std::to_string(static_cast<int>(it->category));
    };
    ADD_FAILURE() << label << ": streams diverge at event "
                  << (k - kernel.events.begin()) << " of "
                  << kernel.events.size() << "/" << reference.events.size()
                  << "\n  kernel:    " << describe(k, kernel.events.end())
                  << "\n  reference: " << describe(r, reference.events.end());
  }
  EXPECT_EQ(kernel.stats.events, reference.stats.events) << label;
  EXPECT_EQ(kernel.stats.aborted_events, reference.stats.aborted_events)
      << label;
  EXPECT_EQ(kernel.stats.hit_event_cap, reference.stats.hit_event_cap)
      << label;
  EXPECT_EQ(kernel.stats.end_time, reference.stats.end_time) << label;
}

}  // namespace vcpusim::testing
