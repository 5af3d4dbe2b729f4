// The footprint sanitizer must be a pure observer: running every
// builtin algorithm (with and without the spinlock extension) under
// verify_footprints must (a) walk the bit-identical event trajectory a
// plain run walks, and (b) report zero footprint violations on the
// shipped models — the dynamic half of the "prove the footprints"
// gate, complementing the static lint in lint_shipped_models_test.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "san/sanitizer.hpp"
#include "san/simulator.hpp"
#include "sched/registry.hpp"
#include "trace/sinks.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim {
namespace {

constexpr san::Time kEndTime = 150.0;
constexpr std::uint64_t kSeed = 20260805;

vm::SystemConfig fig8_config(bool spinlock) {
  auto cfg = vm::make_symmetric_config(2, {2, 1, 1}, 5);
  if (spinlock) {
    for (auto& vmc : cfg.vms) vmc.spinlock.enabled = true;
  }
  return cfg;
}

/// FNV-1a over the full completion sequence.
std::uint64_t trace_digest(const trace::RingBufferSink& log) {
  std::uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](const void* data, std::size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  };
  for (const auto& e : log.entries()) {
    mix(&e.time, sizeof(e.time));
    mix(e.name.data(), e.name.size());
    mix(&e.a, sizeof(e.a));  // case index, 8 bytes
  }
  return h;
}

struct TraceRun {
  std::uint64_t events = 0;
  std::uint64_t enabling_evals = 0;
  std::uint64_t digest = 0;
  std::size_t footprint_errors = 0;
  std::string report_text;
};

TraceRun run_trace(const std::string& algorithm, bool spinlock,
                   bool verify_footprints) {
  auto system = vm::build_system(fig8_config(spinlock),
                                 sched::make_factory(algorithm)());
  san::SimulatorConfig config;
  config.end_time = kEndTime;
  config.seed = kSeed;
  config.verify_footprints = verify_footprints;
  san::Simulator sim(config);
  sim.set_model(*system->model);
  trace::RingBufferSink log(0, san::trace_bit(san::TraceCategory::kFire));
  sim.set_trace(&log);
  const auto stats = sim.run();
  TraceRun run;
  run.events = stats.events;
  run.enabling_evals = stats.enabling_evals;
  run.digest = trace_digest(log);
  if (verify_footprints) {
    const san::FootprintReport* report = sim.footprint_report();
    EXPECT_NE(report, nullptr);
    if (report != nullptr) {
      run.footprint_errors = report->errors();
      run.report_text = report->render_text();
    }
  }
  return run;
}

TEST(SanitizerIdentity, EveryAlgorithmIsTrajectoryIdenticalAndClean) {
  for (const auto& algorithm : sched::builtin_algorithms()) {
    for (const bool spinlock : {false, true}) {
      SCOPED_TRACE(algorithm + (spinlock ? "|spinlock" : "|plain"));
      const TraceRun plain = run_trace(algorithm, spinlock, false);
      const TraceRun checked = run_trace(algorithm, spinlock, true);
      EXPECT_EQ(checked.events, plain.events)
          << "sanitizer perturbed the event count";
      EXPECT_EQ(checked.digest, plain.digest)
          << "sanitizer perturbed the event trajectory";
      // Sanitized runs take the same sparse dirty-set path as plain ones,
      // so they re-evaluate exactly the same activities.
      EXPECT_EQ(checked.enabling_evals, plain.enabling_evals)
          << "sanitizer changed the enabling re-evaluation path";
      EXPECT_EQ(checked.footprint_errors, 0u) << checked.report_text;
    }
  }
}

}  // namespace
}  // namespace vcpusim
