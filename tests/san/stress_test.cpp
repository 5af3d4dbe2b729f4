// Stress and robustness tests of the SAN kernel: randomized net shapes,
// deep instantaneous chains, many activities, and pathological timings.
// The token ring and the mixed-priority fabric also run on the
// reference interpreter, which the kernel's trajectory must match.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <type_traits>
#include <vector>

#include "san/simulator.hpp"
#include "stats/distribution.hpp"
#include "testing/oracle.hpp"
#include "testing/reference_interpreter.hpp"

namespace vcpusim::san {
namespace {

TEST(SanStress, RandomizedTokenRingConservesTokens) {
  // A ring of N places; each hop moves one token to the next place with
  // a random-rate exponential activity. Total tokens are conserved
  // through hundreds of thousands of events.
  constexpr int kPlaces = 12;
  constexpr std::int64_t kTokens = 30;
  ComposedModel model("Ring");
  auto& sub = model.add_submodel("R");
  std::vector<std::shared_ptr<TokenPlace>> ring;
  for (int i = 0; i < kPlaces; ++i) {
    ring.push_back(sub.add_place<std::int64_t>(
        "p" + std::to_string(i), i == 0 ? kTokens : 0));
  }
  stats::Rng rates(99);
  for (int i = 0; i < kPlaces; ++i) {
    auto from = ring[static_cast<std::size_t>(i)];
    auto to = ring[static_cast<std::size_t>((i + 1) % kPlaces)];
    auto& hop = sub.add_timed_activity(
        "hop" + std::to_string(i),
        stats::make_exponential(0.2 + rates.uniform01()));
    hop.add_input_gate(
        {"has", [from]() { return from->get() > 0; }, nullptr});
    hop.add_output_gate({"move", [from, to](GateContext&) {
                           from->mut() -= 1;
                           to->mut() += 1;
                         }});
  }
  SimulatorConfig config;
  config.end_time = 50000.0;
  config.seed = 31;
  const testing::OracleRun kernel =
      testing::run_recorded<Simulator>(model, config);
  EXPECT_GT(kernel.stats.events, 10000u);
  std::int64_t total = 0;
  std::vector<std::int64_t> marking;
  for (const auto& p : ring) {
    total += p->get();
    marking.push_back(p->get());
    EXPECT_GE(p->get(), 0);
  }
  EXPECT_EQ(total, kTokens);

  // The undeclared gates force a full rescan after every firing; the
  // reference walks the same trajectory to the same marking.
  const testing::OracleRun reference =
      testing::run_recorded<testing::ReferenceInterpreter>(model, config);
  testing::expect_same_trajectory(kernel, reference, "ring");
  for (std::size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring[i]->get(), marking[i]) << ring[i]->name();
  }
}

TEST(SanStress, DeepInstantaneousChainTerminates) {
  // A countdown of 10000 zero-time firings at a single instant must
  // complete without tripping the livelock guard (set above the depth).
  ComposedModel model("Chain");
  auto& sub = model.add_submodel("C");
  auto countdown = sub.add_place<std::int64_t>("countdown", 10000);
  auto& step = sub.add_instantaneous_activity("step");
  step.add_input_gate(
      {"left", [countdown]() { return countdown->get() > 0; }, nullptr});
  step.add_output_gate(
      {"dec", [countdown](GateContext&) { countdown->mut() -= 1; }});
  SimulatorConfig config;
  config.end_time = 1.0;
  Simulator sim(config);
  sim.set_model(model);
  const auto stats_out = sim.run();
  EXPECT_EQ(countdown->get(), 0);
  EXPECT_EQ(stats_out.events, 10000u);
}

TEST(SanStress, ManyIndependentClocksScaleLinearly) {
  // 100 independent unit clocks for 100 ticks = 10000 events exactly.
  ComposedModel model("Clocks");
  auto& sub = model.add_submodel("C");
  auto count = sub.add_place<std::int64_t>("count", 0);
  for (int i = 0; i < 100; ++i) {
    auto& clock = sub.add_timed_activity("clock" + std::to_string(i),
                                         stats::make_deterministic(1.0));
    clock.add_output_gate(
        {"inc", [count](GateContext&) { count->mut() += 1; }});
  }
  SimulatorConfig config;
  config.end_time = 100.0;
  Simulator sim(config);
  sim.set_model(model);
  const auto stats_out = sim.run();
  EXPECT_EQ(stats_out.events, 10000u);
  EXPECT_EQ(count->get(), 10000);
}

TEST(SanStress, RapidEnableDisableChurnStaysConsistent) {
  // A gate that flips on and off every tick forces constant activation
  // and abortion of a slow activity — it must never fire.
  ComposedModel model("Churn");
  auto& sub = model.add_submodel("C");
  auto phase = sub.add_place<std::int64_t>("phase", 0);
  auto fired = sub.add_place<std::int64_t>("fired", 0);
  auto& flipper = sub.add_timed_activity("flip", stats::make_deterministic(1.0));
  flipper.add_output_gate(
      {"toggle", [phase](GateContext&) { phase->set(1 - phase->get()); }});
  auto& slow = sub.add_timed_activity("slow", stats::make_deterministic(1.5));
  slow.add_input_gate(
      {"odd", [phase]() { return phase->get() == 1; }, nullptr});
  slow.add_output_gate({"mark", [fired](GateContext&) { fired->mut() += 1; }});
  SimulatorConfig config;
  config.end_time = 1000.0;
  Simulator sim(config);
  sim.set_model(model);
  sim.run();
  // Enabled windows last exactly 1 tick < 1.5 delay: never completes.
  EXPECT_EQ(fired->get(), 0);
}

TEST(SanStress, ZeroDelayTimedActivitySelfLimits) {
  // Deterministic(0) timed activities are legal as long as each firing
  // consumes enabling state (the virtualization model's generator
  // pattern); a bounded budget must drain in zero time.
  ComposedModel model("Zero");
  auto& sub = model.add_submodel("Z");
  auto budget = sub.add_place<std::int64_t>("budget", 500);
  auto& burst = sub.add_timed_activity("burst", stats::make_deterministic(0.0));
  burst.add_input_gate(
      {"has", [budget]() { return budget->get() > 0; }, nullptr});
  burst.add_output_gate(
      {"dec", [budget](GateContext&) { budget->mut() -= 1; }});
  SimulatorConfig config;
  config.end_time = 1.0;
  Simulator sim(config);
  sim.set_model(model);
  const auto stats_out = sim.run();
  EXPECT_EQ(budget->get(), 0);
  EXPECT_EQ(stats_out.events, 500u);
}

TEST(SanStress, MixedPriorityFabricDeterministicAcrossRuns) {
  // A medium-size net mixing instantaneous priorities, zero delays and
  // probabilistic cases must replay identically for the same seed, and
  // identically to the reference interpreter.
  const auto run_once_hash = [](std::uint64_t seed, auto runner) {
    using Runner = typename decltype(runner)::type;
    ComposedModel model("Fabric");
    auto& sub = model.add_submodel("F");
    auto a = sub.add_place<std::int64_t>("a", 5);
    auto b = sub.add_place<std::int64_t>("b", 0);
    auto c = sub.add_place<std::int64_t>("c", 0);
    auto& source = sub.add_timed_activity("source", stats::make_exponential(0.8));
    Case left{0.6, {}};
    left.output_gates.push_back({"l", [a](GateContext&) { a->mut() += 1; }});
    Case right{0.4, {}};
    right.output_gates.push_back({"r", [b](GateContext&) { b->mut() += 1; }});
    source.add_case(std::move(left));
    source.add_case(std::move(right));
    auto& drain_a = sub.add_instantaneous_activity("drain_a", 5);
    drain_a.add_input_gate({"g", [a]() { return a->get() >= 3; }, nullptr});
    drain_a.add_output_gate({"o", [a, c](GateContext&) {
                               a->mut() -= 3;
                               c->mut() += 1;
                             }});
    auto& drain_b = sub.add_instantaneous_activity("drain_b", 1);
    drain_b.add_input_gate({"g", [b]() { return b->get() >= 2; }, nullptr});
    drain_b.add_output_gate({"o", [b, c](GateContext&) {
                               b->mut() -= 2;
                               c->mut() += 1;
                             }});
    SimulatorConfig config;
    config.end_time = 5000.0;
    config.seed = seed;
    const testing::OracleRun run = testing::run_recorded<Runner>(model, config);
    return std::tuple(run.events, run.stats.events, run.stats.aborted_events,
                      a->get(), b->get(), c->get());
  };
  const auto kernel = std::type_identity<Simulator>{};
  const auto reference = std::type_identity<testing::ReferenceInterpreter>{};
  EXPECT_EQ(run_once_hash(7, kernel), run_once_hash(7, kernel));
  EXPECT_TRUE(run_once_hash(7, kernel) == run_once_hash(7, reference))
      << "kernel and reference trajectories differ";
  EXPECT_NE(std::get<5>(run_once_hash(7, kernel)),
            std::get<5>(run_once_hash(8, kernel)));
}

}  // namespace
}  // namespace vcpusim::san
