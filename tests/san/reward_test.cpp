#include "san/reward.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "san/simulator.hpp"
#include "stats/distribution.hpp"
#include "testing/reference_interpreter.hpp"

namespace vcpusim::san {
namespace {

TEST(RewardVariable, RejectsNullRateFunction) {
  EXPECT_THROW(RewardVariable("r", nullptr), std::invalid_argument);
}

TEST(RewardVariable, RateAccruesOverDwellTime) {
  RewardVariable r("r", []() { return 2.0; });
  r.on_advance(0.0, 5.0);
  EXPECT_DOUBLE_EQ(r.accumulated(), 10.0);
  EXPECT_DOUBLE_EQ(r.time_averaged(5.0), 2.0);
}

TEST(RewardVariable, WarmupTruncatesAccrual) {
  RewardVariable r("r", []() { return 1.0; }, 10.0);
  r.on_advance(0.0, 5.0);  // entirely before start: nothing
  EXPECT_DOUBLE_EQ(r.accumulated(), 0.0);
  r.on_advance(5.0, 15.0);  // straddles start: only [10, 15)
  EXPECT_DOUBLE_EQ(r.accumulated(), 5.0);
  EXPECT_DOUBLE_EQ(r.time_averaged(15.0), 1.0);
}

TEST(RewardVariable, TimeAveragedOfEmptyIntervalIsZero) {
  RewardVariable r("r", []() { return 1.0; }, 10.0);
  EXPECT_DOUBLE_EQ(r.time_averaged(10.0), 0.0);
  EXPECT_DOUBLE_EQ(r.time_averaged(5.0), 0.0);
}

TEST(RewardVariable, RateReadsCurrentState) {
  double level = 0.0;
  RewardVariable r("r", [&level]() { return level; });
  r.on_advance(0.0, 1.0);
  level = 3.0;
  r.on_advance(1.0, 2.0);
  EXPECT_DOUBLE_EQ(r.accumulated(), 3.0);
}

TEST(RewardVariable, ImpulseOnActivityCompletion) {
  // Two unit clocks fire at t = 1 and t = 2; only a's completions earn.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto& a = sub.add_timed_activity("a", stats::make_deterministic(1.0));
  auto& b = sub.add_timed_activity("b", stats::make_deterministic(1.0));
  a.add_output_gate({"a", [](GateContext&) {}, access({})});
  b.add_output_gate({"b", [](GateContext&) {}, access({})});
  auto r = RewardVariable::impulse_only("r");
  r.add_impulse(&a, []() { return 2.5; });  // no impulse registered for b

  SimulatorConfig c;
  c.end_time = 2.0;
  Simulator sim(c);
  sim.set_model(cm);
  sim.add_reward(r);
  EXPECT_EQ(sim.run().events, 4u);
  EXPECT_DOUBLE_EQ(r.accumulated(), 5.0);
  EXPECT_EQ(r.impulse_count(), 2u);
}

TEST(RewardVariable, ImpulseBeforeStartEvaluatedButNotAccrued) {
  Activity a("a", stats::make_deterministic(1.0));
  auto r = RewardVariable::impulse_only("r", 10.0);
  int calls = 0;
  r.add_impulse(&a, [&calls]() {
    ++calls;
    return 1.0;
  });
  r.on_impulse(0, 5.0);
  EXPECT_EQ(calls, 1);  // delta-style impulse functions must observe this
  EXPECT_DOUBLE_EQ(r.accumulated(), 0.0);
  r.on_impulse(0, 12.0);
  EXPECT_DOUBLE_EQ(r.accumulated(), 1.0);
}

TEST(RewardVariable, AddImpulseValidation) {
  Activity a("a", stats::make_deterministic(1.0));
  auto r = RewardVariable::impulse_only("r");
  EXPECT_THROW(r.add_impulse(nullptr, []() { return 1.0; }),
               std::invalid_argument);
  EXPECT_THROW(r.add_impulse(&a, nullptr), std::invalid_argument);
}

TEST(RewardVariable, ResetClearsAccumulation) {
  RewardVariable r("r", []() { return 1.0; });
  r.on_advance(0.0, 5.0);
  r.reset();
  EXPECT_DOUBLE_EQ(r.accumulated(), 0.0);
  EXPECT_EQ(r.impulse_count(), 0u);
}

TEST(RewardVariable, CombinedRateAndImpulseInSimulation) {
  // A clock fires every tick. Rate reward: tokens present. Impulse: +1
  // per firing. Over 10 ticks from t=0: 10 impulses, rate integral of a
  // staircase (0 during [0,1), 1 during [1,2), ... 9 during [9,10)) = 45.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto tokens = sub.add_place<std::int64_t>("tokens", 0);
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate(
      {"inc", [tokens](GateContext&) { tokens->mut() += 1; }});

  RewardVariable combined(
      "combined", [tokens]() { return static_cast<double>(tokens->get()); });
  combined.add_impulse(&clock, []() { return 1.0; });

  SimulatorConfig c;
  c.end_time = 10.0;
  Simulator sim(c);
  sim.set_model(cm);
  sim.add_reward(combined);
  sim.run();
  EXPECT_DOUBLE_EQ(combined.accumulated(), 45.0 + 10.0);
  EXPECT_EQ(combined.impulse_count(), 10u);
}

TEST(RewardVariable, AccruesTailUpToEndTime) {
  // No events after t=1; the reward must still integrate to end_time.
  ComposedModel cm("M");
  auto& sub = cm.add_submodel("S");
  auto flag = sub.add_place<std::int64_t>("flag", 0);
  auto armed = sub.add_place<std::int64_t>("armed", 1);
  auto& once = sub.add_timed_activity("once", stats::make_deterministic(1.0));
  once.add_input_gate({"g", [armed]() { return armed->get() == 1; }, nullptr});
  once.add_output_gate({"o", [flag, armed](GateContext&) {
                          flag->set(1);
                          armed->set(0);
                        }});

  RewardVariable r("flag", [flag]() { return static_cast<double>(flag->get()); });
  SimulatorConfig c;
  c.end_time = 10.0;
  Simulator sim(c);
  sim.set_model(cm);
  sim.add_reward(r);
  sim.run();
  EXPECT_DOUBLE_EQ(r.accumulated(), 9.0);  // flag=1 during [1, 10)
  EXPECT_DOUBLE_EQ(r.time_averaged(10.0), 0.9);
}

// --- Per-activity impulse dispatch ---------------------------------------
//
// Simulator::add_reward files each impulse under its activity; a
// completion runs exactly that activity's impulses, in reward
// registration order and then add_impulse order. Each case runs on the
// kernel and on the reference interpreter, which finds an activity's
// impulses by scanning every reward.

/// Call `body(runner, label)` with the kernel and with the reference
/// interpreter; the body names the runner type as
/// `typename decltype(runner)::type`.
template <class Body>
void on_kernel_and_reference(const Body& body) {
  body(std::type_identity<Simulator>{}, "kernel");
  body(std::type_identity<testing::ReferenceInterpreter>{}, "reference");
}

/// A unit clock feeding tokens to an instantaneous drain: per tick one
/// timed and one instantaneous completion.
struct ClockDrain {
  ComposedModel model{"M"};
  Activity* clock = nullptr;
  Activity* drain = nullptr;

  ClockDrain() {
    auto& sub = model.add_submodel("S");
    auto tokens = sub.add_place<std::int64_t>("tokens", 0);
    clock = &sub.add_timed_activity("clock", stats::make_deterministic(1.0));
    clock->add_output_gate(
        {"feed", [tokens](GateContext&) { tokens->mut() += 1; },
         access({}, {tokens})});
    drain = &sub.add_instantaneous_activity("drain");
    drain->add_input_gate({"has", [tokens]() { return tokens->get() > 0; },
                           [tokens](GateContext&) { tokens->mut() -= 1; },
                           access({tokens}, {tokens}), {}});
  }
};

SimulatorConfig until(Time end) {
  SimulatorConfig c;
  c.end_time = end;
  return c;
}

TEST(ImpulseDispatch, SameActivityRunsInRegistrationOrder) {
  on_kernel_and_reference([](auto runner, const char* label) {
    using Runner = typename decltype(runner)::type;
    ClockDrain net;
    std::vector<std::string> calls;
    const auto log = [&calls](const char* tag) {
      return [&calls, tag]() {
        calls.emplace_back(tag);
        return 1.0;
      };
    };
    auto first = RewardVariable::impulse_only("first");
    first.add_impulse(net.clock, log("first.a"));
    first.add_impulse(net.clock, log("first.b"));
    auto second = RewardVariable::impulse_only("second");
    second.add_impulse(net.clock, log("second"));
    Runner sim(until(2.0));
    sim.set_model(net.model);
    sim.add_reward(first);
    sim.add_reward(second);
    sim.run();
    const std::vector<std::string> tick = {"first.a", "first.b", "second"};
    std::vector<std::string> expected = tick;
    expected.insert(expected.end(), tick.begin(), tick.end());
    EXPECT_EQ(calls, expected) << label;
    EXPECT_DOUBLE_EQ(first.accumulated(), 4.0);
    EXPECT_DOUBLE_EQ(second.accumulated(), 2.0);
  });
}

TEST(ImpulseDispatch, TimedAndInstantaneousActivities) {
  on_kernel_and_reference([](auto runner, const char* label) {
    using Runner = typename decltype(runner)::type;
    ClockDrain net;
    auto r = RewardVariable::impulse_only("r");
    r.add_impulse(net.clock, []() { return 1.0; });
    r.add_impulse(net.drain, []() { return 10.0; });
    Runner sim(until(3.0));
    sim.set_model(net.model);
    sim.add_reward(r);
    EXPECT_EQ(sim.run().events, 6u);
    EXPECT_DOUBLE_EQ(r.accumulated(), 33.0) << label;
    EXPECT_EQ(r.impulse_count(), 6u);
  });
}

TEST(ImpulseDispatch, ActivityOutsideModelIsIgnored) {
  on_kernel_and_reference([](auto runner, const char* label) {
    using Runner = typename decltype(runner)::type;
    ClockDrain net;
    Activity stranger("stranger", stats::make_deterministic(1.0));
    int calls = 0;
    auto r = RewardVariable::impulse_only("r");
    r.add_impulse(&stranger, [&calls]() {
      ++calls;
      return 1.0;
    });
    r.add_impulse(net.clock, []() { return 2.0; });
    Runner sim(until(3.0));
    sim.set_model(net.model);
    sim.add_reward(r);
    sim.run();
    EXPECT_EQ(calls, 0) << label;
    EXPECT_DOUBLE_EQ(r.accumulated(), 6.0);
  });
}

TEST(ImpulseDispatch, ClearRewardsThenRebind) {
  on_kernel_and_reference([](auto runner, const char* label) {
    using Runner = typename decltype(runner)::type;
    ClockDrain net;
    auto old_reward = RewardVariable::impulse_only("old");
    old_reward.add_impulse(net.clock, []() { return 1.0; });
    Runner sim(until(3.0));
    sim.set_model(net.model);
    sim.add_reward(old_reward);
    sim.run();
    ASSERT_DOUBLE_EQ(old_reward.accumulated(), 3.0);

    // The rebound set replaces the old one: the dropped reward is neither
    // reset nor earned into, the new one earns on the same activity.
    sim.clear_rewards();
    auto fresh = RewardVariable::impulse_only("fresh");
    fresh.add_impulse(net.drain, []() { return 5.0; });
    sim.add_reward(fresh);
    sim.run();
    EXPECT_DOUBLE_EQ(old_reward.accumulated(), 3.0) << label;
    EXPECT_DOUBLE_EQ(fresh.accumulated(), 15.0);

    // Re-setting the model keeps the registered rewards indexed.
    sim.set_model(net.model);
    sim.run();
    EXPECT_DOUBLE_EQ(fresh.accumulated(), 15.0);
  });
}

TEST(ImpulseDispatch, AddImpulseAfterRegistrationThrows) {
  // The simulator indexes a reward's impulses when it is registered, so
  // a later impulse would silently never fire: it is rejected instead.
  ClockDrain net;
  auto r = RewardVariable::impulse_only("r");
  r.add_impulse(net.clock, []() { return 1.0; });
  Simulator sim(until(2.0));
  sim.set_model(net.model);
  sim.add_reward(r);
  EXPECT_THROW(r.add_impulse(net.drain, []() { return 1.0; }),
               std::logic_error);
  sim.run();
  EXPECT_DOUBLE_EQ(r.accumulated(), 2.0);  // the registered impulse only
  EXPECT_EQ(r.impulses().size(), 1u);
}

}  // namespace
}  // namespace vcpusim::san
