// Randomized SAN model stress test: generate random place / activity /
// gate graphs and require that every one is either rejected by the
// static analyzer or simulates cleanly — no negative markings, settle
// convergence, and the reference interpreter's trajectory in both
// enabling modes. Runs under the sanitizer CI legs like every other san
// test.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "san/analyze/analyzer.hpp"
#include "san/model.hpp"
#include "san/simulator.hpp"
#include "stats/distribution.hpp"
#include "testing/helpers.hpp"
#include "testing/oracle.hpp"
#include "testing/reference_interpreter.hpp"

namespace vcpusim::san {
namespace {

using vcpusim::testing::PropertyRng;

using IntPlace = std::shared_ptr<Place<std::int64_t>>;

/// A randomly wired token net. Construction invariants keep it
/// *dynamically* well-formed — every consumer is guarded by a predicate
/// covering what it takes, every instantaneous activity strictly drains
/// its guard place — so a clean simulation is always achievable; whether
/// the *static* analyzer accepts it depends on the (randomly partial)
/// footprint declarations.
struct RandomNet {
  ComposedModel model{"Random"};
  std::vector<IntPlace> places;

  explicit RandomNet(PropertyRng& rng) {
    auto& sub = model.add_submodel("N");
    const int num_places = rng.uniform_int(2, 8);
    places.reserve(static_cast<std::size_t>(num_places));
    for (int p = 0; p < num_places; ++p) {
      places.push_back(sub.add_place<std::int64_t>(
          "p" + std::to_string(p),
          static_cast<std::int64_t>(rng.uniform_int(0, 3))));
    }

    const int num_timed = rng.uniform_int(1, 6);
    for (int a = 0; a < num_timed; ++a) {
      auto& act = sub.add_timed_activity(
          "t" + std::to_string(a),
          rng.chance(0.5)
              ? stats::make_deterministic(rng.uniform(0.5, 3.0))
              : stats::make_exponential(rng.uniform(0.5, 3.0)));
      wire(rng, act, /*must_consume=*/false);
    }
    const int num_inst = rng.uniform_int(0, 2);
    for (int a = 0; a < num_inst; ++a) {
      auto& act = sub.add_instantaneous_activity("i" + std::to_string(a),
                                                 rng.uniform_int(0, 3));
      // Instantaneous activities must strictly drain their guard place
      // or enabling would persist across zero-time rounds (livelock).
      wire(rng, act, /*must_consume=*/true);
    }
  }

 private:
  IntPlace pick(PropertyRng& rng) {
    return places[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(places.size()) - 1))];
  }

  void wire(PropertyRng& rng, Activity& act, bool must_consume) {
    IntPlace src = pick(rng);
    IntPlace dst = pick(rng);
    const auto take = static_cast<std::int64_t>(rng.uniform_int(1, 2));
    const bool declared = rng.chance(0.7);  // footprints randomly partial

    InputGate in;
    in.name = act.name() + "_in";
    in.predicate = [src, take]() { return src->get() >= take; };
    const bool consume = must_consume || rng.chance(0.8);
    if (consume) {
      in.input_function = [src, take](GateContext&) { src->mut() -= take; };
    }
    if (declared) {
      in.footprint = consume ? access({src}, {src}) : access({src});
    }
    act.add_input_gate(std::move(in));

    OutputGate out;
    out.name = act.name() + "_out";
    // Instantaneous firings must strictly shrink the total token count,
    // or zero-time cycles (i0 moving p1->p2 while i1 moves p2->p1) spin
    // forever; timed activities may mint tokens freely.
    const auto give = static_cast<std::int64_t>(
        must_consume ? rng.uniform_int(0, static_cast<int>(take) - 1)
                     : rng.uniform_int(0, 2));
    out.function = [dst, give](GateContext&) { dst->mut() += give; };
    if (declared) out.footprint = access({}, {dst});
    act.add_output_gate(std::move(out));
  }
};

TEST(RandomModelStress, AnalyzeRejectsOrSimulatesWithoutViolations) {
  int analyzed_clean = 0;
  int rejected = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    PropertyRng rng(seed);
    RandomNet net(rng);

    const auto report = analyze::Analyzer().analyze(net.model);
    if (report.errors() > 0) {
      ++rejected;  // the analyzer's verdict is a valid outcome
      continue;
    }
    ++analyzed_clean;

    SimulatorConfig config;
    config.end_time = 50.0;
    config.seed = seed;
    Simulator sim(config);
    sim.set_model(net.model);
    const auto stats = sim.run();
    EXPECT_FALSE(stats.hit_event_cap) << "seed " << seed;
    for (const auto& place : net.places) {
      EXPECT_GE(place->get(), 0)
          << "negative marking in " << place->name() << " (seed " << seed
          << ")";
    }
  }
  // The generator must actually exercise the simulate path, not just
  // produce analyzer-rejected graphs.
  EXPECT_GT(analyzed_clean, 10) << "rejected " << rejected << " models";
}

/// One run of the seed's random net on `Runner`: its trajectory and
/// final marking.
struct NetRun {
  testing::OracleRun run;
  std::vector<std::int64_t> marking;
};

template <class Runner>
NetRun run_net(std::uint64_t seed, bool incremental) {
  PropertyRng rng(seed);
  RandomNet net(rng);
  SimulatorConfig config;
  config.end_time = 40.0;
  config.seed = seed;
  config.incremental_enabling = incremental;
  NetRun out{testing::run_recorded<Runner>(net.model, config), {}};
  for (const auto& place : net.places) out.marking.push_back(place->get());
  return out;
}

TEST(RandomModelStress, TrajectoriesMatchAcrossEnablingModes) {
  // For every random net that survives analysis, the kernel must walk
  // the reference interpreter's trajectory whether or not the
  // footprint-driven enabling index is used — even when declarations
  // are partial (partial means conservative).
  int compared = 0;
  for (std::uint64_t seed = 100; seed <= 130; ++seed) {
    {
      PropertyRng rng(seed);
      RandomNet net(rng);
      if (analyze::Analyzer().analyze(net.model).errors() > 0) continue;
    }
    ++compared;
    const NetRun reference = run_net<testing::ReferenceInterpreter>(seed, true);
    for (const bool incremental : {true, false}) {
      const std::string label = "seed " + std::to_string(seed) +
                                (incremental ? " incremental" : " full scan");
      const NetRun kernel = run_net<Simulator>(seed, incremental);
      testing::expect_same_trajectory(kernel.run, reference.run, label);
      EXPECT_EQ(kernel.marking, reference.marking) << label;
    }
  }
  EXPECT_GT(compared, 5);
}

TEST(RandomModelStress, ReplicationsAreReproducible) {
  for (std::uint64_t seed = 200; seed <= 210; ++seed) {
    std::vector<std::uint64_t> event_counts;
    for (int run = 0; run < 2; ++run) {
      PropertyRng rng(seed);
      RandomNet net(rng);
      SimulatorConfig config;
      config.end_time = 30.0;
      config.seed = seed;
      Simulator sim(config);
      sim.set_model(net.model);
      event_counts.push_back(sim.run().events);
    }
    EXPECT_EQ(event_counts[0], event_counts[1]) << "seed " << seed;
  }
}

}  // namespace
}  // namespace vcpusim::san
