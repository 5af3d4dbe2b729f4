// Compiled-kernel contract tests (san/compiled.hpp): bit-identical
// trajectories against the reference interpreter
// (tests/testing/reference_interpreter.hpp) on synthetic models that
// exercise every lowering path — exact-effect deltas, compiled
// predicate terms, probe terms, trampoline fallbacks, multi-case RNG
// draws — plus the arena reset identity, the pod-vector restore recipe,
// the event-calendar edge cases (far-future overflow, fractional times,
// horizon-split advances), the compile-time census the run-metrics
// registry exports, and the word / summary-word boundaries of the
// sparse dirty tracking (63/64/65 and 4095/4096/4097 activities, late
// priority winners, the opaque-write fallback). The vm-model
// equivalence lives in tests/integration/engine_equivalence_test.cpp;
// this file owns the kernel-level corners a full system never reaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "san/compiled.hpp"
#include "san/simulator.hpp"
#include "stats/distribution.hpp"
#include "testing/oracle.hpp"
#include "testing/reference_interpreter.hpp"
#include "trace/sinks.hpp"

namespace vcpusim::san {
namespace {

using testing::OracleRun;
using testing::ReferenceInterpreter;
using testing::expect_same_trajectory;
using testing::run_recorded;

SimulatorConfig config_with(Time end, std::uint64_t seed) {
  SimulatorConfig c;
  c.end_time = end;
  c.seed = seed;
  return c;
}

/// A model mixing every compiled-dispatch flavor: a token pipeline with
/// declared exact effects and pred terms (lowered), a weighted
/// multi-case activity (RNG case draws), a probe-gated consumer, and an
/// undeclared opaque gate (trampoline fallback).
struct MixedModel {
  std::unique_ptr<ComposedModel> model;
  std::shared_ptr<TokenPlace> buffer;
  std::shared_ptr<TokenPlace> done;
  std::shared_ptr<TokenPlace> opaque_hits;

  static MixedModel build() {
    MixedModel m;
    m.model = std::make_unique<ComposedModel>("mixed");
    auto& sub = m.model->add_submodel("S");
    m.buffer = sub.add_place<std::int64_t>("buffer", 0);
    m.done = sub.add_place<std::int64_t>("done", 0);
    m.opaque_hits = sub.add_place<std::int64_t>("opaque_hits", 0);
    auto buffer = m.buffer;
    auto done = m.done;
    auto opaque_hits = m.opaque_hits;

    // Lowered producer: exact-effect output gate, exponential delay.
    auto& produce =
        sub.add_timed_activity("produce", stats::make_exponential(0.9));
    produce.add_output_gate(
        {"p", [buffer](GateContext&) { buffer->mut() += 1; },
         with_exact_effect(access({}, {buffer}), {{buffer, "", +1}})});

    // Weighted cases: the case draw must consume the RNG stream exactly
    // as Activity::fire does.
    auto& branch =
        sub.add_timed_activity("branch", stats::make_uniform(0.5, 1.5));
    InputGate gate{"nonempty", [buffer]() { return buffer->get() > 0; },
                   nullptr, access({buffer}), {token_positive(buffer)}};
    branch.add_input_gate(std::move(gate));
    branch.add_case(
        {0.25, {{"take2",
                 [buffer, done](GateContext&) {
                   const auto take = buffer->get() >= 2 ? 2 : 1;
                   buffer->mut() -= take;
                   done->mut() += take;
                 },
                 access({buffer}, {buffer, done})}}});
    branch.add_case(
        {0.75, {{"take1", [buffer, done](GateContext&) {
                   buffer->mut() -= 1;
                   done->mut() += 1;
                 },
                 with_exact_effect(access({}, {buffer, done}),
                                   {{buffer, "", -1}, {done, "", +1}})}}});

    // Probe-gated watcher (compiled predicate via marking probe).
    auto& watch = sub.add_timed_activity(
        "watch", stats::make_deterministic(1.0), /*priority=*/1);
    InputGate probe_gate{
        "deep", [done]() { return done->get() >= 3; }, nullptr, access({done}),
        {marking_probe(done, [](const std::int64_t& v) { return v >= 3; })}};
    watch.add_input_gate(std::move(probe_gate));
    watch.add_output_gate({"w", [](GateContext&) {}, access({})});

    // Undeclared gate: trampoline dispatch AND an opaque write set
    // (forces full rescans).
    auto& opaque =
        sub.add_timed_activity("opaque", stats::make_erlang(2, 0.7));
    opaque.add_output_gate(
        {"o", [opaque_hits](GateContext&) { opaque_hits->mut() += 1; }, {}});
    return m;
  }
};

/// One run of a fresh MixedModel on `Runner`, plus its final marking.
struct MixedRun {
  OracleRun run;
  std::int64_t buffer, done, opaque_hits;
};

template <class Runner>
MixedRun run_mixed(Time end, std::uint64_t seed, bool incremental = true) {
  auto m = MixedModel::build();
  auto config = config_with(end, seed);
  config.incremental_enabling = incremental;
  OracleRun run = run_recorded<Runner>(*m.model, config);
  return {std::move(run), m.buffer->get(), m.done->get(), m.opaque_hits->get()};
}

void expect_same_mixed(const MixedRun& kernel, const MixedRun& reference,
                       const std::string& label) {
  ASSERT_FALSE(reference.run.events.empty()) << label;
  expect_same_trajectory(kernel.run, reference.run, label);
  EXPECT_EQ(kernel.buffer, reference.buffer) << label;
  EXPECT_EQ(kernel.done, reference.done) << label;
  EXPECT_EQ(kernel.opaque_hits, reference.opaque_hits) << label;
}

TEST(CompiledEngine, TrajectoryBitIdenticalToReference) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    expect_same_mixed(run_mixed<Simulator>(200.0, seed),
                      run_mixed<ReferenceInterpreter>(200.0, seed),
                      "seed " + std::to_string(seed));
  }
}

TEST(CompiledEngine, IncrementalOffMatchesToo) {
  // The sparse dirty sets are gated on incremental enabling; full-scan
  // mode must match the reference exactly too.
  expect_same_mixed(run_mixed<Simulator>(150.0, 5, false),
                    run_mixed<ReferenceInterpreter>(150.0, 5), "full scan");
}

/// A fresh `build()` model run on the kernel and on the interpreter;
/// `build` returns (model, count place) and the final counts must match.
template <class Build>
void expect_calendar_matches(const Build& build, Time end, std::uint64_t seed,
                             std::size_t min_events) {
  auto [km, kcount] = build();
  const OracleRun kernel = run_recorded<Simulator>(*km, config_with(end, seed));
  auto [rm, rcount] = build();
  const OracleRun reference =
      run_recorded<ReferenceInterpreter>(*rm, config_with(end, seed));
  const std::string label = "seed " + std::to_string(seed);
  ASSERT_GT(reference.stats.events, min_events) << label;
  expect_same_trajectory(kernel, reference, label);
  EXPECT_EQ(kcount->get(), rcount->get()) << label;
}

TEST(CompiledEngine, CalendarHandlesFarFutureDelays) {
  // Delays far beyond the calendar ring window (128 unit buckets) park
  // in the overflow list; the window must jump over the empty span and
  // fold them back in the exact EventOrder position.
  const auto build = [] {
    auto model = std::make_unique<ComposedModel>("far");
    auto& sub = model->add_submodel("S");
    auto count = sub.add_place<std::int64_t>("count", 0);
    auto& slow =
        sub.add_timed_activity("slow", stats::make_uniform(100.0, 900.0));
    slow.add_output_gate(
        {"s", [count](GateContext&) { count->mut() += 1; }, access({}, {count})});
    auto& rare =
        sub.add_timed_activity("rare", stats::make_deterministic(350.0));
    rare.add_output_gate(
        {"r", [count](GateContext&) { count->mut() += 10; }, access({}, {count})});
    return std::make_pair(std::move(model), count);
  };
  for (const std::uint64_t seed : {3ull, 11ull}) {
    expect_calendar_matches(build, 5000.0, seed, 10);
  }
}

TEST(CompiledEngine, CalendarOrdersFractionalTimesWithinBucket) {
  // Exponential(4) packs many fractional completion times into each
  // unit-width bucket, and quarter-tick clocks collide on the same ones;
  // within-bucket ordering must stay EventOrder-exact (time, then
  // priority, then FIFO seq).
  const auto build = [] {
    auto model = std::make_unique<ComposedModel>("frac");
    auto& sub = model->add_submodel("S");
    auto count = sub.add_place<std::int64_t>("count", 0);
    for (int i = 0; i < 6; ++i) {
      auto& fast = sub.add_timed_activity(
          "fast" + std::to_string(i), stats::make_exponential(4.0),
          /*priority=*/i % 3);
      fast.add_output_gate({"f", [count](GateContext&) { count->mut() += 1; },
                            access({}, {count})});
    }
    // Two clocks collide every half tick: the quarter clock re-queues
    // after the half clock but outranks it, so it must be sorted ahead.
    for (const auto& [name, period, priority] :
         {std::tuple("half", 0.5, 0), std::tuple("quarter", 0.25, 1)}) {
      auto& clock = sub.add_timed_activity(
          name, stats::make_deterministic(period), priority);
      clock.add_output_gate({"c", [count](GateContext&) { count->mut() += 1; },
                             access({}, {count})});
    }
    return std::make_pair(std::move(model), count);
  };
  expect_calendar_matches(build, 50.0, 9, 100);
}

TEST(CompiledEngine, AdvanceInStepsMatchesOneShot) {
  // The calendar keeps state across advance_until horizons (peeked but
  // unfired events stay queued); stepping must replay the one-shot run.
  auto one = MixedModel::build();
  Simulator whole(config_with(100.0, 13));
  trace::RingBufferSink wrec(0, trace_bit(TraceCategory::kFire));
  whole.set_trace(&wrec);
  whole.set_model(*one.model);
  const auto wstats = whole.run();

  auto stepped = MixedModel::build();
  Simulator steps(config_with(100.0, 13));
  trace::RingBufferSink srec(0, trace_bit(TraceCategory::kFire));
  steps.set_trace(&srec);
  steps.set_model(*stepped.model);
  steps.reset();
  RunStats sstats;
  for (Time t = 12.5; t <= 100.0; t += 12.5) sstats = steps.advance_until(t);
  EXPECT_EQ(wrec.entries(), srec.entries());
  EXPECT_EQ(wstats.events, sstats.events);
  EXPECT_EQ(one.done->get(), stepped.done->get());
}

TEST(CompiledEngine, ResetRestoresMarkingsWithoutPerPlaceResets) {
  auto m = MixedModel::build();
  Simulator sim(config_with(100.0, 2));
  sim.set_model(*m.model);
  sim.run();
  ASSERT_NE(m.done->get(), 0);

  const std::uint64_t before = PlaceBase::reset_count();
  sim.reset(2);
  EXPECT_EQ(PlaceBase::reset_count(), before)
      << "compiled reset must be a block copy, not virtual reset() calls";
  EXPECT_EQ(m.buffer->get(), 0);
  EXPECT_EQ(m.done->get(), 0);
  EXPECT_EQ(m.opaque_hits->get(), 0);
}

TEST(CompiledEngine, ResetWithSeedReplaysIdenticalReplication) {
  auto m = MixedModel::build();
  Simulator sim(config_with(80.0, 21));
  trace::RingBufferSink rec(0, trace_bit(TraceCategory::kFire));
  sim.set_trace(&rec);
  sim.set_model(*m.model);
  sim.run();
  const auto first = rec.entries();
  const auto done_first = m.done->get();
  ASSERT_FALSE(first.empty());

  // Same seed after reset: byte-identical replay off the arena image
  // (the zero-rebuild replication path the system pool relies on).
  rec.clear();
  sim.reset(21);
  sim.advance_until(80.0);
  EXPECT_EQ(rec.entries(), first);
  EXPECT_EQ(m.done->get(), done_first);

  // ...and both match the reference on a fresh model.
  auto fresh = MixedModel::build();
  ReferenceInterpreter reference(config_with(80.0, 21));
  trace::RingBufferSink ref_rec(0, trace_bit(TraceCategory::kFire));
  reference.set_trace(&ref_rec);
  reference.set_model(*fresh.model);
  reference.run();
  EXPECT_EQ(ref_rec.entries(), first);
  EXPECT_EQ(fresh.done->get(), done_first);
}

TEST(CompiledEngine, PodVectorMarkingRestoredOnReset) {
  ComposedModel cm("pod");
  auto& sub = cm.add_submodel("S");
  auto vec = sub.add_place<std::vector<std::int32_t>>(
      "vec", std::vector<std::int32_t>{1, 2, 3});
  auto& clock = sub.add_timed_activity("clock", stats::make_deterministic(1.0));
  clock.add_output_gate({"bump",
                         [vec](GateContext&) {
                           for (auto& v : vec->mut()) v += 1;
                         },
                         access({}, {vec})});

  Simulator sim(config_with(5.0, 1));
  sim.set_model(cm);
  sim.run();
  EXPECT_EQ(vec->get(), (std::vector<std::int32_t>{6, 7, 8}));
  sim.reset(1);
  EXPECT_EQ(vec->get(), (std::vector<std::int32_t>{1, 2, 3}))
      << "pod-vector markings restore through the flat span recipe";
}

TEST(CompiledEngine, DoubleCompileThrows) {
  auto m = MixedModel::build();
  Simulator first(config_with(10.0, 1));
  first.set_model(*m.model);
  Simulator second(config_with(10.0, 1));
  EXPECT_THROW(second.set_model(*m.model), std::logic_error)
      << "a model may be arena-bound by at most one simulator at a time";
  EXPECT_THROW(second.reset(), std::logic_error)
      << "a rejected model leaves the simulator without one";
}

TEST(CompiledEngine, KernelStatsCensusMatchesModel) {
  auto m = MixedModel::build();
  Simulator sim(config_with(10.0, 1));
  const KernelStats none = sim.kernel_stats();
  EXPECT_EQ(none.places, 0u) << "no census before set_model";
  EXPECT_EQ(none.arena_bytes, 0u);
  sim.set_model(*m.model);
  const KernelStats stats = sim.kernel_stats();
  EXPECT_EQ(stats.places, 3u);
  EXPECT_EQ(stats.arena_places, 3u);
  EXPECT_GT(stats.arena_bytes, 0u);
  // Lowered: produce's exact effect, branch's pred terms + take1 exact
  // effect, watch's probe gate. Trampolined: branch take2, watch's "w",
  // opaque's undeclared gate.
  EXPECT_EQ(stats.compiled_gates, 4u);
  EXPECT_EQ(stats.trampoline_gates, 3u);
}

// --- Bitset boundaries of the sparse dirty tracking --------------------
//
// The compiled kernel keeps its dirty and enabled sets as 64-bit words
// with a summary word per 64 words, so 64 and 4096 activities are the
// sizes where a set spills into a new word and a new summary word. The
// nets below straddle both and must run identically on the compiled
// kernel (incremental and full-scan) and on the reference interpreter.

/// Run the model `build()` returns (a fresh one per run: a model is
/// arena-bound by one simulator at a time) on the compiled kernel with
/// incremental enabling, on it in full-scan mode, and on the reference
/// interpreter, and check all three walk the same trajectory.
template <class Build>
void expect_engines_agree(const Build& build, Time end, std::uint64_t seed,
                          const std::string& label) {
  const auto run = [&](bool reference, bool incremental) {
    auto model = build();
    auto config = config_with(end, seed);
    config.incremental_enabling = incremental;
    return reference ? run_recorded<ReferenceInterpreter>(*model, config)
                     : run_recorded<Simulator>(*model, config);
  };
  const OracleRun comp = run(false, true);
  const OracleRun comp_full = run(false, false);
  const OracleRun reference = run(true, true);
  ASSERT_GT(reference.stats.events, 10u) << label;
  expect_same_trajectory(comp, reference, label + " incremental");
  expect_same_trajectory(comp_full, reference, label + " full scan");
}

/// `timed` timed and `inst` instantaneous activities over a ring of
/// token places, so every place's dependents spread across every word of
/// the dirty sets. Timed activities move or mint tokens; instantaneous
/// ones fire once a place fills up and burn a token each (no zero-time
/// livelock). Every ninth timed and every eleventh instantaneous
/// activity has an undeclared guard: an opaque read set (re-evaluated
/// every round) and an opaque write set (a full rescan after it fires).
/// Those fire rarely, so the run alternates between full rescans and
/// sparse marking.
std::unique_ptr<ComposedModel> build_wide_net(int timed, int inst) {
  constexpr int kPlaces = 16;
  auto model = std::make_unique<ComposedModel>("wide");
  auto& sub = model->add_submodel("W");
  std::vector<std::shared_ptr<TokenPlace>> ring;
  for (int p = 0; p < kPlaces; ++p) {
    ring.push_back(sub.add_place<std::int64_t>("p" + std::to_string(p), 3));
  }
  const auto at = [&ring](int i) {
    return ring[static_cast<std::size_t>(i % kPlaces)];
  };
  for (int t = 0; t < timed; ++t) {
    auto src = at(t);
    auto dst = at(t * 5 + 1);
    const bool opaque = t % 9 == 4;
    const bool mint = t % 5 == 0;
    auto& act = sub.add_timed_activity(
        "t" + std::to_string(t),
        stats::make_exponential(opaque ? 0.05 : 0.5 + 0.1 * (t % 7)));
    InputGate in{"has", [src]() { return src->get() > 0; }, nullptr, {}, {}};
    if (!mint) in.input_function = [src](GateContext&) { src->mut() -= 1; };
    if (!opaque) in.footprint = mint ? access({src}) : access({src}, {src});
    act.add_input_gate(std::move(in));
    act.add_output_gate(
        {"give", [dst](GateContext&) { dst->mut() += 1; }, access({}, {dst})});
  }
  for (int j = 0; j < inst; ++j) {
    auto src = at(j * 3);
    auto dst = at(j * 11 + 7);
    const std::int64_t need = 4 + j % 3;
    InputGate in{"full", [src, need]() { return src->get() >= need; },
                 [src](GateContext&) { src->mut() -= 2; }, {}, {}};
    if (j % 11 != 5) in.footprint = access({src}, {src});
    auto& act = sub.add_instantaneous_activity("i" + std::to_string(j), j % 4);
    act.add_input_gate(std::move(in));
    act.add_output_gate(
        {"spill", [dst](GateContext&) { dst->mut() += 1; }, access({}, {dst})});
  }
  return model;
}

TEST(CompiledEngine, SparseDirtySetsMatchAcrossWordBoundaries) {
  // 63/64/65 cross a mask word; 4095/4096/4097 cross a summary word.
  // Timed and instantaneous counts straddle the boundary in opposite
  // directions so both sets meet every side of it.
  const std::vector<std::pair<int, int>> sizes = {
      {63, 65}, {64, 64}, {65, 63}, {4095, 4097}, {4096, 4096}, {4097, 4095}};
  for (const auto& [timed, inst] : sizes) {
    // About 600 timed completions whatever the size.
    const Time end = 600.0 / timed;
    expect_engines_agree([timed = timed, inst = inst] {
      return build_wide_net(timed, inst);
    }, end, 17, "timed=" + std::to_string(timed) +
                    " inst=" + std::to_string(inst));
  }
}

/// A zero-time ladder over `inst` instantaneous activities of equal
/// priority, so each one's position in the priority order is its index.
/// A unit pulse raises `rung` to the top key; the member whose key
/// matches fires and hands `rung` to the next member down, so each step
/// has exactly one enabled member and the winner walks down across
/// words and summary words. A lower-priority sweeper is enabled through
/// the whole descent from the last position and must never win it.
std::unique_ptr<ComposedModel> build_ladder(int inst,
                                            const std::vector<int>& members) {
  auto model = std::make_unique<ComposedModel>("ladder");
  auto& sub = model->add_submodel("L");
  auto rung = sub.add_place<std::int64_t>("rung", 0);
  auto& pulse = sub.add_timed_activity("pulse", stats::make_deterministic(1.0));
  const std::int64_t top = members.front() + 1;
  pulse.add_output_gate(
      {"raise", [rung, top](GateContext&) { rung->set(top); },
       access({}, {rung})});
  for (int j = 0; j < inst; ++j) {
    const auto it = std::find(members.begin(), members.end(), j);
    // Keys are index + 1; non-members wait for a key that never comes.
    const std::int64_t key = it != members.end() ? j + 1 : -1;
    const std::int64_t next =
        it != members.end() && it + 1 != members.end() ? *(it + 1) + 1 : 0;
    auto& step = sub.add_instantaneous_activity("i" + std::to_string(j), 1);
    step.add_input_gate(
        {"key", [rung, key]() { return rung->get() == key; }, nullptr,
         access({rung}), {}});
    step.add_output_gate({"hand", [rung, next](GateContext&) { rung->set(next); },
                          access({}, {rung})});
  }
  auto& sweep = sub.add_instantaneous_activity("sweep", 0);
  sweep.add_input_gate(
      {"raised", [rung]() { return rung->get() > 0; }, nullptr, access({rung}),
       {}});
  sweep.add_output_gate(
      {"drop", [rung](GateContext&) { rung->set(0); }, access({}, {rung})});
  return model;
}

TEST(CompiledEngine, InstantaneousWinnerInLaterWordsAndSummaryWords) {
  struct Case {
    int inst;
    std::vector<int> members;  // descending
  };
  const std::vector<Case> cases = {
      {65, {64, 63, 1, 0}},
      {4097, {4096, 4095, 4032, 64, 63, 0}},
  };
  for (const Case& c : cases) {
    const auto build = [&c] { return build_ladder(c.inst, c.members); };
    const std::string label = "inst=" + std::to_string(c.inst);
    expect_engines_agree(build, 3.0, 5, label);

    // The descent itself: after each pulse, exactly the members in
    // descending order, and never the sweeper.
    auto model = build();
    Simulator sim(config_with(3.0, 5));
    trace::RingBufferSink rec(0, trace_bit(TraceCategory::kFire));
    sim.set_trace(&rec);
    sim.set_model(*model);
    sim.run();
    std::vector<std::string> expected;
    for (int pulse = 0; pulse < 3; ++pulse) {
      expected.push_back("L->pulse");
      for (const int j : c.members) {
        expected.push_back("L->i" + std::to_string(j));
      }
    }
    std::vector<std::string> fired;
    for (const auto& e : rec.entries()) fired.push_back(e.name);
    EXPECT_EQ(fired, expected) << label;
  }
}

TEST(CompiledEngine, OpaqueWriteFallsBackToFullScanThenSparse) {
  // 130 timed activities (three mask words) read one place each; a slow
  // "opaque" activity writes a ring place through an undeclared gate, so
  // its firing forces a full rescan. Afterwards marking must return to
  // the sparse runs: far fewer evals than a full scan every event.
  constexpr int kTimed = 130;
  constexpr int kPlaces = 8;
  const auto build = [] {
    auto model = std::make_unique<ComposedModel>("fallback");
    auto& sub = model->add_submodel("F");
    std::vector<std::shared_ptr<TokenPlace>> ring;
    for (int p = 0; p < kPlaces; ++p) {
      ring.push_back(sub.add_place<std::int64_t>("p" + std::to_string(p), 1));
    }
    for (int t = 0; t < kTimed; ++t) {
      auto src = ring[static_cast<std::size_t>(t % kPlaces)];
      auto dst = ring[static_cast<std::size_t>((t + 3) % kPlaces)];
      auto& act = sub.add_timed_activity("t" + std::to_string(t),
                                         stats::make_exponential(1.0));
      act.add_input_gate({"has", [src]() { return src->get() > 0; },
                          [src](GateContext&) { src->mut() -= 1; },
                          access({src}, {src}), {}});
      act.add_output_gate({"give", [dst](GateContext&) { dst->mut() += 1; },
                           access({}, {dst})});
    }
    auto target = ring.front();
    auto& opaque =
        sub.add_timed_activity("opaque", stats::make_exponential(0.5));
    opaque.add_output_gate(
        {"o", [target](GateContext&) { target->mut() += 1; }, {}});
    return model;
  };
  expect_engines_agree(build, 12.0, 23, "fallback");

  const auto evals = [&build](bool incremental) {
    auto model = build();
    auto config = config_with(12.0, 23);
    config.incremental_enabling = incremental;
    Simulator sim(config);
    sim.set_model(*model);
    return sim.run();
  };
  const RunStats sparse = evals(true);
  const RunStats full = evals(false);
  EXPECT_EQ(sparse.events, full.events);
  EXPECT_LT(sparse.enabling_evals * 3, full.enabling_evals)
      << "sparse=" << sparse.enabling_evals << " full=" << full.enabling_evals;
}

TEST(CompiledEngine, TouchOfPlaceOutsideModelFallsBackToHashLookup) {
  // A dynamic gate may report a place that is not part of the model, so
  // the compiled model gave it no dense id: the touch must still dirty
  // its readers, through the hash lookup. The watcher below is enabled
  // only by such touches.
  const auto build = [] {
    auto model = std::make_unique<ComposedModel>("outside");
    auto& sub = model->add_submodel("O");
    auto ext = std::make_shared<TokenPlace>("ext", 0);
    auto seen = sub.add_place<std::int64_t>("seen", 0);
    auto& bump =
        sub.add_timed_activity("bump", stats::make_exponential(1.0));
    bump.add_output_gate({"b",
                          [ext](GateContext& ctx) {
                            ext->mut() += 1;
                            ctx.touch(ext.get());
                          },
                          access_dynamic({}, {ext})});
    auto& watch =
        sub.add_timed_activity("watch", stats::make_deterministic(0.25));
    watch.add_input_gate({"odd", [ext]() { return ext->get() % 2 == 1; },
                          nullptr, access({ext}), {}});
    watch.add_output_gate(
        {"w", [seen](GateContext&) { seen->mut() += 1; }, access({}, {seen})});
    return model;
  };
  expect_engines_agree(build, 40.0, 3, "outside place");
}

TEST(CompiledEngine, NegativeDelayThrowsLikeReference) {
  struct Negative final : stats::Distribution {
    double sample(stats::Rng&) const override { return -1.0; }
    double mean() const override { return -1.0; }
    double variance() const override { return 0.0; }
    std::string describe() const override { return "negative"; }
  };
  ComposedModel model("neg");
  auto& sub = model.add_submodel("N");
  sub.add_timed_activity("backwards", std::make_shared<Negative>());
  Simulator sim(config_with(5.0, 1));
  sim.set_model(model);
  EXPECT_THROW(sim.run(), std::logic_error);
  ReferenceInterpreter reference(config_with(5.0, 1));
  reference.set_model(model);
  EXPECT_THROW(reference.run(), std::logic_error);
}

}  // namespace
}  // namespace vcpusim::san
