// Static-analyzer tests: one deliberately broken fixture per check,
// asserting the exact diagnostic (check id, severity, location), plus
// the negative control — the shipped models under the paper's three
// algorithms analyze clean.
#include "san/analyze/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "san/model.hpp"
#include "sched/registry.hpp"
#include "stats/distribution.hpp"
#include "vm/config.hpp"
#include "vm/system_builder.hpp"

namespace vcpusim::san::analyze {
namespace {

const Diagnostic* find_check(const Report& report, const char* check_id) {
  for (const auto& d : report.diagnostics) {
    if (d.check == check_id) return &d;
  }
  return nullptr;
}

std::size_t count_check(const Report& report, const char* check_id) {
  std::size_t n = 0;
  for (const auto& d : report.diagnostics) {
    if (d.check == check_id) ++n;
  }
  return n;
}

// --- dead-activity ---------------------------------------------------

TEST(Analyzer, DeadActivityUnsatisfiablePredicate) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto tokens = s.add_place<std::int64_t>("Tokens", 0);
  auto& act = s.add_timed_activity("Never", stats::make_deterministic(1.0));
  // The marking can never reach 100 under the [0, 4] probe — and the
  // place is a genuine counter, so the predicate is simply wrong.
  act.add_input_gate(InputGate{"Gate",
                               [tokens]() { return tokens->get() > 100; },
                               nullptr,
                               access({tokens})});
  act.add_output_gate(OutputGate{
      "Out", [tokens](GateContext&) { tokens->mut() += 1; },
      access({}, {tokens})});

  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kDeadActivity);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->submodel, "S");
  EXPECT_EQ(d->activity, "S->Never");
  EXPECT_NE(d->message.find("unsatisfiable"), std::string::npos);
}

TEST(Analyzer, DeadActivityProbesTermGates) {
  // Term gates have no closure: the probe evaluates their terms through
  // Activity::enabled, with the term places as the derived reads.
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto tokens = s.add_place<std::int64_t>("Tokens", 0);
  auto& never = s.add_timed_activity("Never", stats::make_deterministic(1.0));
  never.add_input_gate(term_gate("Gate", {token_at_least(tokens, 100)}));
  never.add_output_gate(
      {"Out", nullptr,
       with_exact_effect(access({}, {tokens}), {{tokens, "", +1}})});
  auto& maybe = s.add_timed_activity("Maybe", stats::make_deterministic(1.0));
  maybe.add_input_gate(term_gate("Gate", {token_equals(tokens, 2)}));

  const auto report = Analyzer().analyze(model);
  ASSERT_EQ(count_check(report, check::kDeadActivity), 1u)
      << report.render_text();
  EXPECT_EQ(find_check(report, check::kDeadActivity)->activity, "S->Never");
}

TEST(Analyzer, DeadActivityProbeRestoresMarking) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto tokens = s.add_place<std::int64_t>("Tokens", 3);
  auto& act = s.add_timed_activity("Never", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Gate",
                               [tokens]() { return tokens->get() > 100; },
                               nullptr,
                               access({tokens})});

  (void)Analyzer().analyze(model);
  EXPECT_EQ(tokens->get(), 3) << "probe must restore the initial marking";
}

TEST(Analyzer, LiveActivityNotFlagged) {
  ComposedModel model("Fine");
  auto& s = model.add_submodel("S");
  auto tokens = s.add_place<std::int64_t>("Tokens", 0);
  auto& act = s.add_timed_activity("Maybe", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Gate",
                               [tokens]() { return tokens->get() >= 1; },
                               nullptr,
                               access({tokens})});
  act.add_output_gate(OutputGate{
      "Out", [tokens](GateContext&) { tokens->mut() -= 1; },
      access({}, {tokens})});

  const auto report = Analyzer().analyze(model);
  EXPECT_EQ(find_check(report, check::kDeadActivity), nullptr)
      << report.render_text();
}

// --- orphan-place ----------------------------------------------------

TEST(Analyzer, OrphanPlaceFlagged) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto used = s.add_place<std::int64_t>("Used", 1);
  (void)s.add_place<std::int64_t>("Forgotten", 0);
  auto& act = s.add_timed_activity("Work", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Gate",
                               [used]() { return used->get() > 0; }, nullptr,
                               access({used})});
  act.add_output_gate(OutputGate{
      "Out", [used](GateContext&) { used->mut() -= 1; },
      access({}, {used})});

  const auto report = Analyzer().analyze(model);
  ASSERT_TRUE(report.footprints_complete);
  const auto* d = find_check(report, check::kOrphanPlace);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->submodel, "S");
  EXPECT_EQ(d->place, "S->Forgotten");
}

TEST(Analyzer, OrphanCheckSkippedWhenFootprintsIncomplete) {
  ComposedModel model("Partial");
  auto& s = model.add_submodel("S");
  auto used = s.add_place<std::int64_t>("Used", 1);
  (void)s.add_place<std::int64_t>("Forgotten", 0);
  auto& act = s.add_timed_activity("Work", stats::make_deterministic(1.0));
  // No footprint on this gate: whole-model checks must not fire.
  act.add_input_gate(
      InputGate{"Gate", [used]() { return used->get() > 0; }, nullptr, {}});

  const auto report = Analyzer().analyze(model);
  EXPECT_FALSE(report.footprints_complete);
  EXPECT_EQ(find_check(report, check::kOrphanPlace), nullptr);
  const auto* note = find_check(report, check::kIncompleteFootprints);
  ASSERT_NE(note, nullptr);
  EXPECT_EQ(note->severity, Severity::kInfo);
}

// --- join relation ---------------------------------------------------

TEST(Analyzer, JoinCollisionDuplicateSharedName) {
  ComposedModel model("Broken");
  auto& s1 = model.add_submodel("S1");
  auto& s2 = model.add_submodel("S2");
  auto a = s1.add_place<std::int64_t>("A", 0);
  auto b = s2.add_place<std::int64_t>("B", 0);
  model.record_join("Shared", a, {"S1->A"});
  model.record_join("Shared", b, {"S2->B"});

  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kJoinCollision);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->place, "Shared");
  EXPECT_NE(d->message.find("2 times"), std::string::npos);
}

TEST(Analyzer, DuplicateJoinSamePlaceTwiceInOneSubmodel) {
  ComposedModel model("Broken");
  auto& s1 = model.add_submodel("S1");
  auto& s2 = model.add_submodel("S2");
  auto shared = s1.add_place<std::int64_t>("Counter", 0);
  s2.join_place("Counter", shared);
  s2.join_place("Counter_again", shared);  // the defect

  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kDuplicateJoin);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->submodel, "S2");
  EXPECT_NE(d->message.find("2 times"), std::string::npos);
}

TEST(Analyzer, BrokenJoinUnknownSubmodel) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto p = s.add_place<std::int64_t>("P", 0);
  model.record_join("P_shared", p, {"Nowhere->P"});

  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kBrokenJoin);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->place, "P_shared");
  EXPECT_NE(d->message.find("references no known submodel"),
            std::string::npos);
}

TEST(Analyzer, BrokenJoinSubmodelDoesNotHoldPlace) {
  ComposedModel model("Broken");
  auto& s1 = model.add_submodel("S1");
  (void)model.add_submodel("S2");
  auto p = s1.add_place<std::int64_t>("P", 0);
  model.record_join("P_shared", p, {"S2->P"});  // S2 never join_place()d it

  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kBrokenJoin);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_NE(d->message.find("does not hold the shared place"),
            std::string::npos);
}

TEST(Analyzer, JoinMemberResolvesDotQualifiedGroup) {
  // "VM_1->Schedule_In1" style members name a submodel *group*
  // ("VM_1.VCPU1", ...) — the resolution the shipped models rely on.
  ComposedModel model("Fine");
  auto& vcpu = model.add_submodel("VM_1.VCPU1");
  auto p = vcpu.add_place<std::int64_t>("Schedule_In", 0);
  model.record_join("Schedule_In1_1", p, {"VM_1->Schedule_In1"});

  const auto report = Analyzer().analyze(model);
  EXPECT_EQ(find_check(report, check::kBrokenJoin), nullptr)
      << report.render_text();
}

// --- unserialized-shared-write --------------------------------------

void build_race_model(ComposedModel& model, int priority_a, int priority_b,
                      bool declare_commutes) {
  auto& s1 = model.add_submodel("S1");
  auto& s2 = model.add_submodel("S2");
  auto shared = s1.add_place<std::int64_t>("Shared", 0);
  s2.join_place("Shared", shared);

  const auto add_writer = [&](SanModel& sub, int priority) {
    auto& act = sub.add_timed_activity("Bump", stats::make_deterministic(1.0),
                                       priority);
    const std::vector<PlacePtr> commutes =
        declare_commutes ? std::vector<PlacePtr>{shared}
                         : std::vector<PlacePtr>{};
    act.add_output_gate(OutputGate{
        "Out", [shared](GateContext&) { shared->mut() += 1; },
        access({}, {shared}, commutes)});
  };
  add_writer(s1, priority_a);
  add_writer(s2, priority_b);
}

TEST(Analyzer, SharedWriteRaceSamePriorityFlagged) {
  ComposedModel model("Race");
  build_race_model(model, 0, 0, false);
  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kSharedWriteRace);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->place, "S1->Shared");
  EXPECT_NE(d->message.find("no serializing activity"), std::string::npos);
}

TEST(Analyzer, SharedWriteDistinctPrioritiesNotFlagged) {
  ComposedModel model("Race");
  build_race_model(model, 0, 7, false);
  const auto report = Analyzer().analyze(model);
  EXPECT_EQ(find_check(report, check::kSharedWriteRace), nullptr)
      << report.render_text();
}

TEST(Analyzer, SharedWriteCommutingWritersNotFlagged) {
  ComposedModel model("Race");
  build_race_model(model, 0, 0, true);
  const auto report = Analyzer().analyze(model);
  EXPECT_EQ(find_check(report, check::kSharedWriteRace), nullptr)
      << report.render_text();
}

// --- instantaneous-cycle ---------------------------------------------

TEST(Analyzer, UngatedInstantaneousActivityIsError) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto p = s.add_place<std::int64_t>("P", 0);
  auto& act = s.add_instantaneous_activity("Spin");
  act.add_output_gate(OutputGate{
      "Out", [p](GateContext&) { p->mut() += 1; }, access({}, {p})});

  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kInstantaneousCycle);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->activity, "S->Spin");
  EXPECT_NE(d->message.find("no input gate"), std::string::npos);
  EXPECT_GE(report.errors(), 1u);
}

TEST(Analyzer, InstantaneousCycleWarned) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto pa = s.add_place<std::int64_t>("PA", 1);
  auto pb = s.add_place<std::int64_t>("PB", 0);

  auto& a = s.add_instantaneous_activity("A");
  a.add_input_gate(InputGate{"GA", [pa]() { return pa->get() > 0; }, nullptr,
                             access({pa})});
  a.add_output_gate(OutputGate{
      "OA",
      [pa, pb](GateContext&) {
        pa->mut() -= 1;
        pb->mut() += 1;
      },
      access({}, {pa, pb})});

  auto& b = s.add_instantaneous_activity("B");
  b.add_input_gate(InputGate{"GB", [pb]() { return pb->get() > 0; }, nullptr,
                             access({pb})});
  b.add_output_gate(OutputGate{
      "OB",
      [pa, pb](GateContext&) {
        pb->mut() -= 1;
        pa->mut() += 1;
      },
      access({}, {pa, pb})});

  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kInstantaneousCycle);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_NE(d->message.find("S->A"), std::string::npos);
  EXPECT_NE(d->message.find("S->B"), std::string::npos);
}

// --- case-probability ------------------------------------------------

TEST(Analyzer, CaseWeightsNotSummingToOneWarned) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto p = s.add_place<std::int64_t>("P", 1);
  auto& act = s.add_timed_activity("Choice", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Gate", [p]() { return p->get() > 0; },
                               nullptr, access({p})});
  Case heads;
  heads.weight = 0.5;
  heads.output_gates.push_back(OutputGate{
      "H", [p](GateContext&) { p->mut() += 1; }, access({}, {p})});
  Case tails;
  tails.weight = 0.3;  // 0.5 + 0.3 != 1
  tails.output_gates.push_back(OutputGate{
      "T", [p](GateContext&) { p->mut() -= 1; }, access({}, {p})});
  act.add_case(std::move(heads));
  act.add_case(std::move(tails));

  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kCaseProbability);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_EQ(d->activity, "S->Choice");
  EXPECT_NE(d->message.find("0.8"), std::string::npos);
}

// --- duplicate-name --------------------------------------------------

TEST(Analyzer, DuplicateSubmodelNameIsError) {
  ComposedModel model("Broken");
  (void)model.add_submodel("Twin");
  (void)model.add_submodel("Twin");

  const auto report = Analyzer().analyze(model);
  const auto* d = find_check(report, check::kDuplicateName);
  ASSERT_NE(d, nullptr) << report.render_text();
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->submodel, "Twin");
}

// --- report / options behaviour --------------------------------------

TEST(Analyzer, ErrorsSortBeforeWarnings) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto p = s.add_place<std::int64_t>("P", 0);
  // A warning source (orphan) plus an error source (ungated zero-time).
  auto& act = s.add_instantaneous_activity("Spin");
  act.add_output_gate(OutputGate{
      "Out", [](GateContext&) {}, access({})});
  (void)p;

  const auto report = Analyzer().analyze(model);
  ASSERT_GE(report.diagnostics.size(), 2u) << report.render_text();
  EXPECT_EQ(report.diagnostics.front().severity, Severity::kError);
}

TEST(Analyzer, ProveReportsClosureGatesOnTheTrampoline) {
  // Declared gates (terms, exact effects) lower; every closure is
  // reported, with how far its footprint got towards a declaration.
  ComposedModel model("Mixed");
  auto& s = model.add_submodel("S");
  auto tokens = s.add_place<std::int64_t>("Tokens", 1);
  auto& declared = s.add_timed_activity("Declared", stats::make_deterministic(1.0));
  declared.add_input_gate(term_gate("Terms", {token_positive(tokens)}));
  declared.add_output_gate(
      {"Exact", nullptr,
       with_exact_effect(access({}, {tokens}), {{tokens, "", -1}})});
  auto& closures = s.add_timed_activity("Closures", stats::make_deterministic(1.0));
  closures.add_input_gate(
      InputGate{"Pred", [tokens]() { return tokens->get() == 0; },
                [tokens](GateContext&) { tokens->mut() += 1; }, {}});
  closures.add_output_gate(
      OutputGate{"Described", [](GateContext&) {},
                 with_effects(access({}, {tokens}), {{"none", {}}})});
  closures.add_output_gate(OutputGate{
      "Undescribed", [](GateContext&) {}, access({}, {tokens})});

  AnalyzerOptions options;
  options.prove = true;
  const auto report = Analyzer(options).analyze(model);
  std::vector<std::string> messages;
  for (const auto& d : report.diagnostics) {
    if (d.check != std::string(check::kTrampolineFallback)) continue;
    EXPECT_EQ(d.activity, "S->Closures") << d.message;
    messages.push_back(d.message);
  }
  ASSERT_EQ(messages.size(), 4u) << report.render_text();
  const auto has = [&messages](const std::string& text) {
    return std::any_of(messages.begin(), messages.end(),
                       [&text](const std::string& m) {
                         return m.find(text) != std::string::npos;
                       });
  };
  EXPECT_TRUE(has("input gate 'Pred' predicate evaluates through the "
                  "closure trampoline"));
  EXPECT_TRUE(has("input gate 'Pred' function fires through the closure "
                  "trampoline: no declared footprint"));
  EXPECT_TRUE(has("output gate 'Described' function fires through the "
                  "closure trampoline: effects not declared exact"));
  EXPECT_TRUE(has("output gate 'Undescribed' function fires through the "
                  "closure trampoline: no declared effects"));
}

TEST(Analyzer, SuppressDropsCheck) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto p = s.add_place<std::int64_t>("P", 0);
  model.record_join("P_shared", p, {"Nowhere->P"});

  AnalyzerOptions options;
  options.suppress = {check::kBrokenJoin};
  const auto report = Analyzer(options).analyze(model);
  EXPECT_EQ(find_check(report, check::kBrokenJoin), nullptr);
}

TEST(Analyzer, CheckOrThrowRaisesOnErrors) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  (void)s.add_instantaneous_activity("Spin");  // ungated: error

  try {
    (void)Analyzer().check_or_throw(model);
    FAIL() << "expected ModelAnalysisError";
  } catch (const ModelAnalysisError& e) {
    EXPECT_GE(e.report().errors(), 1u);
    EXPECT_NE(std::string(e.what()).find("failed static analysis"),
              std::string::npos);
  }
}

TEST(Analyzer, CheckOrThrowPassesWarnings) {
  ComposedModel model("Warned");
  auto& s = model.add_submodel("S");
  auto tokens = s.add_place<std::int64_t>("Tokens", 0);
  auto& act = s.add_timed_activity("Never", stats::make_deterministic(1.0));
  act.add_input_gate(InputGate{"Gate",
                               [tokens]() { return tokens->get() > 100; },
                               nullptr,
                               access({tokens})});
  act.add_output_gate(OutputGate{
      "Out", [tokens](GateContext&) { tokens->mut() += 1; },
      access({}, {tokens})});

  const auto report = Analyzer().check_or_throw(model);  // must not throw
  EXPECT_GE(report.warnings(), 1u);
}

TEST(Analyzer, ReportJsonIsWellFormedEnough) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto p = s.add_place<std::int64_t>("P", 0);
  model.record_join("P_shared", p, {"Nowhere->P"});

  const auto report = Analyzer().analyze(model);
  const auto json = report.render_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"check\":\"broken-join\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\":"), std::string::npos);
}

// --- negative control: the shipped models are clean -------------------

TEST(Analyzer, ShippedModelsAnalyzeCleanUnderPaperAlgorithms) {
  for (const std::string algorithm : {"rrs", "scs", "rcs"}) {
    const auto factory = sched::make_factory(algorithm);
    const auto config = vm::make_symmetric_config(4, {2, 2}, 5);
    const auto system = vm::build_system(config, factory());
    const auto report = Analyzer().analyze(*system->model);
    EXPECT_TRUE(report.footprints_complete)
        << algorithm << ": every shipped gate must declare its footprint";
    EXPECT_TRUE(report.clean())
        << algorithm << ":\n" << report.render_text();
  }
}

TEST(Analyzer, CountAndSeverityAccessors) {
  ComposedModel model("Broken");
  auto& s = model.add_submodel("S");
  auto p = s.add_place<std::int64_t>("P", 0);
  model.record_join("P_shared", p, {"Nowhere->P"});

  const auto report = Analyzer().analyze(model);
  EXPECT_EQ(count_check(report, check::kBrokenJoin), 1u);
  EXPECT_EQ(report.errors(), 1u);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(report.render_text().find("1 error(s)"), std::string::npos);
}

}  // namespace
}  // namespace vcpusim::san::analyze
