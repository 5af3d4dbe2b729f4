#include "san/activity.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats/distribution.hpp"

namespace vcpusim::san {
namespace {

stats::Rng test_rng(std::uint64_t seed = 1) { return stats::Rng(seed); }

TEST(Activity, TimedRequiresDistribution) {
  EXPECT_THROW(Activity("a", nullptr), std::invalid_argument);
}

TEST(Activity, InstantaneousFlag) {
  auto inst = Activity::make_instantaneous("i");
  EXPECT_TRUE(inst.is_instantaneous());
  Activity timed("t", stats::make_deterministic(1.0));
  EXPECT_FALSE(timed.is_instantaneous());
}

TEST(Activity, EnabledWithoutGates) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_TRUE(a.enabled());
}

TEST(Activity, EnablingIsConjunctionOfGatePredicates) {
  Activity a("a", stats::make_deterministic(1.0));
  bool g1 = true, g2 = true;
  a.add_input_gate({"g1", [&g1]() { return g1; }, nullptr});
  a.add_input_gate({"g2", [&g2]() { return g2; }, nullptr});
  EXPECT_TRUE(a.enabled());
  g1 = false;
  EXPECT_FALSE(a.enabled());
  g1 = true;
  g2 = false;
  EXPECT_FALSE(a.enabled());
}

TEST(Activity, OutputGateWithoutFunctionRejected) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_THROW(a.add_output_gate({"bad", nullptr}), std::invalid_argument);
}

// --- One declaration per behaviour --------------------------------------

/// The message of the std::invalid_argument `add` throws ("" if none).
template <class Add>
std::string rejection(Add&& add) {
  try {
    add();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Activity, GateWithoutPredicateRejected) {
  Activity a("a", stats::make_deterministic(1.0));
  const std::string what =
      rejection([&] { a.add_input_gate({"bad", nullptr, nullptr}); });
  EXPECT_NE(what.find("has no predicate"), std::string::npos) << what;
}

TEST(Activity, GateWithPredicateAndTermsRejected) {
  Activity a("a", stats::make_deterministic(1.0));
  auto tokens = std::make_shared<TokenPlace>("T", 1);
  const std::string what = rejection([&] {
    a.add_input_gate({.name = "both",
                      .predicate = [tokens]() { return tokens->get() > 0; },
                      .pred_terms = {token_positive(tokens)}});
  });
  EXPECT_NE(what.find("both a predicate and pred_terms"), std::string::npos)
      << what;
  EXPECT_TRUE(a.input_gates().empty());
}

TEST(Activity, MalformedTermsRejected) {
  auto slot = std::make_shared<Place<double>>("Slot", 0.0);
  PredTerm token_on_struct;  // hand-built: the helpers take TokenPlaces
  token_on_struct.op = PredTerm::Op::kTokenPositive;
  token_on_struct.place = slot;
  PredTerm blind_probe;
  blind_probe.op = PredTerm::Op::kProbe;
  blind_probe.place = slot;
  const std::vector<std::pair<PredTerm, std::string>> cases = {
      {token_on_struct, "not a token place"},
      {blind_probe, "has no function"},
      {token_zero(nullptr), "null place"},
  };
  for (const auto& [term, expected] : cases) {
    Activity a("a", stats::make_deterministic(1.0));
    const std::string what =
        rejection([&] { a.add_input_gate(term_gate("bad", {term})); });
    EXPECT_NE(what.find(expected), std::string::npos)
        << "expected '" << expected << "', got '" << what << "'";
  }
}

TEST(Activity, FunctionPlusExactEffectRejected) {
  Activity a("a", stats::make_deterministic(1.0));
  auto tokens = std::make_shared<TokenPlace>("T", 0);
  const auto exact = with_exact_effect(access({}, {tokens}), {{tokens, "", 1}});
  const auto bump = [tokens](GateContext&) { tokens->mut() += 1; };
  std::string what = rejection([&] { a.add_output_gate({"out", bump, exact}); });
  EXPECT_NE(what.find("both a function and an exact effect"),
            std::string::npos)
      << what;
  what = rejection([&] {
    a.add_input_gate({.name = "in",
                      .input_function = bump,
                      .footprint = exact,
                      .pred_terms = {token_zero(tokens)}});
  });
  EXPECT_NE(what.find("both a function and an exact effect"),
            std::string::npos)
      << what;
  what = rejection([&] { a.add_case(Case{1.0, {{"case", bump, exact}}}); });
  EXPECT_NE(what.find("both a function and an exact effect"),
            std::string::npos)
      << what;
  // A function described by ordinary effect variants is fine.
  EXPECT_NO_THROW(a.add_output_gate(
      {"described", bump,
       with_effects(access({}, {tokens}), {{"bump", {{tokens, "", 1}}}})}));
}

TEST(Activity, UnlowerableExactEffectRejected) {
  auto tokens = std::make_shared<TokenPlace>("T", 0);
  auto other = std::make_shared<TokenPlace>("U", 0);
  auto level = std::make_shared<Place<double>>("Level", 0.0);
  GateAccess two_variants = with_exact_effect(access({}, {tokens}), {});
  two_variants.effects.push_back({"more", {}});
  const std::vector<std::pair<GateAccess, std::string>> cases = {
      {with_exact_effect(access({}, {tokens}), {{other, "", 1}}),
       "missing from the declared write set"},
      {with_exact_effect(access({}, {tokens}), {{tokens, "held", 1}}),
       "view component"},
      {with_exact_effect(access({}, {level}), {{level, "", 1}}),
       "not a token place"},
      {with_exact_effect(access({}, {}), {{nullptr, "", 1}}), "null place"},
      {two_variants, "exactly one variant"},
      {with_exact_effect(access_dynamic({}, {tokens}), {{tokens, "", 1}}),
       "dynamic write footprint"},
      {with_exact_effect(GateAccess{}, {}), "no declared footprint"},
  };
  for (const auto& [fp, expected] : cases) {
    Activity a("a", stats::make_deterministic(1.0));
    const std::string what =
        rejection([&] { a.add_output_gate({"g", nullptr, fp}); });
    EXPECT_NE(what.find(expected), std::string::npos)
        << "expected '" << expected << "', got '" << what << "'";
  }
}

TEST(Activity, TermGateGetsTermPlacesAsFootprint) {
  Activity a("a", stats::make_deterministic(1.0));
  auto x = std::make_shared<TokenPlace>("X", 1);
  auto y = std::make_shared<TokenPlace>("Y", 0);
  a.add_input_gate(term_gate(
      "g", {token_positive(x), token_zero(y), token_at_least(x, 1)}));
  const GateAccess& fp = a.input_gates().front().footprint;
  EXPECT_TRUE(fp.declared);
  ASSERT_EQ(fp.reads.size(), 2u) << "term places, deduplicated";
  EXPECT_EQ(fp.reads[0], x);
  EXPECT_EQ(fp.reads[1], y);
  EXPECT_TRUE(fp.writes.empty());
  // A declared footprint is kept as given.
  a.add_input_gate({.name = "h",
                    .footprint = access({x, y}),
                    .pred_terms = {token_positive(x)}});
  EXPECT_EQ(a.input_gates().back().footprint.reads.size(), 2u);
}

/// Counts reads reported through the place-access hook.
class CountingListener final : public PlaceAccessListener {
 public:
  void on_read(const PlaceBase&) override { ++reads; }
  void on_write(const PlaceBase&) override { ++writes; }
  int reads = 0;
  int writes = 0;
};

TEST(Activity, TermsAndExactEffectsRunThroughPlaceAccessors) {
  Activity a("a", stats::make_deterministic(1.0));
  auto x = std::make_shared<TokenPlace>("X", 2);
  auto y = std::make_shared<TokenPlace>("Y", 0);
  auto level = std::make_shared<Place<double>>("Level", 0.5);
  a.add_input_gate(term_gate(
      "g", {token_at_least(x, 2), token_equals(y, 0),
            marking_probe(level, [](const double& v) { return v < 1.0; })}));
  a.add_output_gate({"move", nullptr,
                     with_exact_effect(access({}, {x, y}),
                                       {{x, "", -2}, {y, "", +1}, {y, "", 0}})});
  CountingListener listener;
  PlaceAccessListener* prev = PlaceBase::exchange_listener(&listener);
  const bool enabled = a.enabled();
  auto rng = test_rng();
  GateContext ctx{rng, 0.0};
  a.fire(ctx);
  PlaceBase::exchange_listener(prev);
  EXPECT_TRUE(enabled);
  EXPECT_EQ(listener.reads, 3) << "one Place<T>::get per term";
  EXPECT_EQ(listener.writes, 2) << "one TokenPlace::mut per non-zero delta";
  EXPECT_EQ(x->get(), 0);
  EXPECT_EQ(y->get(), 1);
  EXPECT_FALSE(a.enabled());
}

TEST(Activity, FireRunsInputThenOutputFunctions) {
  Activity a("a", stats::make_deterministic(1.0));
  std::vector<std::string> order;
  a.add_input_gate({"in", []() { return true; },
                    [&order](GateContext&) { order.push_back("input"); }});
  a.add_output_gate(
      {"out", [&order](GateContext&) { order.push_back("output"); }});
  auto rng = test_rng();
  GateContext ctx{rng, 0.0};
  a.fire(ctx);
  EXPECT_EQ(order, (std::vector<std::string>{"input", "output"}));
}

TEST(Activity, DefaultSingleCase) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_EQ(a.case_count(), 1u);
  auto rng = test_rng();
  GateContext ctx{rng, 0.0};
  EXPECT_EQ(a.fire(ctx), 0u);
}

TEST(Activity, ExplicitCasesReplaceDefault) {
  Activity a("a", stats::make_deterministic(1.0));
  a.add_case(Case{1.0, {}});
  a.add_case(Case{1.0, {}});
  EXPECT_EQ(a.case_count(), 2u);
}

TEST(Activity, CaseSelectionFollowsWeights) {
  Activity a("a", stats::make_deterministic(1.0));
  int first = 0, second = 0;
  Case c1{3.0, {}};
  c1.output_gates.push_back({"c1", [&first](GateContext&) { ++first; }});
  Case c2{1.0, {}};
  c2.output_gates.push_back({"c2", [&second](GateContext&) { ++second; }});
  a.add_case(std::move(c1));
  a.add_case(std::move(c2));
  auto rng = test_rng(9);
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    GateContext ctx{rng, 0.0};
    a.fire(ctx);
  }
  EXPECT_NEAR(static_cast<double>(first) / kN, 0.75, 0.02);
  EXPECT_NEAR(static_cast<double>(second) / kN, 0.25, 0.02);
}

TEST(Activity, NonPositiveCaseWeightRejected) {
  Activity a("a", stats::make_deterministic(1.0));
  EXPECT_THROW(a.add_case(Case{0.0, {}}), std::invalid_argument);
  EXPECT_THROW(a.add_case(Case{-1.0, {}}), std::invalid_argument);
}

TEST(Activity, SampleDelayUsesDistribution) {
  Activity a("a", stats::make_deterministic(2.5));
  auto rng = test_rng();
  EXPECT_EQ(a.sample_delay(rng), 2.5);
}

TEST(Activity, SampleDelayOnInstantaneousThrows) {
  auto a = Activity::make_instantaneous("i");
  auto rng = test_rng();
  EXPECT_THROW(a.sample_delay(rng), std::logic_error);
}

TEST(Activity, PriorityIsStored) {
  Activity a("a", stats::make_deterministic(1.0), 7);
  EXPECT_EQ(a.priority(), 7);
  auto inst = Activity::make_instantaneous("i", -3);
  EXPECT_EQ(inst.priority(), -3);
}

}  // namespace
}  // namespace vcpusim::san
