#include "san/activity.hpp"

#include <algorithm>
#include <stdexcept>

#include "san/sanitizer.hpp"

namespace vcpusim::san {

Activity::Activity(std::string name, stats::DistributionPtr delay,
                   int priority)
    : name_(std::move(name)), delay_(std::move(delay)), priority_(priority) {
  if (!delay_) {
    throw std::invalid_argument("Activity '" + name_ +
                                "': null delay distribution (use "
                                "make_instantaneous for zero-time activities)");
  }
  cases_.emplace_back();
  total_weight_ = 1.0;
}

Activity::Activity(std::string name, int priority)
    : name_(std::move(name)), delay_(nullptr), priority_(priority) {
  cases_.emplace_back();
  total_weight_ = 1.0;
}

Activity Activity::make_instantaneous(std::string name, int priority) {
  return Activity(std::move(name), priority);
}

namespace {

/// Why `fp` cannot stand as the whole behaviour of a function-less gate
/// (a single exact variant of token deltas, each on a whole TokenPlace
/// the footprint declares as written); empty when it can.
std::string exact_effect_error(const GateAccess& fp) {
  if (!fp.declared) return "no declared footprint";
  if (!fp.effects_declared) return "no declared effects";
  if (fp.compositional_effects) return "compositional effects";
  if (!fp.opaque_effects.empty()) return "opaque effect places";
  if (fp.dynamic_writes) return "dynamic write footprint";
  if (fp.effects.size() != 1) {
    return "exact effect must declare exactly one variant";
  }
  for (const TokenDelta& d : fp.effects.front().deltas) {
    if (!d.place) return "effect delta names a null place";
    if (!d.component.empty()) {
      return "effect delta targets a view component, not a whole token place";
    }
    if (dynamic_cast<TokenPlace*>(d.place.get()) == nullptr) {
      return "effect delta on place '" + d.place->name() +
             "', which is not a token place";
    }
    const auto written = [&d](const PlacePtr& w) {
      return w.get() == d.place.get();
    };
    if (std::none_of(fp.writes.begin(), fp.writes.end(), written)) {
      return "effect delta place '" + d.place->name() +
             "' missing from the declared write set";
    }
  }
  return {};
}

/// A gate's behaviour is its function or, without one, its exact effect:
/// reject a gate declaring both, and a function-less gate whose declared
/// effect cannot run as token deltas.
void check_behaviour(const std::string& where, bool has_function,
                     const GateAccess& fp) {
  if (!fp.effects_declared) return;
  if (has_function) {
    // Other effect declarations describe what the function does.
    if (fp.effects.size() == 1 && fp.effects.front().label == kExactVariant) {
      throw std::invalid_argument(
          where + " has both a function and an exact effect");
    }
    return;
  }
  const std::string error = exact_effect_error(fp);
  if (!error.empty()) {
    throw std::invalid_argument(where + ": exact effect rejected: " + error);
  }
}

void check_output_gate(const std::string& activity, const OutputGate& gate) {
  const std::string where =
      "Activity '" + activity + "': output gate '" + gate.name + "'";
  if (!gate.function && !gate.footprint.effects_declared) {
    throw std::invalid_argument(where + " has no function");
  }
  check_behaviour(where, static_cast<bool>(gate.function), gate.footprint);
}

}  // namespace

void Activity::add_input_gate(InputGate gate) {
  const std::string where =
      "Activity '" + name_ + "': input gate '" + gate.name + "'";
  if (gate.predicate && !gate.pred_terms.empty()) {
    throw std::invalid_argument(where +
                                " has both a predicate and pred_terms");
  }
  if (!gate.predicate && gate.pred_terms.empty()) {
    throw std::invalid_argument(where + " has no predicate");
  }
  for (const PredTerm& t : gate.pred_terms) {
    if (!t.place) throw std::invalid_argument(where + ": term on a null place");
    if (t.op == PredTerm::Op::kProbe) {
      if (t.probe == nullptr || t.probe_get == nullptr) {
        throw std::invalid_argument(where + ": probe term on '" +
                                    t.place->name() + "' has no function");
      }
    } else if (dynamic_cast<TokenPlace*>(t.place.get()) == nullptr) {
      throw std::invalid_argument(where + ": token term on '" +
                                  t.place->name() +
                                  "', which is not a token place");
    }
  }
  check_behaviour(where, static_cast<bool>(gate.input_function),
                  gate.footprint);
  if (!gate.pred_terms.empty() && !gate.footprint.declared) {
    std::vector<PlacePtr> reads;
    for (const PredTerm& t : gate.pred_terms) {
      if (std::find(reads.begin(), reads.end(), t.place) == reads.end()) {
        reads.push_back(t.place);
      }
    }
    gate.footprint = access(std::move(reads));
  }
  input_gates_.push_back(std::move(gate));
}

void Activity::add_output_gate(OutputGate gate) {
  check_output_gate(name_, gate);
  cases_.back().output_gates.push_back(std::move(gate));
}

void Activity::add_case(Case c) {
  if (!(c.weight > 0)) {
    throw std::invalid_argument("Activity '" + name_ +
                                "': case weight must be > 0");
  }
  for (const OutputGate& gate : c.output_gates) check_output_gate(name_, gate);
  // The implicit default case is replaced by the first explicit case.
  if (cases_.size() == 1 && cases_.front().output_gates.empty() &&
      total_weight_ == 1.0 && !explicit_cases_) {
    cases_.clear();
    total_weight_ = 0.0;
  }
  explicit_cases_ = true;
  total_weight_ += c.weight;
  cases_.push_back(std::move(c));
}

std::size_t Activity::case_count() const noexcept { return cases_.size(); }

namespace {

/// One term read through Place<T>::get, so an installed access listener
/// sees it (add_input_gate checked the place types).
bool term_holds(const PredTerm& t) {
  if (t.op == PredTerm::Op::kProbe) return t.probe_get(*t.place);
  const std::int64_t tokens = static_cast<const TokenPlace&>(*t.place).get();
  switch (t.op) {
    case PredTerm::Op::kTokenZero: return tokens == 0;
    case PredTerm::Op::kTokenPositive: return tokens > 0;
    case PredTerm::Op::kTokenEquals: return tokens == t.imm;
    case PredTerm::Op::kTokenAtLeast: return tokens >= t.imm;
    case PredTerm::Op::kProbe: break;
  }
  return false;
}

/// Run one gate's behaviour: its function, or else its exact effect
/// (zero deltas skipped, as the compiled kernel skips them).
void run_gate(const std::string& name,
              const std::function<void(GateContext&)>& function,
              const GateAccess& fp, GateContext& ctx) {
  if (!function && !fp.effects_declared) return;  // pure-predicate gate
  if (ctx.sanitizer != nullptr) ctx.sanitizer->enter_gate(name, fp);
  if (function) {
    function(ctx);
    return;
  }
  for (const TokenDelta& d : fp.effects.front().deltas) {
    if (d.delta != 0) static_cast<TokenPlace&>(*d.place).mut() += d.delta;
  }
}

}  // namespace

bool Activity::enabled() const {
  for (const auto& gate : input_gates_) {
    if (gate.predicate) {
      if (!gate.predicate()) return false;
      continue;
    }
    for (const PredTerm& t : gate.pred_terms) {
      if (!term_holds(t)) return false;
    }
  }
  return true;
}

std::size_t Activity::fire(GateContext& ctx) {
  for (const auto& gate : input_gates_) {
    run_gate(gate.name, gate.input_function, gate.footprint, ctx);
  }
  std::size_t chosen = 0;
  if (cases_.size() > 1) {
    const double u = ctx.rng.uniform01() * total_weight_;
    double acc = 0.0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      acc += cases_[i].weight;
      if (u < acc) {
        chosen = i;
        break;
      }
      chosen = i;  // guard against fp round-off at u ~ total_weight_
    }
  }
  for (const auto& gate : cases_[chosen].output_gates) {
    run_gate(gate.name, gate.function, gate.footprint, ctx);
  }
  return chosen;
}

Time Activity::sample_delay(stats::Rng& rng) const {
  if (!delay_) {
    throw std::logic_error("Activity '" + name_ +
                           "': sample_delay on instantaneous activity");
  }
  return delay_->sample(rng);
}

}  // namespace vcpusim::san
