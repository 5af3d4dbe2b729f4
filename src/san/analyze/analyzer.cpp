#include "san/analyze/analyzer.hpp"

#include "san/analyze/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace vcpusim::san::analyze {

namespace {

std::string throw_message(const Report& report) {
  std::ostringstream os;
  os << "model '" << report.model << "' failed static analysis: "
     << report.errors() << " error(s)";
  for (const auto& d : report.diagnostics) {
    if (d.severity == Severity::kError) {
      os << "; first: " << d.to_text();
      break;
    }
  }
  return os.str();
}

/// Everything the checks need to know about one activity, gathered in a
/// single walk over the model.
struct ActivityFacts {
  const SanModel* submodel = nullptr;
  const Activity* activity = nullptr;
  /// Every gate of the activity declared its footprint.
  bool declared = true;
  /// Input-gate reads only: the places the enabling predicate inspects.
  std::set<PlaceBase*> enable_reads;
  std::set<PlaceBase*> reads;  ///< all gates (input and output)
  std::set<PlaceBase*> writes;
  std::set<PlaceBase*> commutes;
};

struct PlaceFacts {
  PlacePtr place;
  std::vector<const SanModel*> holders;
  bool read = false;
  bool written = false;
};

/// Deduplicated "this activity writes this place" record.
struct Writer {
  const ActivityFacts* facts = nullptr;
  bool commutes = true;  // ANDed over the activity's gates writing the place
};

/// Emits diagnostics honoring the suppression list / info filter.
class Sink {
 public:
  Sink(const AnalyzerOptions& options, Report& report)
      : options_(options), report_(report) {}

  void emit(Severity severity, const char* check_id, std::string submodel,
            std::string place, std::string activity, std::string message,
            std::string explanation) {
    if (severity == Severity::kInfo && !options_.include_info) return;
    if (std::find(options_.suppress.begin(), options_.suppress.end(),
                  check_id) != options_.suppress.end()) {
      return;
    }
    report_.diagnostics.push_back(Diagnostic{
        severity, check_id, report_.model, std::move(submodel),
        std::move(place), std::move(activity), std::move(message),
        std::move(explanation)});
  }

 private:
  const AnalyzerOptions& options_;
  Report& report_;
};

void collect_gate(const GateAccess& footprint, ActivityFacts& facts,
                  Report& report, bool enabling) {
  ++report.gates_total;
  if (!footprint.declared) {
    facts.declared = false;
    return;
  }
  ++report.gates_declared;
  for (const auto& p : footprint.reads) {
    facts.reads.insert(p.get());
    if (enabling) facts.enable_reads.insert(p.get());
  }
  for (const auto& p : footprint.writes) facts.writes.insert(p.get());
  for (const auto& p : footprint.commutes) facts.commutes.insert(p.get());
}

// --- Check implementations ------------------------------------------

void check_names(const ComposedModel& model, Sink& sink) {
  std::unordered_map<std::string, int> submodel_names;
  for (const auto& m : model.submodels()) submodel_names[m->name()]++;
  for (const auto& [name, count] : submodel_names) {
    if (count > 1) {
      sink.emit(Severity::kError, check::kDuplicateName, name, "", "",
                "submodel name used " + std::to_string(count) + " times",
                "Submodel names must be unique: diagnostics, the join "
                "registry and find_submodel all key on them.");
    }
  }
  for (const auto& m : model.submodels()) {
    std::unordered_map<std::string, int> local_names;
    for (const auto& n : m->local_place_names()) local_names[n]++;
    for (const auto& [name, count] : local_names) {
      if (count > 1) {
        sink.emit(Severity::kError, check::kDuplicateName, m->name(), name, "",
                  "local place name bound " + std::to_string(count) +
                      " times in this submodel",
                  "find_place resolves local names to the first match; a "
                  "duplicate silently shadows the later binding.");
      }
    }
    std::unordered_map<std::string, int> activity_names;
    for (const auto& a : m->activities()) activity_names[a->name()]++;
    for (const auto& [name, count] : activity_names) {
      if (count > 1) {
        sink.emit(Severity::kWarning, check::kDuplicateName, m->name(), "",
                  name,
                  "activity name used " + std::to_string(count) + " times",
                  "Duplicate activity names make traces and reward "
                  "attachments ambiguous.");
      }
    }
  }
}

void check_duplicate_joins(const ComposedModel& model, Sink& sink) {
  for (const auto& m : model.submodels()) {
    std::unordered_map<const PlaceBase*, std::vector<std::string>> bindings;
    const auto& places = m->places();
    const auto& names = m->local_place_names();
    for (std::size_t i = 0; i < places.size(); ++i) {
      bindings[places[i].get()].push_back(names[i]);
    }
    for (const auto& [place, locals] : bindings) {
      if (locals.size() > 1) {
        std::string all = locals[0];
        for (std::size_t i = 1; i < locals.size(); ++i) all += ", " + locals[i];
        sink.emit(Severity::kError, check::kDuplicateJoin, m->name(),
                  place->name(), "",
                  "place joined into this submodel " +
                      std::to_string(locals.size()) + " times (as: " + all +
                      ")",
                  "One state variable under several local names in the same "
                  "submodel is almost always a mis-wired Join; gates reading "
                  "the two names silently alias.");
      }
    }
  }
}

void check_join_registry(
    const ComposedModel& model,
    const std::unordered_map<const PlaceBase*, PlaceFacts>& places,
    Sink& sink) {
  std::unordered_map<std::string, int> shared_names;
  for (const auto& entry : model.join_registry()) {
    shared_names[entry.shared_name]++;
  }
  for (const auto& [name, count] : shared_names) {
    if (count > 1) {
      sink.emit(Severity::kError, check::kJoinCollision, "", name, "",
                "shared name recorded " + std::to_string(count) +
                    " times in the join registry",
                "Two join rows with one shared name: either the same state "
                "variable was joined twice or two distinct variables collide "
                "under one name (paper Tables 1/2 would be ambiguous).");
    }
  }
  // Every name a member may resolve through: each submodel's own name
  // and each of its dot-qualified group prefixes ("VM_1" of
  // "VM_1.VCPU1").
  std::unordered_set<std::string_view> known_names;
  for (const auto& sub : model.submodels()) {
    const std::string_view name = sub->name();
    known_names.insert(name);
    for (std::size_t dot = name.find('.'); dot != std::string_view::npos;
         dot = name.find('.', dot + 1)) {
      known_names.insert(name.substr(0, dot));
    }
  }
  const auto covers = [](std::string_view name, const SanModel& sub) {
    const std::string_view sub_name = sub.name();
    return sub_name.starts_with(name) &&
           (sub_name.size() == name.size() || sub_name[name.size()] == '.');
  };
  for (const auto& entry : model.join_registry()) {
    if (!entry.place) {
      sink.emit(Severity::kError, check::kJoinCollision, "", entry.shared_name,
                "", "join entry holds a null place",
                "record_join was handed a null PlacePtr.");
      continue;
    }
    const auto held = places.find(entry.place.get());
    // A member "Sub->Local" (local part cosmetic, paper table format) is
    // resolved when some "->" split yields an existing submodel — or a
    // dot-qualified submodel group such as "VM_1" covering
    // "VM_1.VCPU1" — that actually holds the shared place.
    for (const auto& member : entry.member_names) {
      bool submodel_found = false;
      bool holds_place = false;
      for (std::size_t pos = member.find("->");
           pos != std::string::npos && !holds_place;
           pos = member.find("->", pos + 1)) {
        const std::string_view name = std::string_view(member).substr(0, pos);
        if (known_names.count(name) == 0) continue;
        submodel_found = true;
        if (held == places.end()) continue;
        for (const SanModel* holder : held->second.holders) {
          if (covers(name, *holder)) {
            holds_place = true;
            break;
          }
        }
      }
      if (!submodel_found) {
        sink.emit(Severity::kError, check::kBrokenJoin, "", entry.shared_name,
                  "", "member '" + member + "' references no known submodel",
                  "The join registry documents the composition; a member "
                  "naming a nonexistent submodel means the recorded relation "
                  "and the actual wiring diverged.");
      } else if (!holds_place) {
        sink.emit(Severity::kError, check::kBrokenJoin, "", entry.shared_name,
                  "",
                  "member '" + member +
                      "' names a submodel that does not hold the shared place",
                  "The submodel exists but was never join_place()d with this "
                  "state variable: the registry claims sharing that is not "
                  "wired.");
      }
    }
  }
}

void check_case_probabilities(
    const std::vector<ActivityFacts>& activities, Sink& sink) {
  constexpr double kTolerance = 1e-9;
  for (const auto& facts : activities) {
    const Activity& a = *facts.activity;
    if (!a.has_explicit_cases()) continue;
    const double total = a.total_case_weight();
    if (std::abs(total - 1.0) > kTolerance) {
      std::ostringstream os;
      os << "explicit case weights sum to " << total << ", not 1";
      sink.emit(Severity::kWarning, check::kCaseProbability,
                facts.submodel->name(), "", a.name(), os.str(),
                "Weights are renormalized at runtime, so the activity still "
                "fires — but a sum away from 1 usually means a case is "
                "missing or a probability was mistyped.");
    }
  }
}

void check_orphan_places(
    const std::unordered_map<const PlaceBase*, PlaceFacts>& places,
    bool footprints_complete, Sink& sink) {
  if (!footprints_complete) return;
  for (const auto& [raw, facts] : places) {
    if (facts.read || facts.written) continue;
    sink.emit(Severity::kWarning, check::kOrphanPlace,
              facts.holders.empty() ? "" : facts.holders.front()->name(),
              raw->name(), "",
              "place is never read by any gate and never written by any "
              "gate function",
              "Dead state: no activity can observe or change this place, so "
              "it either documents a wiring mistake or should be removed.");
  }
}

void check_shared_write_races(
    const std::unordered_map<const PlaceBase*, PlaceFacts>& places,
    const std::vector<ActivityFacts>& activities, Sink& sink) {
  // place -> deduplicated writers (declared footprints only).
  std::unordered_map<const PlaceBase*, std::map<const Activity*, Writer>>
      writers;
  for (const auto& facts : activities) {
    if (!facts.declared) continue;
    for (const PlaceBase* p : facts.writes) {
      auto& w = writers[p][facts.activity];
      if (w.facts == nullptr) {
        w.facts = &facts;
        w.commutes = facts.commutes.count(const_cast<PlaceBase*>(p)) > 0;
      }
    }
  }
  for (const auto& [raw, by_activity] : writers) {
    const auto it = places.find(raw);
    if (it == places.end()) continue;
    // Find a cross-submodel pair of writers with identical completion
    // ordering rank (same priority, same timing class) where at least one
    // write is not declared order-independent.
    const Writer* offender_a = nullptr;
    const Writer* offender_b = nullptr;
    for (auto i = by_activity.begin(); i != by_activity.end() && !offender_a;
         ++i) {
      for (auto j = std::next(i); j != by_activity.end(); ++j) {
        const Writer& a = i->second;
        const Writer& b = j->second;
        if (a.facts->submodel == b.facts->submodel) continue;
        if (a.facts->activity->priority() != b.facts->activity->priority()) {
          continue;
        }
        if (a.facts->activity->is_instantaneous() !=
            b.facts->activity->is_instantaneous()) {
          continue;
        }
        if (a.commutes && b.commutes) continue;
        offender_a = &a;
        offender_b = &b;
        break;
      }
    }
    if (offender_a != nullptr) {
      sink.emit(
          Severity::kWarning, check::kSharedWriteRace,
          offender_a->facts->submodel->name(), raw->name(),
          offender_a->facts->activity->name(),
          "written by same-priority activities of two submodels ('" +
              offender_a->facts->activity->name() + "' and '" +
              offender_b->facts->activity->name() +
              "') with no serializing activity",
          "When both complete at the same instant nothing in the model "
          "orders their updates — the SAN analogue of a data race. Give the "
          "activities distinct priorities, or declare the writes "
          "order-independent via GateAccess::commutes.");
    }
  }
}

void check_instantaneous_cycles(const std::vector<ActivityFacts>& activities,
                                Sink& sink) {
  std::vector<const ActivityFacts*> nodes;
  for (const auto& facts : activities) {
    if (!facts.activity->is_instantaneous()) continue;
    if (facts.activity->input_gates().empty()) {
      sink.emit(Severity::kError, check::kInstantaneousCycle,
                facts.submodel->name(), "", facts.activity->name(),
                "instantaneous activity has no input gate: it is "
                "permanently enabled and re-fires forever at time zero",
                "An ungated zero-time activity never lets simulated time "
                "advance. Gate it on a marking it consumes.");
      continue;
    }
    if (facts.declared) nodes.push_back(&facts);
  }
  const std::size_t n = nodes.size();
  // Edge i -> j: i writes a place j's enabling predicate inspects.
  // Output-gate reads deliberately don't count — they can't re-enable j.
  // Built from a place -> enabling-reader index; each adjacency list is
  // ascending and duplicate-free, so the DFS visits successors in node
  // order.
  std::unordered_map<const PlaceBase*, std::vector<std::size_t>> readers;
  for (std::size_t j = 0; j < n; ++j) {
    for (const PlaceBase* r : nodes[j]->enable_reads) readers[r].push_back(j);
  }
  std::vector<std::vector<std::size_t>> adj(n);
  std::vector<std::size_t> seen_from(n, n);  // last i that added j to adj[i]
  for (std::size_t i = 0; i < n; ++i) {
    for (const PlaceBase* w : nodes[i]->writes) {
      const auto it = readers.find(w);
      if (it == readers.end()) continue;
      for (const std::size_t j : it->second) {
        if (j == i || seen_from[j] == i) continue;
        seen_from[j] = i;
        adj[i].push_back(j);
      }
    }
    std::sort(adj[i].begin(), adj[i].end());
  }
  // DFS cycle detection; report the first cycle through each root node.
  std::vector<int> color(n, 0);  // 0 white, 1 on stack, 2 done
  std::vector<std::size_t> path;
  std::size_t reported = 0;
  constexpr std::size_t kMaxCycles = 8;

  const std::function<void(std::size_t)> dfs = [&](std::size_t u) {
    color[u] = 1;
    path.push_back(u);
    for (const std::size_t v : adj[u]) {
      if (reported >= kMaxCycles) break;
      if (color[v] == 1) {
        // Cycle: slice of `path` from v to u.
        auto start = std::find(path.begin(), path.end(), v);
        std::string cycle;
        for (auto it = start; it != path.end(); ++it) {
          cycle += nodes[*it]->activity->name() + " -> ";
        }
        cycle += nodes[v]->activity->name();
        ++reported;
        sink.emit(Severity::kWarning, check::kInstantaneousCycle,
                  nodes[v]->submodel->name(), "",
                  nodes[v]->activity->name(),
                  "zero-time cycle among instantaneous activities: " + cycle,
                  "Each activity writes a place enabling the next; if the "
                  "markings line up the chain re-enables itself without "
                  "time advancing (zero-time livelock). Break the cycle or "
                  "consume the enabling marking.");
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    path.pop_back();
    color[u] = 2;
  };
  for (std::size_t i = 0; i < n && reported < kMaxCycles; ++i) {
    if (color[i] == 0) dfs(i);
  }
}

/// Restores every probed TokenPlace on scope exit.
class MarkingGuard {
 public:
  void remember(TokenPlace* place) {
    saved_.emplace_back(place, place->get());
  }
  ~MarkingGuard() {
    for (auto it = saved_.rbegin(); it != saved_.rend(); ++it) {
      it->first->set(it->second);
    }
  }

 private:
  std::vector<std::pair<TokenPlace*, std::int64_t>> saved_;
};

void check_dead_activities(const std::vector<ActivityFacts>& activities,
                           const AnalyzerOptions& options, Sink& sink) {
  for (const auto& facts : activities) {
    const Activity& a = *facts.activity;
    if (a.input_gates().empty() || !facts.declared) continue;

    // The probe varies exactly the places the enabling predicate
    // inspects; each must be a classic token place.
    std::vector<TokenPlace*> tokens;
    tokens.reserve(facts.enable_reads.size());
    bool probeable = true;
    for (PlaceBase* p : facts.enable_reads) {
      auto* token = dynamic_cast<TokenPlace*>(p);
      if (token == nullptr) {
        probeable = false;
        break;
      }
      tokens.push_back(token);
    }
    if (!probeable) continue;

    // Candidate markings per place: {0..ceiling} ∪ {initial}. The place
    // currently holds its initial marking (analysis runs pre-simulation),
    // so the current value stands in for "initial".
    std::vector<std::vector<std::int64_t>> domains;
    std::size_t combinations = 1;
    for (TokenPlace* token : tokens) {
      std::vector<std::int64_t> values;
      for (std::int64_t v = 0; v <= options.token_probe_ceiling; ++v) {
        values.push_back(v);
      }
      if (std::find(values.begin(), values.end(), token->get()) ==
          values.end()) {
        values.push_back(token->get());
      }
      combinations *= values.size();
      domains.push_back(std::move(values));
      if (combinations > options.max_probe_combinations) break;
    }
    if (combinations > options.max_probe_combinations) {
      // Skipped, never misreported — but say so: a silent skip reads as
      // "analyzed and clean" when the activity was not analyzed at all.
      sink.emit(Severity::kInfo, check::kProbeBudget, facts.submodel->name(),
                "", a.name(),
                "joint read domain of " + std::to_string(tokens.size()) +
                    " token places exceeds max_probe_combinations (" +
                    std::to_string(options.max_probe_combinations) +
                    "); dead-activity check skipped",
                "The enabling predicate reads too many token places to "
                "probe exhaustively. Raise "
                "AnalyzerOptions::max_probe_combinations to cover it, or "
                "narrow the declared reads.");
      continue;
    }

    MarkingGuard guard;
    for (TokenPlace* token : tokens) guard.remember(token);

    const auto satisfiable = [&]() -> bool {
      std::vector<std::size_t> index(tokens.size(), 0);
      while (true) {
        for (std::size_t i = 0; i < tokens.size(); ++i) {
          tokens[i]->set(domains[i][index[i]]);
        }
        bool enabled = true;
        try {
          enabled = a.enabled();
        } catch (const std::exception&) {
          return true;  // predicate escaped the abstraction: assume live
        }
        if (enabled) return true;
        // Advance the mixed-radix counter.
        std::size_t d = 0;
        while (d < tokens.size() && ++index[d] == domains[d].size()) {
          index[d] = 0;
          ++d;
        }
        if (d == tokens.size()) return false;
      }
    };

    bool live;
    if (tokens.empty()) {
      // Constant predicates: one evaluation decides.
      try {
        live = a.enabled();
      } catch (const std::exception&) {
        live = true;
      }
    } else {
      live = satisfiable();
    }
    if (!live) {
      std::ostringstream os;
      os << "enabling predicate unsatisfiable for any token marking in [0, "
         << options.token_probe_ceiling << "] of its declared read places";
      sink.emit(Severity::kWarning, check::kDeadActivity,
                facts.submodel->name(), "", a.name(), os.str(),
                "The activity can never fire under the token-range "
                "abstraction, so it is dead weight — or its predicate / "
                "declared reads are wrong. Raise "
                "AnalyzerOptions::token_probe_ceiling if markings "
                "legitimately exceed the probed range.");
    }
  }
}

/// Why a gate function stays on the trampoline, worded by how far its
/// footprint got towards an exact-effect declaration.
std::string function_trampoline_reason(const GateAccess& fp) {
  if (!fp.declared) return "no declared footprint";
  if (!fp.effects_declared) return "no declared effects";
  return "effects not declared exact (use with_exact_effect)";
}

/// --prove extra: report every gate the compiled kernel keeps on the
/// std::function trampoline instead of lowering to arena ops — the gates
/// declared through a closure. Info-only: trampolines are bit-identical,
/// just slower — the finding tells the modeler which declaration
/// (pred_terms / with_exact_effect) would move the gate onto the fast
/// path, or that the fallback is by design (compositional /
/// dynamic-write gates like the scheduler bridge).
void check_trampoline_fallbacks(const ComposedModel& model, Sink& sink) {
  const auto report_function = [&sink](const SanModel& m, const Activity& a,
                                        const std::string& gate,
                                        const GateAccess& fp) {
    sink.emit(Severity::kInfo, check::kTrampolineFallback, m.name(), "",
              a.name(),
              gate + " function fires through the closure trampoline: " +
                  function_trampoline_reason(fp),
              "Declare the gate's marking update as exact token "
              "deltas (with_exact_effect) to lower it to direct "
              "arena writes. Compositional or dynamically-scoped "
              "gates stay on the trampoline by design.");
  };
  for (const auto& m : model.submodels()) {
    for (const auto& a : m->activities()) {
      for (const auto& gate : a->input_gates()) {
        if (gate.predicate) {
          sink.emit(Severity::kInfo, check::kTrampolineFallback, m->name(), "",
                    a->name(),
                    "input gate '" + gate.name +
                        "' predicate evaluates through the closure "
                        "trampoline (a closure, not pred_terms)",
                    "Declare the predicate as PredTerms (token_zero / "
                    "token_positive / token_equals / token_at_least / "
                    "marking_probe) instead of a closure so the compiled "
                    "engine can evaluate enabling straight off the "
                    "marking arena.");
        }
        if (gate.input_function) {
          report_function(*m, *a, "input gate '" + gate.name + "'",
                          gate.footprint);
        }
      }
      for (const auto& c : a->cases()) {
        for (const auto& gate : c.output_gates) {
          if (gate.function) {
            report_function(*m, *a, "output gate '" + gate.name + "'",
                            gate.footprint);
          }
        }
      }
    }
  }
}

}  // namespace

ModelAnalysisError::ModelAnalysisError(Report report)
    : std::runtime_error(throw_message(report)),
      report_(std::make_shared<const Report>(std::move(report))) {}

Analyzer::Analyzer(AnalyzerOptions options) : options_(std::move(options)) {}

Report Analyzer::analyze(const ComposedModel& model) const {
  Report report;
  report.model = model.name();
  Sink sink(options_, report);

  // Single walk: activity facts + place universe.
  std::vector<ActivityFacts> activities;
  std::unordered_map<const PlaceBase*, PlaceFacts> places;
  for (const auto& m : model.submodels()) {
    std::unordered_set<const PlaceBase*> seen_here;
    for (const auto& p : m->places()) {
      auto& facts = places[p.get()];
      facts.place = p;
      if (seen_here.insert(p.get()).second) facts.holders.push_back(m.get());
    }
    for (const auto& a : m->activities()) {
      ActivityFacts facts;
      facts.submodel = m.get();
      facts.activity = a.get();
      for (const auto& gate : a->input_gates()) {
        collect_gate(gate.footprint, facts, report, /*enabling=*/true);
      }
      for (const auto& c : a->cases()) {
        for (const auto& gate : c.output_gates) {
          collect_gate(gate.footprint, facts, report, /*enabling=*/false);
        }
      }
      activities.push_back(std::move(facts));
    }
  }
  for (const auto& facts : activities) {
    for (PlaceBase* p : facts.reads) places[p].read = true;
    for (PlaceBase* p : facts.writes) places[p].written = true;
  }
  report.footprints_complete = report.gates_declared == report.gates_total;

  check_names(model, sink);
  check_duplicate_joins(model, sink);
  check_join_registry(model, places, sink);
  check_case_probabilities(activities, sink);
  check_dead_activities(activities, options_, sink);
  check_orphan_places(places, report.footprints_complete, sink);
  check_shared_write_races(places, activities, sink);
  check_instantaneous_cycles(activities, sink);

  if (options_.prove) {
    check_trampoline_fallbacks(model, sink);
    // Structural invariant engine. The model is at its initial marking
    // here (the dead-activity probe restored everything), which is what
    // fixes each invariant's constant y·m0.
    auto analysis = analyze_invariants(model, options_.invariant_options);
    for (const Diagnostic& d : analysis.incidence.diagnostics) {
      sink.emit(d.severity, d.check.c_str(), d.submodel, d.place, d.activity,
                d.message, d.explanation);
    }
    auto& section = report.invariants;
    section.computed = analysis.incidence.complete;
    section.budget_exhausted = analysis.budget_exhausted;
    section.tokens = analysis.incidence.tokens.size();
    section.opaque_tokens =
        section.tokens - analysis.incidence.transparent_tokens();
    section.columns = analysis.incidence.columns.size();
    for (const auto& invariant : analysis.invariants) {
      section.invariants.push_back(invariant.symbolic);
    }
    for (const auto& bound : analysis.bounds) {
      section.bounds.push_back(
          analysis.incidence.tokens[bound.token].name +
          " <= " + std::to_string(bound.bound) + "  [from: " +
          analysis.invariants[bound.invariant].symbolic + "]");
    }
    for (const std::size_t token : analysis.unbounded) {
      section.unbounded.push_back(analysis.incidence.tokens[token].name);
    }
    if (analysis.budget_exhausted) {
      sink.emit(Severity::kInfo, check::kInvariantBudget, "", "", "",
                "P-invariant elimination exceeded max_rows (" +
                    std::to_string(options_.invariant_options.max_rows) +
                    "); no invariants were derived",
                "The Farkas tableau grew past its row budget. Raise "
                "AnalyzerOptions::invariant_options.max_rows, or mark "
                "high-fanout places opaque to shrink the matrix.");
    } else if (section.computed && !section.unbounded.empty()) {
      std::string names = section.unbounded.front();
      for (std::size_t i = 1; i < section.unbounded.size(); ++i) {
        names += ", " + section.unbounded[i];
      }
      sink.emit(Severity::kInfo, check::kUnboundedPlace, "", names, "",
                std::to_string(section.unbounded.size()) +
                    " token(s) have no invariant-derived structural bound",
                "No conservation law covers these tokens, so no k-bounded "
                "proof exists for them — expected for genuinely unbounded "
                "counters (completed jobs, spin ticks), suspicious for "
                "state places.");
    }
  }

  if (!report.footprints_complete) {
    sink.emit(Severity::kInfo, check::kIncompleteFootprints, "", "", "",
              std::to_string(report.gates_total - report.gates_declared) +
                  " of " + std::to_string(report.gates_total) +
                  " gates declare no marking footprint",
              "Orphan-place detection is skipped and the dead-activity / "
              "race / cycle checks only cover declared gates. Declare "
              "footprints with san::access(reads, writes) to enable full "
              "analysis.");
  }

  // Errors first, then warnings, then notes — stable within a severity.
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  return report;
}

Report Analyzer::check_or_throw(const ComposedModel& model) const {
  Report report = analyze(model);
  if (report.errors() > 0) throw ModelAnalysisError(std::move(report));
  return report;
}

}  // namespace vcpusim::san::analyze
