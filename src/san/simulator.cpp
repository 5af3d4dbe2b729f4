#include "san/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "san/analyze/invariants.hpp"

namespace vcpusim::san {
namespace {

/// Installs the footprint sanitizer as the thread-local place-access
/// listener for one engine call, restoring the previous listener on the
/// way out (exception-safe; a null sanitizer is a no-op).
class ScopedListener {
 public:
  explicit ScopedListener(PlaceAccessListener* listener)
      : active_(listener != nullptr),
        prev_(active_ ? PlaceBase::exchange_listener(listener) : nullptr) {}
  ~ScopedListener() {
    if (active_) PlaceBase::exchange_listener(prev_);
  }
  ScopedListener(const ScopedListener&) = delete;
  ScopedListener& operator=(const ScopedListener&) = delete;

 private:
  bool active_;
  PlaceAccessListener* prev_;
};

}  // namespace

const char* engine_name(Engine engine) noexcept {
  switch (engine) {
    case Engine::kObjectGraph: return "object";
    case Engine::kCompiled: return "compiled";
  }
  return "?";
}

bool parse_engine(std::string_view text, Engine& out) noexcept {
  if (text == "object") {
    out = Engine::kObjectGraph;
    return true;
  }
  if (text == "compiled") {
    out = Engine::kCompiled;
    return true;
  }
  return false;
}

Simulator::Simulator(SimulatorConfig config)
    : config_(config), rng_(config.seed) {
  if (!SimulatorConfig::valid_end_time(config_.end_time)) {
    throw std::invalid_argument("Simulator: end_time must be in (0, 2^53]");
  }
}

void Simulator::set_model(ComposedModel& model) {
  // Re-setting swaps the model: every per-model structure (activity
  // vectors, dependency index, trace write lists, dirty state) is
  // rebuilt below; run()/reset() must be called again before advancing.
  model_ = &model;
  started_ = false;
  trace_writes_built_ = false;
  sanitizer_.reset();  // the invariant analysis is per-model
  compiled_.reset();   // unbind any previous arena before recompiling
  timed_compiled_.clear();
  inst_compiled_.clear();
  touch_lookup_.clear();
  dirty_timed_.clear();
  dirty_inst_.clear();
  dirty_all_ = true;
  activities_.clear();
  instantaneous_.clear();
  for (Activity* a : model.all_activities()) {
    if (a->is_instantaneous()) {
      instantaneous_.push_back(a);
    } else {
      activities_.push_back(a);
    }
  }
  timed_marked_.assign(activities_.size(), 0);
  inst_marked_.assign(instantaneous_.size(), 0);
  inst_enabled_.assign(instantaneous_.size(), 0);
  if (config_.engine == Engine::kCompiled) {
    compile_profile_.set_enabled(config_.profile);
    stats::ScopedPhaseTimer timer(&compile_profile_, stats::Phase::kCompile);
    compiled_ = std::make_unique<CompiledModel>(
        model, CompileOptions{.force_trampoline = config_.verify_footprints});
    timed_compiled_.reserve(activities_.size());
    inst_compiled_.reserve(instantaneous_.size());
    for (const Activity* a : activities_) {
      timed_compiled_.push_back(compiled_->find(a));
    }
    for (const Activity* a : instantaneous_) {
      inst_compiled_.push_back(compiled_->find(a));
    }
    timed_hot_.assign(activities_.size(), TimedHot{});
    for (std::size_t t = 0; t < activities_.size(); ++t) {
      timed_hot_[t].delay = activities_[t]->delay();
      if (timed_hot_[t].delay != nullptr) {
        timed_hot_[t].det_delay = timed_hot_[t].delay->rng_free_constant();
      }
      timed_hot_[t].priority = activities_[t]->priority();
    }
    // Priority-ordered permutation of the instantaneous activities:
    // stable sort keeps equal priorities in index order, so the first
    // enabled position in inst_enabled_bits_ is the selection winner.
    inst_prio_order_.resize(instantaneous_.size());
    for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
      inst_prio_order_[j] = j;
    }
    std::stable_sort(inst_prio_order_.begin(), inst_prio_order_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       return instantaneous_[a]->priority() >
                              instantaneous_[b]->priority();
                     });
    inst_prio_pos_.resize(instantaneous_.size());
    for (std::uint32_t pos = 0; pos < inst_prio_order_.size(); ++pos) {
      inst_prio_pos_[inst_prio_order_[pos]] = pos;
    }
    inst_enabled_bits_.assign(instantaneous_.size());
  } else {
    timed_hot_.clear();
    inst_enabled_bits_.assign(0);
    inst_prio_order_.clear();
    inst_prio_pos_.clear();
  }
  use_incremental_ = config_.incremental_enabling;
  if (use_incremental_) build_dependency_index();
  if (compiled_ != nullptr && use_incremental_) build_touch_lookup();
  fast_dirty_ = compiled_ != nullptr && use_incremental_ &&
                !config_.verify_footprints;
  if (fast_dirty_) build_dep_runs();
  build_impulse_index();
}

void Simulator::build_dep_runs() {
  dep_runs_.clear();
  timed_dirty_.assign(activities_.size());
  inst_dirty_.assign(instantaneous_.size());
  // Dependent ids are gathered into these scratch lists and packed into
  // runs: sorted, one run per non-zero 64-bit word, duplicates folded.
  std::vector<std::uint32_t> timed_ids;
  std::vector<std::uint32_t> inst_ids;
  const auto pack = [](std::vector<std::uint32_t>& ids,
                       std::vector<MaskRun>& out) {
    std::sort(ids.begin(), ids.end());
    for (std::size_t k = 0; k < ids.size();) {
      const std::uint32_t word = ids[k] >> 6;
      std::uint64_t bits = 0;
      for (; k < ids.size() && (ids[k] >> 6) == word; ++k) {
        bits |= std::uint64_t{1} << (ids[k] & 63);
      }
      out.push_back(MaskRun{bits, word});
    }
    ids.clear();
  };
  const auto span_of_ids = [&] {
    DepSpan span;
    span.begin = static_cast<std::uint32_t>(dep_runs_.size());
    pack(timed_ids, dep_runs_);
    span.split = static_cast<std::uint32_t>(dep_runs_.size());
    pack(inst_ids, dep_runs_);
    span.end = static_cast<std::uint32_t>(dep_runs_.size());
    return span;
  };
  const auto add_place = [&](std::uint32_t place) {
    const PlaceDeps& deps = place_deps_[place];
    timed_ids.insert(timed_ids.end(), deps.timed.begin(), deps.timed.end());
    inst_ids.insert(inst_ids.end(), deps.inst.begin(), deps.inst.end());
  };

  place_spans_.clear();
  place_spans_.reserve(place_deps_.size());
  for (std::uint32_t p = 0; p < place_deps_.size(); ++p) {
    add_place(p);
    place_spans_.push_back(span_of_ids());
  }
  fired_deps_.clear();
  fired_deps_.reserve(activities_.size() + instantaneous_.size());
  for (std::uint32_t t = 0; t < activities_.size(); ++t) {
    timed_ids.push_back(t);  // the fired activity always gets a fresh look
    for (const std::uint32_t place : timed_writes_[t]) add_place(place);
    DepSpan span = span_of_ids();
    span.writes_declared = timed_writes_declared_[t];
    span.dynamic = timed_dynamic_[t];
    fired_deps_.push_back(span);
  }
  for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
    inst_ids.push_back(j);
    for (const std::uint32_t place : inst_writes_[j]) add_place(place);
    DepSpan span = span_of_ids();
    span.writes_declared = inst_writes_declared_[j];
    span.dynamic = inst_dynamic_[j];
    fired_deps_.push_back(span);
  }
  always_timed_runs_.clear();
  timed_ids = always_timed_;
  pack(timed_ids, always_timed_runs_);
}

void Simulator::build_touch_lookup() {
  touch_lookup_.assign(compiled_->place_count(), kNoPlaceId);
  for (const auto& [place, id] : place_ids_) {
    const std::uint32_t cid = place->compiled_id();
    if (cid != PlaceBase::kNoCompiledId && cid < touch_lookup_.size()) {
      touch_lookup_[cid] = id;
    }
  }
}

void Simulator::build_dependency_index() {
  place_deps_.clear();
  place_ids_.clear();
  timed_writes_.assign(activities_.size(), {});
  inst_writes_.assign(instantaneous_.size(), {});
  timed_writes_declared_.assign(activities_.size(), 1);
  inst_writes_declared_.assign(instantaneous_.size(), 1);
  timed_dynamic_.assign(activities_.size(), 0);
  inst_dynamic_.assign(instantaneous_.size(), 0);
  always_timed_.clear();
  always_inst_.clear();

  const auto id_of = [&](const PlacePtr& place) {
    const auto [it, inserted] = place_ids_.emplace(
        place.get(), static_cast<std::uint32_t>(place_deps_.size()));
    if (inserted) place_deps_.emplace_back();
    return it->second;
  };
  const auto add_unique = [](std::vector<std::uint32_t>& v, std::uint32_t id) {
    if (std::find(v.begin(), v.end(), id) == v.end()) v.push_back(id);
  };

  const auto index_activity = [&](const Activity& a, bool timed,
                                  std::uint32_t index) {
    // Enabling depends on the input-gate predicates, so the read set is
    // the union of the input gates' declared reads; one undeclared input
    // gate makes the activity's enabling opaque (re-evaluate always).
    // The write set unions the input functions' and every case's output
    // gates' declared writes; one undeclared gate makes the firing's
    // effect opaque (full re-scan after it fires).
    bool reads_declared = true;
    bool writes_declared = true;
    bool dynamic = false;
    std::vector<std::uint32_t> reads;
    auto& writes = timed ? timed_writes_[index] : inst_writes_[index];
    // A dynamic-writes gate keeps its static write set out of the fired
    // dirty list: the per-firing touch() reports stand in for it. The
    // places still get ids so touch lookups resolve.
    const auto add_writes = [&](const GateAccess& fp) {
      if (fp.dynamic_writes) {
        dynamic = true;
        for (const PlacePtr& p : fp.writes) id_of(p);
      } else {
        for (const PlacePtr& p : fp.writes) add_unique(writes, id_of(p));
      }
    };
    for (const InputGate& gate : a.input_gates()) {
      if (!gate.footprint.declared) {
        reads_declared = false;
        writes_declared = false;
        continue;
      }
      for (const PlacePtr& p : gate.footprint.reads) add_unique(reads, id_of(p));
      add_writes(gate.footprint);
    }
    for (const Case& c : a.cases()) {
      for (const OutputGate& gate : c.output_gates) {
        if (!gate.footprint.declared) {
          writes_declared = false;
          continue;
        }
        add_writes(gate.footprint);
      }
    }
    (timed ? timed_writes_declared_ : inst_writes_declared_)[index] =
        writes_declared ? 1 : 0;
    (timed ? timed_dynamic_ : inst_dynamic_)[index] =
        (dynamic && writes_declared) ? 1 : 0;
    if (!reads_declared) {
      // Kept out of place_deps_ so the settle-round merge sees each
      // activity at most twice (dirty + always), never more.
      (timed ? always_timed_ : always_inst_).push_back(index);
      return;
    }
    for (const std::uint32_t place : reads) {
      auto& deps = place_deps_[place];
      add_unique(timed ? deps.timed : deps.inst, index);
    }
  };

  for (std::uint32_t t = 0; t < activities_.size(); ++t) {
    index_activity(*activities_[t], true, t);
  }
  for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
    index_activity(*instantaneous_[j], false, j);
  }
}

void Simulator::build_trace_write_lists() {
  const auto writes_of = [](const Activity& a) {
    // Union of every declared gate write set (input functions + all
    // cases' output gates), deduplicated, in declaration order. Dynamic
    // gates contribute their full static superset so the list — and the
    // emitted stream — does not depend on the enabling mode. Activities
    // with no declared footprint get no marking events.
    std::vector<const PlaceBase*> writes;
    const auto add = [&writes](const GateAccess& fp) {
      if (!fp.declared) return;
      for (const PlacePtr& p : fp.writes) {
        if (std::find(writes.begin(), writes.end(), p.get()) == writes.end()) {
          writes.push_back(p.get());
        }
      }
    };
    for (const InputGate& gate : a.input_gates()) add(gate.footprint);
    for (const Case& c : a.cases()) {
      for (const OutputGate& gate : c.output_gates) add(gate.footprint);
    }
    return writes;
  };
  timed_trace_writes_.clear();
  inst_trace_writes_.clear();
  timed_trace_writes_.reserve(activities_.size());
  inst_trace_writes_.reserve(instantaneous_.size());
  for (const Activity* a : activities_) timed_trace_writes_.push_back(writes_of(*a));
  for (const Activity* a : instantaneous_) inst_trace_writes_.push_back(writes_of(*a));
  trace_writes_built_ = true;
}

void Simulator::add_reward(RewardVariable& reward) {
  rewards_.push_back(&reward);
  reward.impulses_sealed_ = true;
  if (!reward.impulses().empty()) build_impulse_index();
}

void Simulator::build_impulse_index() {
  impulse_begin_.clear();
  impulse_refs_.clear();
  std::unordered_map<const Activity*, std::vector<ImpulseRef>> by_activity;
  for (RewardVariable* r : rewards_) {
    const auto& impulses = r->impulses();
    for (std::uint32_t i = 0; i < impulses.size(); ++i) {
      by_activity[impulses[i].activity].push_back(ImpulseRef{r, i});
    }
  }
  if (model_ == nullptr || by_activity.empty()) return;
  // Impulses on activities outside the model never fire: they simply
  // find no slot here.
  impulse_begin_.reserve(activities_.size() + instantaneous_.size() + 1);
  const auto add_slot = [&](const Activity* a) {
    impulse_begin_.push_back(static_cast<std::uint32_t>(impulse_refs_.size()));
    const auto it = by_activity.find(a);
    if (it != by_activity.end()) {
      impulse_refs_.insert(impulse_refs_.end(), it->second.begin(),
                           it->second.end());
    }
  };
  for (const Activity* a : activities_) add_slot(a);
  for (const Activity* a : instantaneous_) add_slot(a);
  impulse_begin_.push_back(static_cast<std::uint32_t>(impulse_refs_.size()));
}

void Simulator::advance_time(Time to) {
  if (to <= now_) return;
  for (RewardVariable* r : rewards_) r->on_advance(now_, to);
  now_ = to;
}

void Simulator::schedule(std::uint32_t timed_index) {
  Activity& activity = *activities_[timed_index];
  if (compiled_ != nullptr) {
    TimedHot& hot = timed_hot_[timed_index];
    // Deterministic delays skip the virtual sample: the stream is
    // untouched because Deterministic::sample never draws.
    const Time delay = hot.det_delay >= 0 ? hot.det_delay
                       : hot.delay != nullptr ? hot.delay->sample(rng_)
                                              : activity.sample_delay(rng_);
    if (delay < 0) {
      throw std::logic_error("Simulator: negative delay sampled for activity " +
                             activity.name());
    }
    hot.scheduled = 1;
    cal_push(
        Event{now_ + delay, seq_++, hot.activation, hot.priority, timed_index});
    return;
  }
  const Time delay = activity.sample_delay(rng_);
  if (delay < 0) {
    throw std::logic_error("Simulator: negative delay sampled for activity " +
                           activity.name());
  }
  activity.mark_scheduled();
  queue_push(Event{now_ + delay, seq_++, activity.activation_id(),
                   activity.priority(), timed_index});
}

bool Simulator::eval_enabled(const Activity& a) {
  if (sanitizer_ == nullptr) return a.enabled();
  sanitizer_->begin_predicate(a);
  const bool en = a.enabled();
  sanitizer_->end_predicate();
  return en;
}

void Simulator::transition_timed(std::uint32_t timed_index) {
  const bool en = eval_timed(timed_index);
  const bool was_scheduled = timed_scheduled(timed_index);
  if (en && !was_scheduled) {
    schedule(timed_index);
  } else if (!en && was_scheduled) {
    cancel_timed(timed_index);
  } else {
    return;  // no transition: nothing to trace
  }
  Activity& a = *activities_[timed_index];
  // Emitted only on actual activate/abort transitions — a re-evaluation
  // that changes nothing is silent, which is what keeps the stream
  // identical across incremental enabling on/off.
  if (trace_ != nullptr && trace_->wants(TraceCategory::kEnabling)) {
    trace_->on_event(TraceEvent{TraceCategory::kEnabling, now_, events_,
                                a.name(), en ? 1 : 0, 0, {}});
  }
}

void Simulator::mark_timed(std::uint32_t timed_index) {
  if (timed_marked_[timed_index]) return;
  timed_marked_[timed_index] = 1;
  dirty_timed_.push_back(timed_index);
}

void Simulator::mark_inst(std::uint32_t inst_index) {
  if (inst_marked_[inst_index]) return;
  inst_marked_[inst_index] = 1;
  dirty_inst_.push_back(inst_index);
}

void Simulator::mark_place(std::uint32_t place_id) {
  const PlaceDeps& deps = place_deps_[place_id];
  for (const std::uint32_t t : deps.timed) mark_timed(t);
  for (const std::uint32_t j : deps.inst) mark_inst(j);
}

void Simulator::mark_fired(bool timed, std::uint32_t index) {
  if (!use_incremental_ || dirty_all_) return;
  if (fast_dirty_) {
    const DepSpan& deps =
        fired_deps_[timed ? index : activities_.size() + index];
    if (deps.writes_declared == 0) {
      dirty_all_ = true;  // unknown write set: rescan everything
      return;
    }
    // Precompiled dependents: a few run ORs replace the per-place
    // dependency loops of the vector path.
    mark_span(deps);
    if (deps.dynamic != 0) {
      for (const PlaceBase* p : touched_) {
        const std::uint32_t cid = p->compiled_id();
        std::uint32_t id = kNoPlaceId;
        if (cid < touch_lookup_.size()) {
          id = touch_lookup_[cid];
        } else {
          const auto it = place_ids_.find(p);
          if (it != place_ids_.end()) id = it->second;
        }
        if (id != kNoPlaceId) mark_span(place_spans_[id]);
      }
    }
    return;
  }
  // The fired activity itself always needs a fresh look: a timed one may
  // still be enabled and must re-activate even if it reads nothing.
  if (timed) {
    mark_timed(index);
  } else {
    mark_inst(index);
  }
  const bool declared = timed ? timed_writes_declared_[index] != 0
                              : inst_writes_declared_[index] != 0;
  if (!declared) {
    dirty_all_ = true;  // unknown write set: rescan everything
    return;
  }
  for (const std::uint32_t place :
       timed ? timed_writes_[index] : inst_writes_[index]) {
    mark_place(place);
  }
  // Dynamic gates: dirty exactly the places this firing reported. Under
  // the compiled engine the dense compiled id resolves the place with an
  // array load instead of a hash probe.
  if (timed ? timed_dynamic_[index] != 0 : inst_dynamic_[index] != 0) {
    for (const PlaceBase* p : touched_) {
      const std::uint32_t cid = p->compiled_id();
      if (cid < touch_lookup_.size()) {
        const std::uint32_t id = touch_lookup_[cid];
        if (id != kNoPlaceId) mark_place(id);
      } else {
        const auto it = place_ids_.find(p);
        if (it != place_ids_.end()) mark_place(it->second);
      }
    }
  }
}

void Simulator::clear_dirty() {
  if (fast_dirty_ && dirty_all_) {
    // The drain zeroes words as it consumes them; only a full rescan
    // can leave stale bits behind.
    timed_dirty_.clear();
    inst_dirty_.clear();
  }
  for (const std::uint32_t t : dirty_timed_) timed_marked_[t] = 0;
  for (const std::uint32_t j : dirty_inst_) inst_marked_[j] = 0;
  dirty_timed_.clear();
  dirty_inst_.clear();
  dirty_all_ = false;
}

void Simulator::complete(Activity& activity, bool timed,
                         std::uint32_t index) {
  stats::ScopedPhaseTimer timer(&profile_, stats::Phase::kFire);
  const std::uint64_t seq = events_++;
  GateContext ctx{rng_, now_};
  // The sanitizer needs touch() reports even in full-scan mode (the
  // missed-touch check compares actual writes against them); collecting
  // them never changes gate behavior.
  if (use_incremental_ || sanitizer_ != nullptr) {
    touched_.clear();
    ctx.touched = &touched_;
  }
  if (trace_ != nullptr) {
    ctx.trace = trace_;
    ctx.seq = seq;
  }
  if (sanitizer_ != nullptr) {
    ctx.sanitizer = sanitizer_.get();
    sanitizer_->begin_firing(activity, ctx);
  }
  const std::size_t case_index =
      compiled_ != nullptr
          ? compiled_->fire(
                *(timed ? timed_compiled_[index] : inst_compiled_[index]), ctx)
          : activity.fire(ctx);
  if (sanitizer_ != nullptr) sanitizer_->end_firing();
  if (!impulse_begin_.empty()) {
    const std::size_t slot = timed ? index : activities_.size() + index;
    for (std::uint32_t k = impulse_begin_[slot]; k < impulse_begin_[slot + 1];
         ++k) {
      impulse_refs_[k].reward->on_impulse(impulse_refs_[k].impulse, now_);
    }
  }
  if (trace_ == nullptr) return;
  if (trace_->wants(TraceCategory::kFire)) {
    trace_->on_event(TraceEvent{TraceCategory::kFire, now_, seq,
                                activity.name(),
                                static_cast<std::int64_t>(case_index), 0, {}});
  }
  if (trace_->wants(TraceCategory::kMarking)) {
    const auto& writes =
        timed ? timed_trace_writes_[index] : inst_trace_writes_[index];
    for (const PlaceBase* place : writes) {
      // Rendered into the reusable buffer: marking events allocate only
      // while the buffer grows to the high-water mark, then never again.
      value_buf_.clear();
      place->value_string_to(value_buf_);
      trace_->on_event(TraceEvent{TraceCategory::kMarking, now_, seq,
                                  place->name(), 0, 0, value_buf_});
    }
  }
}

void Simulator::settle() {
  stats::ScopedPhaseTimer timer(&profile_, stats::Phase::kSettle);
  std::uint32_t chain = 0;
  for (;;) {
    if (!use_incremental_ || dirty_all_) {
      // Full scan: re-evaluate every activity's enabling.
      for (std::uint32_t t = 0; t < activities_.size(); ++t) {
        transition_timed(t);
      }
      for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
        set_inst_enabled(j, eval_inst(j));
      }
      enabling_evals_ += activities_.size() + instantaneous_.size();
      if (use_incremental_) clear_dirty();
    } else if (fast_dirty_) {
      // Drain ascending set bits of (dirty | always) — the same activity
      // sequence the vector merge below produces, without the sort, the
      // merge branches, or the marked-flag bookkeeping.
      timed_dirty_.mark(always_timed_runs_.data(),
                        always_timed_runs_.data() + always_timed_runs_.size());
      enabling_evals_ += timed_dirty_.drain(
          [this](std::uint32_t t) { transition_timed(t); });
      enabling_evals_ += inst_dirty_.drain(
          [this](std::uint32_t j) { set_inst_enabled(j, eval_inst(j)); });
      for (const std::uint32_t j : always_inst_) {
        set_inst_enabled(j, eval_inst(j));
      }
      enabling_evals_ += always_inst_.size();
      clear_dirty();
    } else {
      // Incremental: only activities whose read set intersects the places
      // written since the last round, plus the undeclared-footprint ones.
      // Timed re-evaluation must run in ascending activity order — the
      // order schedule() consumes the RNG in a full scan — to keep
      // trajectories bit-identical.
      std::sort(dirty_timed_.begin(), dirty_timed_.end());
      std::size_t di = 0;
      std::size_t ai = 0;
      while (di < dirty_timed_.size() || ai < always_timed_.size()) {
        std::uint32_t t;
        if (ai == always_timed_.size()) {
          t = dirty_timed_[di++];
        } else if (di == dirty_timed_.size()) {
          t = always_timed_[ai++];
        } else if (dirty_timed_[di] < always_timed_[ai]) {
          t = dirty_timed_[di++];
        } else if (always_timed_[ai] < dirty_timed_[di]) {
          t = always_timed_[ai++];
        } else {
          t = dirty_timed_[di++];
          ++ai;
        }
        transition_timed(t);
        ++enabling_evals_;
      }
      for (const std::uint32_t j : dirty_inst_) {
        set_inst_enabled(j, eval_inst(j));
      }
      for (const std::uint32_t j : always_inst_) {
        set_inst_enabled(j, eval_inst(j));
      }
      enabling_evals_ += dirty_inst_.size() + always_inst_.size();
      clear_dirty();
    }
    // Fire the highest-priority enabled instantaneous activity, if any
    // (cached flags; ties resolve to the lowest index, as the full
    // predicate scan always did). The object engine keeps the scan as
    // the reference cost.
    Activity* next = nullptr;
    std::uint32_t next_index = 0;
    if (compiled_ != nullptr) {
      // First set bit of the priority-ordered enabled set: identical
      // winner to the reference scan (max priority, lowest index on
      // ties), found through the summary word without walking every
      // instantaneous activity.
      const std::uint32_t pos = inst_enabled_bits_.first();
      if (pos == SummaryBits::kNone) return;
      next_index = inst_prio_order_[pos];
      next = instantaneous_[next_index];
    } else {
      for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
        if (!inst_enabled_[j]) continue;
        if (next == nullptr ||
            instantaneous_[j]->priority() > next->priority()) {
          next = instantaneous_[j];
          next_index = j;
        }
      }
    }
    if (next == nullptr) return;
    if (++chain > config_.max_instantaneous_chain) {
      throw std::logic_error(
          "Simulator: instantaneous livelock (activity " + next->name() +
          " still enabled after " + std::to_string(chain) + " zero-time firings)");
    }
    complete(*next, /*timed=*/false, next_index);
    mark_fired(false, next_index);
  }
}

void Simulator::reset() {
  if (model_ == nullptr) {
    throw std::logic_error("Simulator: reset() before set_model()");
  }
  if (compiled_ != nullptr) {
    // Block-copy restore: one memcpy of the initial-marking image (plus
    // pod-vector spans); no per-place virtual reset() calls.
    compiled_->reset_markings();
    for (Activity* a : activities_) a->reset_state();
    for (Activity* a : instantaneous_) a->reset_state();
    for (TimedHot& hot : timed_hot_) {
      ++hot.activation;  // invalidate any still-queued events
      hot.scheduled = 0;
    }
  } else {
    model_->reset_marking();
  }
  for (RewardVariable* r : rewards_) r->reset();
  profile_.reset();
  profile_.set_enabled(config_.profile);
  if (trace_ != nullptr && trace_->wants(TraceCategory::kMarking) &&
      !trace_writes_built_) {
    build_trace_write_lists();
  }
  if (compiled_ != nullptr) {
    cal_clear();
  } else {
    queue_.clear();
    // Steady state holds ~one live event per timed activity plus aborted
    // stragglers; reserving up front keeps the hot loop reallocation-free.
    queue_.reserve(4 * activities_.size() + 16);
  }
  now_ = 0.0;
  seq_ = 0;
  events_ = 0;
  aborted_events_ = 0;
  enabling_evals_ = 0;
  hit_event_cap_ = false;
  started_ = true;
  if (config_.verify_footprints) {
    if (sanitizer_ == nullptr) {
      // The invariant analysis fixes y·m0 from the live marking, which
      // reset_marking() above just restored to the initial one.
      sanitizer_ = std::make_unique<FootprintSanitizer>(
          analyze::analyze_invariants(*model_));
    }
    sanitizer_->on_reset();
  }
  ScopedListener guard(sanitizer_.get());
  clear_dirty();
  dirty_all_ = true;  // initial activations: everything gets a first look
  settle();
}

void Simulator::reset(std::uint64_t seed, bool antithetic) {
  config_.seed = seed;
  rng_ = stats::Rng(seed);
  // Before reset(): the time-zero activations already draw variates.
  rng_.set_antithetic(antithetic);
  reset();
}

RunStats Simulator::advance_until(Time t) {
  if (!started_) {
    throw std::logic_error("Simulator: advance_until() before reset()");
  }
  ScopedListener guard(sanitizer_.get());
  const Time horizon = std::min(t, config_.end_time);
  const bool calendar = compiled_ != nullptr;
  while ((calendar ? cal_size_ != 0 : !queue_.empty()) && !hit_event_cap_) {
    if (events_ >= config_.max_events) {
      hit_event_cap_ = true;
      break;
    }
    const Event ev = calendar ? cal_peek() : queue_.front();
    if (ev.time > horizon) break;
    if (calendar) {
      cal_pop();
    } else {
      queue_pop_front();
    }
    if (ev.activation != timed_activation(ev.timed_index)) {
      ++aborted_events_;  // stale activation: lazily cancelled
      continue;
    }
    advance_time(ev.time);
    cancel_timed(ev.timed_index);  // consume this activation
    complete(*activities_[ev.timed_index], /*timed=*/true, ev.timed_index);
    mark_fired(true, ev.timed_index);
    settle();
  }
  advance_time(horizon);
  RunStats stats;
  stats.end_time = now_;
  stats.events = events_;
  stats.hit_event_cap = hit_event_cap_;
  stats.enabling_evals = enabling_evals_;
  stats.aborted_events = aborted_events_;
  return stats;
}

RunStats Simulator::run() {
  reset();
  return advance_until(config_.end_time);
}

const FootprintReport* Simulator::footprint_report() {
  if (sanitizer_ == nullptr) return nullptr;
  sanitizer_->finish_run();
  return &sanitizer_->report();
}

RunStats run_once(ComposedModel& model, const SimulatorConfig& config,
                  std::vector<RewardVariable*> rewards) {
  Simulator sim(config);
  sim.set_model(model);
  for (RewardVariable* r : rewards) sim.add_reward(*r);
  return sim.run();
}

}  // namespace vcpusim::san
