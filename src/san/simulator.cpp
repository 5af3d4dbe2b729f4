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

Simulator::Simulator(SimulatorConfig config)
    : config_(config), rng_(config.seed) {
  if (!SimulatorConfig::valid_end_time(config_.end_time)) {
    throw std::invalid_argument("Simulator: end_time must be in (0, 2^53]");
  }
}

void Simulator::set_model(ComposedModel& model) {
  // Re-setting swaps the model: every per-model structure (activity
  // vectors, compiled program, enabling index, trace write lists, dirty
  // state) is rebuilt below; run()/reset() must be called again before
  // advancing. model_ is set only once compilation succeeded, so a
  // rejected model (e.g. already arena-bound elsewhere) leaves the
  // simulator unusable until the next set_model, not half-bound.
  model_ = nullptr;
  started_ = false;
  trace_writes_built_ = false;
  sanitizer_.reset();  // the invariant analysis is per-model
  compiled_.reset();   // unbind any previous arena before recompiling
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
  inst_enabled_.assign(instantaneous_.size(), 0);
  compile_profile_.set_enabled(config_.profile);
  {
    stats::ScopedPhaseTimer timer(&compile_profile_, stats::Phase::kCompile);
    compiled_ = std::make_unique<CompiledModel>(model);
    timed_compiled_.clear();
    inst_compiled_.clear();
    for (const Activity* a : activities_) {
      timed_compiled_.push_back(compiled_->find(a));
    }
    for (const Activity* a : instantaneous_) {
      inst_compiled_.push_back(compiled_->find(a));
    }
    timed_hot_.assign(activities_.size(), TimedHot{});
    for (std::size_t t = 0; t < activities_.size(); ++t) {
      TimedHot& hot = timed_hot_[t];
      hot.delay = activities_[t]->delay();
      hot.det_delay = hot.delay->rng_free_constant();
      hot.priority = activities_[t]->priority();
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
  }
  model_ = &model;
  use_incremental_ = config_.incremental_enabling;
  if (use_incremental_) build_enabling_index();
  build_impulse_index();
}

void Simulator::build_enabling_index() {
  // Dependents of one place: the activities whose enabling may change
  // when its marking does.
  struct PlaceDeps {
    std::vector<std::uint32_t> timed;
    std::vector<std::uint32_t> inst;
  };
  std::vector<PlaceDeps> place_deps;
  place_ids_.clear();
  // Per activity (timed, then instantaneous): the enabling-index ids of
  // its static write set, whether every gate declared its writes, and
  // whether a dynamic-writes gate (GateAccess::dynamic_writes) reports
  // its writes per firing through GateContext::touch() instead — the
  // static list then holds only the writes of its other gates.
  const std::size_t n_timed = activities_.size();
  std::vector<std::vector<std::uint32_t>> writes(n_timed +
                                                 instantaneous_.size());
  std::vector<std::uint8_t> writes_declared(writes.size(), 1);
  std::vector<std::uint8_t> dynamic(writes.size(), 0);
  std::vector<std::uint32_t> always_timed;
  always_inst_.clear();

  const auto id_of = [&](const PlacePtr& place) {
    const auto [it, inserted] = place_ids_.emplace(
        place.get(), static_cast<std::uint32_t>(place_deps.size()));
    if (inserted) place_deps.emplace_back();
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
    const std::size_t slot = timed ? index : n_timed + index;
    bool reads_declared = true;
    bool declared = true;
    bool dyn = false;
    std::vector<std::uint32_t> reads;
    // A dynamic-writes gate keeps its static write set out of the fired
    // dirty list: the per-firing touch() reports stand in for it. The
    // places still get ids so touch lookups resolve.
    const auto add_writes = [&](const GateAccess& fp) {
      if (fp.dynamic_writes) {
        dyn = true;
        for (const PlacePtr& p : fp.writes) id_of(p);
      } else {
        for (const PlacePtr& p : fp.writes) add_unique(writes[slot], id_of(p));
      }
    };
    for (const InputGate& gate : a.input_gates()) {
      if (!gate.footprint.declared) {
        reads_declared = false;
        declared = false;
        continue;
      }
      for (const PlacePtr& p : gate.footprint.reads) add_unique(reads, id_of(p));
      add_writes(gate.footprint);
    }
    for (const Case& c : a.cases()) {
      for (const OutputGate& gate : c.output_gates) {
        if (!gate.footprint.declared) {
          declared = false;
          continue;
        }
        add_writes(gate.footprint);
      }
    }
    writes_declared[slot] = declared ? 1 : 0;
    dynamic[slot] = (dyn && declared) ? 1 : 0;
    if (!reads_declared) {
      // Kept out of place_deps so each activity is evaluated at most
      // once per round through the dirty sets.
      (timed ? always_timed : always_inst_).push_back(index);
      return;
    }
    for (const std::uint32_t place : reads) {
      auto& deps = place_deps[place];
      add_unique(timed ? deps.timed : deps.inst, index);
    }
  };

  for (std::uint32_t t = 0; t < n_timed; ++t) {
    index_activity(*activities_[t], true, t);
  }
  for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
    index_activity(*instantaneous_[j], false, j);
  }

  touch_lookup_.assign(compiled_->place_count(), kNoPlaceId);
  for (const auto& [place, id] : place_ids_) {
    const std::uint32_t cid = place->compiled_id();
    if (cid != PlaceBase::kNoCompiledId && cid < touch_lookup_.size()) {
      touch_lookup_[cid] = id;
    }
  }

  // Pack the dependents into sparse runs: sorted, one run per non-zero
  // 64-bit word, duplicates folded.
  dep_runs_.clear();
  timed_dirty_.assign(n_timed);
  inst_dirty_.assign(instantaneous_.size());
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
    const PlaceDeps& deps = place_deps[place];
    timed_ids.insert(timed_ids.end(), deps.timed.begin(), deps.timed.end());
    inst_ids.insert(inst_ids.end(), deps.inst.begin(), deps.inst.end());
  };

  place_spans_.clear();
  place_spans_.reserve(place_deps.size());
  for (std::uint32_t p = 0; p < place_deps.size(); ++p) {
    add_place(p);
    place_spans_.push_back(span_of_ids());
  }
  fired_deps_.clear();
  fired_deps_.reserve(writes.size());
  for (std::uint32_t slot = 0; slot < writes.size(); ++slot) {
    // The fired activity always gets a fresh look: a timed one may still
    // be enabled and must re-activate even if it reads nothing.
    if (slot < n_timed) {
      timed_ids.push_back(slot);
    } else {
      inst_ids.push_back(static_cast<std::uint32_t>(slot - n_timed));
    }
    for (const std::uint32_t place : writes[slot]) add_place(place);
    DepSpan span = span_of_ids();
    span.writes_declared = writes_declared[slot];
    span.dynamic = dynamic[slot];
    fired_deps_.push_back(span);
  }
  always_timed_runs_.clear();
  pack(always_timed, always_timed_runs_);
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
  TimedHot& hot = timed_hot_[timed_index];
  // Deterministic delays skip the virtual sample: the stream is
  // untouched because Deterministic::sample never draws.
  const Time delay =
      hot.det_delay >= 0 ? hot.det_delay : hot.delay->sample(rng_);
  if (delay < 0) {
    throw std::logic_error("Simulator: negative delay sampled for activity " +
                           activities_[timed_index]->name());
  }
  hot.scheduled = 1;
  cal_push(
      Event{now_ + delay, seq_++, hot.activation, hot.priority, timed_index});
}

bool Simulator::sanitized_enabled(const Activity& a) {
  sanitizer_->begin_predicate(a);
  const bool en = a.enabled();
  sanitizer_->end_predicate();
  return en;
}

void Simulator::transition_timed(std::uint32_t timed_index) {
  const bool en = eval_timed(timed_index);
  TimedHot& hot = timed_hot_[timed_index];
  if (en && hot.scheduled == 0) {
    schedule(timed_index);
  } else if (!en && hot.scheduled != 0) {
    ++hot.activation;  // abort: the queued event goes stale
    hot.scheduled = 0;
  } else {
    return;  // no transition: nothing to trace
  }
  // Emitted only on actual activate/abort transitions — a re-evaluation
  // that changes nothing is silent, which is what keeps the stream
  // identical across incremental enabling on/off.
  if (trace_ != nullptr && trace_->wants(TraceCategory::kEnabling)) {
    trace_->on_event(TraceEvent{TraceCategory::kEnabling, now_, events_,
                                activities_[timed_index]->name(), en ? 1 : 0,
                                0, {}});
  }
}

void Simulator::mark_fired(bool timed, std::uint32_t index) {
  if (dirty_all_) return;  // full rescan pending (always in full-scan mode)
  const DepSpan& deps = fired_deps_[timed ? index : activities_.size() + index];
  if (deps.writes_declared == 0) {
    dirty_all_ = true;  // unknown write set: rescan everything
    return;
  }
  mark_span(deps);
  if (deps.dynamic != 0) {
    // Dynamic gates: dirty exactly the places this firing reported. The
    // dense compiled id resolves a place with an array load; the hash is
    // the fallback for places the compiled model does not number.
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
  std::size_t case_index = 0;
  if (sanitizer_ != nullptr) {
    // Sanitized firings run through Activity::fire, whose place accesses
    // and gate boundaries the sanitizer observes; the kernel's arena ops
    // would bypass both.
    ctx.sanitizer = sanitizer_.get();
    sanitizer_->begin_firing(activity, ctx);
    case_index = activity.fire(ctx);
    sanitizer_->end_firing();
  } else {
    case_index = compiled_->fire(
        *(timed ? timed_compiled_[index] : inst_compiled_[index]), ctx);
  }
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
    if (dirty_all_) {
      // Full scan: re-evaluate every activity's enabling.
      for (std::uint32_t t = 0; t < activities_.size(); ++t) {
        transition_timed(t);
      }
      for (std::uint32_t j = 0; j < instantaneous_.size(); ++j) {
        set_inst_enabled(j, eval_inst(j));
      }
      enabling_evals_ += activities_.size() + instantaneous_.size();
      if (use_incremental_) {
        // The drain zeroes words as it consumes them; only a full rescan
        // leaves stale bits behind.
        timed_dirty_.clear();
        inst_dirty_.clear();
        dirty_all_ = false;
      }
    } else {
      // Incremental: drain the ascending set bits of (dirty | always) —
      // the activities whose read set intersects the places written
      // since the last round, plus the undeclared-footprint ones. Timed
      // re-evaluation runs in ascending activity order, the order a full
      // scan consumes the RNG in, so trajectories match it bit for bit.
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
    }
    // Fire the highest-priority enabled instantaneous activity, if any:
    // the first set bit of the priority-ordered enabled set (max
    // priority, lowest index on ties), found through the summary word.
    const std::uint32_t pos = inst_enabled_bits_.first();
    if (pos == SummaryBits::kNone) return;
    const std::uint32_t next = inst_prio_order_[pos];
    if (++chain > config_.max_instantaneous_chain) {
      throw std::logic_error(
          "Simulator: instantaneous livelock (activity " +
          instantaneous_[next]->name() + " still enabled after " +
          std::to_string(chain) + " zero-time firings)");
    }
    complete(*instantaneous_[next], /*timed=*/false, next);
    mark_fired(false, next);
  }
}

void Simulator::reset() {
  if (model_ == nullptr) {
    throw std::logic_error("Simulator: reset() before set_model()");
  }
  // Block-copy restore: one memcpy of the initial-marking image (plus
  // pod-vector spans); no per-place virtual reset() calls.
  compiled_->reset_markings();
  for (TimedHot& hot : timed_hot_) {
    ++hot.activation;  // invalidate any still-queued events
    hot.scheduled = 0;
  }
  for (RewardVariable* r : rewards_) r->reset();
  profile_.reset();
  profile_.set_enabled(config_.profile);
  if (trace_ != nullptr && trace_->wants(TraceCategory::kMarking) &&
      !trace_writes_built_) {
    build_trace_write_lists();
  }
  cal_clear();
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
      // reset_markings() above just restored to the initial one.
      sanitizer_ = std::make_unique<FootprintSanitizer>(
          analyze::analyze_invariants(*model_));
    }
    sanitizer_->on_reset();
  }
  ScopedListener guard(sanitizer_.get());
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
  while (cal_size_ != 0 && !hit_event_cap_) {
    if (events_ >= config_.max_events) {
      hit_event_cap_ = true;
      break;
    }
    const Event ev = cal_peek();
    if (ev.time > horizon) break;
    cal_pop();
    TimedHot& hot = timed_hot_[ev.timed_index];
    if (ev.activation != hot.activation) {
      ++aborted_events_;  // stale activation: lazily cancelled
      continue;
    }
    advance_time(ev.time);
    ++hot.activation;  // consume this activation
    hot.scheduled = 0;
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
