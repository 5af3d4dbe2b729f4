// Discrete-event simulator executing a ComposedModel under SAN semantics.
//
// Execution rules:
//  * A timed activity is *activated* when it becomes enabled: a completion
//    delay is sampled and a completion event scheduled. If a marking
//    change disables it before completion, the activation is aborted
//    (race/abort semantics). Firing while still enabled re-activates it.
//  * Instantaneous activities complete in zero time as soon as they are
//    enabled; among simultaneously enabled instantaneous activities the
//    highest priority fires first (lowest index on ties).
//  * Timed completions at the same instant fire in descending priority,
//    FIFO within equal priority.
//  * After every completion the enabling of affected activities is
//    re-evaluated. When gates declare their marking footprints
//    (GateAccess), a place -> dependent-activities index built at
//    set_model() time restricts re-evaluation to activities whose read
//    set intersects the fired activity's write set — O(affected) instead
//    of O(all activities). Activities with undeclared read footprints are
//    re-evaluated every time, and a fired activity with an undeclared
//    write footprint forces a full re-scan, so partially annotated models
//    stay correct. Gates declared with access_dynamic() narrow this
//    further: each firing dirties only the places the gate reported via
//    GateContext::touch(), so a wide-footprint gate (e.g. the scheduler
//    bridge) that leaves most slots untouched on a given firing does not
//    dirty them. See docs/PERFORMANCE.md.
//
// There is one runtime: set_model() lowers the model into the compiled
// kernel (san/compiled.hpp) and the event loop runs off its arena, an
// event calendar, and bitset dirty/enabled sets. The oracle for these
// rules is a deliberately naive interpreter on the test side
// (tests/testing/reference_interpreter.hpp): the model run through
// Activity::enabled / fire only, a binary heap, a full enabling scan
// every round. Every trajectory must match it bit for bit.
//
// Rate rewards are accrued over each dwell interval before the marking
// changes; impulse rewards on each completion, dispatched through a
// per-activity index so a completion visits only its own impulses.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include <memory>

#include "san/compiled.hpp"
#include "san/model.hpp"
#include "san/reward.hpp"
#include "san/sanitizer.hpp"
#include "san/trace.hpp"
#include "stats/phase_profile.hpp"
#include "stats/rng.hpp"

namespace vcpusim::san {

/// The runtime that executes the model. The compiled kernel is the only
/// one; the type and SimulatorConfig::engine remain so existing callers
/// that assign the field keep compiling.
enum class Engine : std::uint8_t {
  kCompiled,  ///< arena markings + flat dispatch tables
};

struct SimulatorConfig {
  /// Past 2^53 a double clock no longer advances by a unit tick.
  static constexpr Time kMaxEndTime = 0x1p53;
  /// The horizon rule the constructor enforces (the scenario parser
  /// applies it too): finite, > 0 and at most kMaxEndTime.
  static constexpr bool valid_end_time(Time t) noexcept {
    return t > 0 && t <= kMaxEndTime;
  }
  /// Simulation horizon: finite, > 0 and at most kMaxEndTime.
  Time end_time = 1000.0;
  std::uint64_t seed = 1;
  /// Safety valve against run-away models.
  std::uint64_t max_events = 500'000'000;
  /// Max instantaneous completions at one instant before the simulator
  /// declares the model ill-formed (zero-time livelock).
  std::uint32_t max_instantaneous_chain = 1'000'000;
  /// Use the footprint-driven enabling index (identical trajectories to
  /// the full scan as long as declared footprints are complete; the flag
  /// exists for benchmarking and for distrusting annotations).
  bool incremental_enabling = true;
  /// Wall-clock profiling of the settle / fire phases into profile()
  /// (stats::PhaseProfile). Off by default: a disabled profile never
  /// reads the clock. Timings are nondeterministic by nature and are
  /// surfaced via the metrics registry, never the trace stream.
  bool profile = false;
  /// Footprint sanitizer (san/sanitizer.hpp): verify every gate's place
  /// accesses against its declared footprint and re-check statically
  /// proven invariants/bounds after each firing. Sanitized runs keep the
  /// arena and the enabling index but evaluate and fire through
  /// Activity::enabled / Activity::fire, so every access goes through
  /// Place<T>::get/mut/set. Observation-only — the trajectory stays
  /// bit-identical — but each place access costs a check, so off by
  /// default; when off the only residue is one thread-local null test
  /// per closure access. Inspect results through footprint_report().
  bool verify_footprints = false;
  /// Has a single value and is not read (see Engine).
  Engine engine = Engine::kCompiled;
};

struct RunStats {
  Time end_time = 0.0;        ///< time the run stopped at
  std::uint64_t events = 0;   ///< total activity completions
  bool hit_event_cap = false; ///< stopped by max_events, not end_time
  /// Enabling re-evaluations performed by settle() (predicate checks of
  /// timed and instantaneous activities). With incremental enabling this
  /// is the direct measure of how much rescan work the declared (and
  /// dynamic) footprints avoid: a full scan costs one eval per activity
  /// per settle round.
  std::uint64_t enabling_evals = 0;
  /// Stale events popped and discarded (their activity was aborted after
  /// the event was queued): the lazy-cancellation overhead of the event
  /// queue, and the direct measure of scheduler-induced churn.
  std::uint64_t aborted_events = 0;
};

class Simulator {
 public:
  explicit Simulator(SimulatorConfig config);

  /// Register the model to execute. Builds the enabling-dependency index
  /// from the model's declared gate footprints. The model's marking is
  /// reset at the start of run(). Must be called before run(); calling
  /// it again swaps the model and rebuilds the index (the next run()
  /// or reset() starts from the new model's initial marking).
  void set_model(ComposedModel& model);

  /// Register a reward variable (reset at the start of run()). Its
  /// impulses are indexed by activity here, so they are fixed from now
  /// on: a later RewardVariable::add_impulse throws.
  void add_reward(RewardVariable& reward);

  /// Drop every registered reward variable (metric bindings are rebuilt
  /// from scratch when a pooled system is rebound to a new run).
  void clear_rewards() noexcept {
    rewards_.clear();
    impulse_begin_.clear();
    impulse_refs_.clear();
  }

  /// Attach (or with nullptr detach) the structured trace sink. With no
  /// sink attached every emission site costs one null-pointer test —
  /// the steady state stays allocation-free. With a sink attached the
  /// simulator emits, per completion: any gate-emitted events (e.g.
  /// scheduler decisions), the kFire event, then kMarking events for
  /// the fired activity's declared write set; kEnabling events are
  /// emitted whenever a timed activity is activated or aborted. The
  /// stream is a pure function of the trajectory (see san/trace.hpp).
  void set_trace(TraceSink* sink) noexcept { trace_ = sink; }
  TraceSink* trace() const noexcept { return trace_; }

  /// Execute one replication from the initial marking to end_time.
  /// Throws std::logic_error if no model was set or an instantaneous
  /// livelock is detected. Equivalent to reset() + advance_until(end).
  RunStats run();

  // --- Incremental execution (stepping) -----------------------------
  /// Restore the initial marking, clear rewards and pending events, and
  /// perform the time-zero activations. Must be called before the first
  /// advance_until().
  void reset();

  /// reset() with a fresh RNG stream: re-seeds the generator before the
  /// time-zero activations so a reused simulator replays exactly the
  /// replication a fresh Simulator{config with .seed = seed} would run.
  /// With `antithetic` set every variate draw of the replication is
  /// mirrored (stats::Rng::set_antithetic) — the antithetic partner of
  /// the un-mirrored run on the same seed.
  void reset(std::uint64_t seed, bool antithetic = false);

  /// Process events up to and including time `t` (capped at the
  /// configured end_time) and accrue rewards to min(t, end_time).
  /// Returns cumulative statistics since reset().
  RunStats advance_until(Time t);

  Time now() const noexcept { return now_; }
  stats::Rng& rng() noexcept { return rng_; }

  /// Accumulated phase timings (empty unless config.profile).
  const stats::PhaseProfile& profile() const noexcept { return profile_; }

  /// Compile-time census of the lowered model (all-zero before
  /// set_model()).
  KernelStats kernel_stats() const noexcept {
    return compiled_ != nullptr ? compiled_->stats() : KernelStats{};
  }

  /// Model-compilation timing (profile.compile). Kept apart from
  /// profile() because reset() clears that one per replication while
  /// compilation happens once per set_model().
  const stats::PhaseProfile& compile_profile() const noexcept {
    return compile_profile_;
  }

  /// Drain compile_profile() — the runner merges it into the run total
  /// exactly once even though the simulator resets many times.
  stats::PhaseProfile take_compile_profile() {
    stats::PhaseProfile out = compile_profile_;
    compile_profile_.reset();
    return out;
  }

  /// Sanitizer results (config.verify_footprints): finalizes the
  /// end-of-run advisories and returns the report, or nullptr when the
  /// sanitizer is off. Violations accumulate until the next reset().
  const FootprintReport* footprint_report();

  /// The static invariant analysis backing the sanitizer's structural
  /// checks; nullptr when verify_footprints is off or reset() has not
  /// yet built it.
  const analyze::InvariantAnalysis* invariant_analysis() const noexcept {
    return sanitizer_ != nullptr ? &sanitizer_->analysis() : nullptr;
  }

  /// One pending timed completion. 32 bytes: the activity is reached
  /// through timed_index, so a calendar slot packs two events per cache
  /// line.
  struct Event {
    Time time;
    std::uint64_t seq;  // FIFO tie-break
    std::uint64_t activation;
    int priority;               // higher fires first at equal time
    std::uint32_t timed_index;  // into activities_
  };
  static_assert(std::is_trivially_copyable_v<Event>,
                "Event must stay a trivially copyable POD: calendar slots "
                "are flat vectors churned in the hot loop");
  /// Fire order as a priority-queue comparator: `a` fires after `b`.
  /// A strict total order (seq is unique), so the next event is
  /// unambiguous whatever the queue structure.
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      if (a.priority != b.priority) return a.priority < b.priority;
      return a.seq > b.seq;
    }
  };

 private:
  /// Event calendar: a ring of kCalendarSlots unit-width time buckets.
  /// The virtualization models are clock-driven (unit Clock activities,
  /// integer load durations), so a bucket is exactly one tick's worth of
  /// events: pops are a cursor bump and the bulk push pattern — same
  /// time, same priority, ascending seq — lands at the slot tail as an
  /// O(1) append. Events beyond the ring window park in an overflow list
  /// and are folded in as the window advances.
  ///
  /// Pop order is exactly EventOrder's: the time is its primary key, so
  /// every event of bucket b fires before any event of bucket b+1, and
  /// within a slot events are kept sorted ascending by fire order (seq
  /// uniqueness makes the order total).
  static constexpr std::size_t kCalendarSlots = 128;  // power of two
  struct CalSlot {
    std::vector<Event> events;  ///< ascending fire order from `head`
    std::uint32_t head = 0;     ///< events[head] = next to fire
  };
  /// Bucket of a fire time (unit width). Times too large for uint64
  /// collapse into one far-future bucket; order within it still holds.
  static std::uint64_t cal_bucket(Time t) noexcept {
    constexpr double kMax = 9.0e18;  // < 2^63, safely representable
    return t < kMax ? static_cast<std::uint64_t>(t)
                    : static_cast<std::uint64_t>(kMax);
  }
  /// True when `a` fires strictly before `b`.
  static bool fires_before(const Event& a, const Event& b) noexcept {
    return EventOrder{}(b, a);
  }
  void cal_slot_insert(const Event& ev) {
    CalSlot& slot = cal_slots_[cal_bucket(ev.time) & (kCalendarSlots - 1)];
    if (slot.events.empty() || fires_before(slot.events.back(), ev)) {
      slot.events.push_back(ev);  // bulk FIFO fast path
      return;
    }
    const auto pos =
        std::upper_bound(slot.events.begin() + slot.head, slot.events.end(),
                         ev, &Simulator::fires_before);
    slot.events.insert(pos, ev);
  }
  void cal_push(const Event& ev) {
    const std::uint64_t b = cal_bucket(ev.time);
    if (b - cal_base_ < kCalendarSlots) {  // b >= cal_base_ always holds
      cal_slot_insert(ev);
    } else {
      if (b < cal_overflow_min_) cal_overflow_min_ = b;
      cal_overflow_.push_back(ev);
    }
    ++cal_size_;
  }
  /// Move every overflow event whose bucket entered the ring window into
  /// its slot; recompute the overflow minimum.
  void cal_drain_overflow() {
    std::uint64_t new_min = ~std::uint64_t{0};
    std::size_t keep = 0;
    for (const Event& ev : cal_overflow_) {
      const std::uint64_t b = cal_bucket(ev.time);
      if (b - cal_base_ < kCalendarSlots) {
        cal_slot_insert(ev);
      } else {
        if (b < new_min) new_min = b;
        cal_overflow_[keep++] = ev;
      }
    }
    cal_overflow_.resize(keep);
    cal_overflow_min_ = new_min;
  }
  /// Next event to fire; advances past drained slots. Only called when
  /// the calendar is non-empty.
  const Event& cal_peek() {
    for (;;) {
      CalSlot& slot = cal_slots_[cal_base_ & (kCalendarSlots - 1)];
      if (slot.head < slot.events.size()) return slot.events[slot.head];
      if (!slot.events.empty()) {
        slot.events.clear();  // fully drained tick: recycle the buffer
        slot.head = 0;
      }
      ++cal_base_;
      if (cal_overflow_min_ < cal_base_ + kCalendarSlots) {
        cal_drain_overflow();
      } else if (cal_size_ == cal_overflow_.size()) {
        // Ring empty: jump the window straight to the earliest parked
        // event instead of walking every empty bucket in between.
        cal_base_ = cal_overflow_min_;
        cal_drain_overflow();
      }
    }
  }
  void cal_pop() {
    ++cal_slots_[cal_base_ & (kCalendarSlots - 1)].head;
    --cal_size_;
  }
  void cal_clear() {
    cal_slots_.resize(kCalendarSlots);
    for (CalSlot& slot : cal_slots_) {
      slot.events.clear();
      slot.head = 0;
    }
    cal_overflow_.clear();
    cal_overflow_min_ = ~std::uint64_t{0};
    cal_size_ = 0;
    cal_base_ = 0;
  }

  /// Dense per-timed-activity scheduling state: the fields the event
  /// loop touches per transition, packed so the whole table stays
  /// L1-resident. `delay` is the activity's distribution, reached
  /// without the sample_delay indirection.
  struct TimedHot {
    std::uint64_t activation = 0;
    const stats::Distribution* delay = nullptr;
    /// Distribution::rng_free_constant(): the delay without the virtual
    /// sample call when non-negative (the unit Clocks), else sentinel.
    double det_delay = -1.0;
    std::int32_t priority = 0;
    std::uint8_t scheduled = 0;
  };
  /// One non-zero word of a dependent bitmask. A dependent set is stored
  /// as its runs only, so marking it costs its non-zero words, not the
  /// model's activity count.
  struct MaskRun {
    std::uint64_t bits;
    std::uint32_t word;
  };
  /// The dependents of a fired activity or a touched place, as runs in
  /// dep_runs_: [begin, split) mark timed activities, [split, end)
  /// instantaneous ones. A fired activity's record also carries the two
  /// write-set flags mark_fired branches on, so one 16-byte load serves
  /// the whole marking.
  struct DepSpan {
    std::uint32_t begin = 0;
    std::uint32_t split = 0;
    std::uint32_t end = 0;
    std::uint8_t writes_declared = 1;
    std::uint8_t dynamic = 0;
  };
  /// Bitset plus a summary word with one bit per non-zero word. Marking
  /// and draining visit only non-zero words, still in ascending order,
  /// so a scan reports exactly the bits (and the order) a dense scan
  /// over every word would.
  class SummaryBits {
   public:
    static constexpr std::uint32_t kNone = 0xffff'ffffu;

    void assign(std::size_t bit_count) {
      words_.assign((bit_count + 63) / 64, 0);
      summary_.assign((words_.size() + 63) / 64, 0);
    }
    void clear() {
      std::fill(words_.begin(), words_.end(), 0);
      std::fill(summary_.begin(), summary_.end(), 0);
    }
    void set(std::uint32_t i) {
      words_[i >> 6] |= std::uint64_t{1} << (i & 63);
      summary_[i >> 12] |= std::uint64_t{1} << ((i >> 6) & 63);
    }
    void reset(std::uint32_t i) {
      const std::uint32_t w = i >> 6;
      words_[w] &= ~(std::uint64_t{1} << (i & 63));
      if (words_[w] == 0) summary_[w >> 6] &= ~(std::uint64_t{1} << (w & 63));
    }
    /// OR the runs [first, last) in.
    void mark(const MaskRun* first, const MaskRun* last) {
      for (; first != last; ++first) {
        words_[first->word] |= first->bits;
        summary_[first->word >> 6] |= std::uint64_t{1} << (first->word & 63);
      }
    }
    /// Lowest set bit, or kNone.
    std::uint32_t first() const {
      for (std::size_t s = 0; s < summary_.size(); ++s) {
        if (summary_[s] == 0) continue;
        const std::size_t w =
            s * 64 + static_cast<std::size_t>(std::countr_zero(summary_[s]));
        return static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(words_[w])));
      }
      return kNone;
    }
    /// Call visit(i) for every set bit in ascending order, clearing the
    /// set as it goes; returns the number of bits visited. visit must not
    /// mark this set.
    template <class Visit>
    std::uint64_t drain(Visit&& visit) {
      std::uint64_t count = 0;
      for (std::size_t s = 0; s < summary_.size(); ++s) {
        std::uint64_t live = summary_[s];
        summary_[s] = 0;
        while (live != 0) {
          const std::size_t w =
              s * 64 + static_cast<std::size_t>(std::countr_zero(live));
          live &= live - 1;
          std::uint64_t bits = words_[w];
          words_[w] = 0;
          const auto base = static_cast<std::uint32_t>(w * 64);
          while (bits != 0) {
            visit(base + static_cast<std::uint32_t>(std::countr_zero(bits)));
            bits &= bits - 1;
            ++count;
          }
        }
      }
      return count;
    }

   private:
    std::vector<std::uint64_t> words_;
    std::vector<std::uint64_t> summary_;  ///< bit w: words_[w] != 0
  };
  /// One impulse of a registered reward, filed under its activity.
  struct ImpulseRef {
    RewardVariable* reward;
    std::uint32_t impulse;  ///< index into reward->impulses()
  };

  /// Build the footprint-driven enabling index: the touch lookup, the
  /// opaque-read lists, and the sparse dependent runs of every activity
  /// and place.
  void build_enabling_index();
  /// Enabling checks. Sanitized runs go through Activity::enabled inside
  /// the sanitizer's predicate scope; otherwise the compiled kernel
  /// evaluates straight off the arena.
  bool sanitized_enabled(const Activity& a);
  bool eval_timed(std::uint32_t timed_index) {
    if (sanitizer_ != nullptr) {
      return sanitized_enabled(*activities_[timed_index]);
    }
    return compiled_->enabled(*timed_compiled_[timed_index]);
  }
  bool eval_inst(std::uint32_t inst_index) {
    if (sanitizer_ != nullptr) {
      return sanitized_enabled(*instantaneous_[inst_index]);
    }
    return compiled_->enabled(*inst_compiled_[inst_index]);
  }
  /// Update one cached instantaneous-enabling flag and its bit in the
  /// priority-ordered enabled set.
  void set_inst_enabled(std::uint32_t inst_index, bool enabled) {
    const std::uint8_t v = enabled ? 1 : 0;
    if (inst_enabled_[inst_index] == v) return;
    inst_enabled_[inst_index] = v;
    const std::uint32_t pos = inst_prio_pos_[inst_index];
    if (enabled) {
      inst_enabled_bits_.set(pos);
    } else {
      inst_enabled_bits_.reset(pos);
    }
  }
  /// Declared-write lists for kMarking trace events (per activity, from
  /// the static gate footprints — mode-independent, so traces match
  /// across incremental on/off). Built on the first reset() with a
  /// marking-interested sink attached.
  void build_trace_write_lists();
  void advance_time(Time to);
  void complete(Activity& activity, bool timed, std::uint32_t index);
  /// (Re)activate / abort timed activities after a marking change and
  /// fire any enabled instantaneous activities (in priority order) until
  /// quiescent.
  void settle();
  void schedule(std::uint32_t timed_index);
  /// Re-evaluate one timed activity's enabling (activate / abort).
  void transition_timed(std::uint32_t timed_index);
  /// Record the marking changes of a completed activity in the dirty set.
  void mark_fired(bool timed, std::uint32_t index);
  void mark_span(const DepSpan& span) {
    const MaskRun* runs = dep_runs_.data();
    timed_dirty_.mark(runs + span.begin, runs + span.split);
    inst_dirty_.mark(runs + span.split, runs + span.end);
  }
  /// File every registered impulse under its activity (rebuilt when the
  /// model or the reward set changes, never per replication).
  void build_impulse_index();

  SimulatorConfig config_;
  ComposedModel* model_ = nullptr;
  std::vector<Activity*> activities_;
  std::vector<Activity*> instantaneous_;
  std::vector<RewardVariable*> rewards_;
  TraceSink* trace_ = nullptr;
  stats::PhaseProfile profile_;
  stats::PhaseProfile compile_profile_;

  // --- compiled kernel -------------------------------------------------
  std::unique_ptr<CompiledModel> compiled_;
  /// Compiled programs parallel to activities_ / instantaneous_.
  std::vector<const CompiledModel::CompiledActivity*> timed_compiled_;
  std::vector<const CompiledModel::CompiledActivity*> inst_compiled_;
  std::vector<TimedHot> timed_hot_;  ///< parallel to activities_
  /// Dense compiled place id -> enabling-index place id (kNoPlaceId for
  /// places no gate reads); replaces the hash probe on touch() reports.
  static constexpr std::uint32_t kNoPlaceId = 0xffff'ffffu;
  std::vector<std::uint32_t> touch_lookup_;
  /// Sparse dirty tracking (incremental enabling): one bit per activity.
  /// Firing ORs the activity's precompiled dependent runs into the dirty
  /// sets, and the settle loop drains the set bits in ascending order —
  /// the order a full scan visits them, so the RNG draws of activations
  /// happen in the same sequence either way.
  SummaryBits timed_dirty_;  ///< drained every settle round
  SummaryBits inst_dirty_;
  std::vector<MaskRun> dep_runs_;
  std::vector<DepSpan> fired_deps_;   ///< timed idx, then #timed + inst idx
  std::vector<DepSpan> place_spans_;  ///< enabling-index place id
  std::vector<MaskRun> always_timed_runs_;  ///< opaque-read activities
  /// Impulse index: the refs of activity slot k (timed index, then
  /// #timed + instantaneous index) are impulse_refs_[impulse_begin_[k],
  /// impulse_begin_[k + 1]), in reward registration order. Empty when
  /// no registered reward has an impulse on this model.
  std::vector<std::uint32_t> impulse_begin_;
  std::vector<ImpulseRef> impulse_refs_;
  /// Reusable render buffer for kMarking trace events (satellite of the
  /// no-allocation tracing guarantee; see tests/perf).
  std::string value_buf_;
  /// Built lazily on the first reset() with verify_footprints set (the
  /// invariant analysis needs the initial marking); installed as the
  /// thread-local place-access listener for the duration of each
  /// reset()/advance_until() call.
  std::unique_ptr<FootprintSanitizer> sanitizer_;
  bool trace_writes_built_ = false;
  std::vector<std::vector<const PlaceBase*>> timed_trace_writes_;
  std::vector<std::vector<const PlaceBase*>> inst_trace_writes_;
  // Bucketed event calendar (see cal_* above).
  std::vector<CalSlot> cal_slots_;
  std::vector<Event> cal_overflow_;
  std::size_t cal_size_ = 0;
  std::uint64_t cal_base_ = 0;  ///< bucket index of the current slot
  std::uint64_t cal_overflow_min_ = ~std::uint64_t{0};
  stats::Rng rng_;
  Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
  std::uint64_t aborted_events_ = 0;
  std::uint64_t enabling_evals_ = 0;
  bool started_ = false;
  bool hit_event_cap_ = false;

  // --- footprint-driven enabling index (built by set_model) ----------
  bool use_incremental_ = false;
  /// Enabling-index place id of every place a gate footprint names; the
  /// fallback for touch() reports on places without a compiled id.
  std::unordered_map<const PlaceBase*, std::uint32_t> place_ids_;
  std::vector<const PlaceBase*> touched_;  // per-firing touch collector
  /// Instantaneous activities with an undeclared read footprint:
  /// re-evaluated on every settle round.
  std::vector<std::uint32_t> always_inst_;

  // --- per-round dirty state -----------------------------------------
  /// Re-evaluate everything next round. Stays set in full-scan mode
  /// (incremental_enabling off).
  bool dirty_all_ = true;
  std::vector<std::uint8_t> inst_enabled_;  // cached enabling flags
  /// The enabled flags again, as a bitmask over priority-ordered
  /// positions ((priority desc, index asc)), so the lowest set position
  /// is exactly the selection winner.
  SummaryBits inst_enabled_bits_;
  std::vector<std::uint32_t> inst_prio_order_;  // position -> inst index
  std::vector<std::uint32_t> inst_prio_pos_;    // inst index -> position
};

/// Convenience: reset `model`, run it once with `config`, return stats.
RunStats run_once(ComposedModel& model, const SimulatorConfig& config,
                  std::vector<RewardVariable*> rewards = {});

}  // namespace vcpusim::san
