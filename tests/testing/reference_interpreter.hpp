// Reference interpreter of the SAN execution rules: the oracle the
// compiled kernel (san::Simulator) is checked against.
//
// Deliberately naive. It runs the model through its closures only
// (Activity::enabled / fire / sample_delay and the public RewardVariable
// hooks), keeps pending completions in a std::priority_queue under the
// kernel's EventOrder, and re-evaluates every activity's enabling on
// every settle round. No enabling index, no arena, no bitsets, no event
// calendar: each rule of san/simulator.hpp is written out once, in the
// plainest form, so a disagreement points at the kernel's machinery.
//
// Comparable outputs, bit for bit: the kFire stream (time, activity,
// case) and gate-emitted events, the kEnabling transitions, the events
// and aborted_events counts, every reward value and the final marking.
// enabling_evals is not comparable: a full scan every round is the
// interpreter's whole point. kMarking events are not emitted.
//
// Header-only so both the test binaries and the perf_kernel benchmark
// (BM_SchedulerTickReference) can run it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "san/model.hpp"
#include "san/reward.hpp"
#include "san/simulator.hpp"
#include "san/trace.hpp"
#include "stats/rng.hpp"

namespace vcpusim::testing {

class ReferenceInterpreter {
 public:
  explicit ReferenceInterpreter(san::SimulatorConfig config)
      : config_(config), rng_(config.seed) {}

  /// Takes the model's timed and instantaneous activities in
  /// ComposedModel::all_activities() order, as the kernel does.
  void set_model(san::ComposedModel& model) {
    model_ = &model;
    timed_.clear();
    inst_.clear();
    for (san::Activity* a : model.all_activities()) {
      (a->is_instantaneous() ? inst_ : timed_).push_back(a);
    }
  }
  void add_reward(san::RewardVariable& reward) { rewards_.push_back(&reward); }
  void clear_rewards() { rewards_.clear(); }
  void set_trace(san::TraceSink* sink) { trace_ = sink; }

  san::RunStats run() {
    reset(config_.seed);
    return advance_until(config_.end_time);
  }

  /// Initial marking, fresh RNG stream on `seed`, time-zero activations.
  void reset(std::uint64_t seed) {
    model_->reset_marking();
    rng_ = stats::Rng(seed);
    for (san::RewardVariable* r : rewards_) r->reset();
    queue_ = Queue{};
    activation_.assign(timed_.size(), 0);
    scheduled_.assign(timed_.size(), false);
    now_ = 0.0;
    seq_ = 0;
    stats_ = san::RunStats{};
    settle();
  }

  /// Fire every completion up to `t` (capped at end_time), then accrue
  /// rewards up to it.
  san::RunStats advance_until(san::Time t) {
    const san::Time horizon = std::min(t, config_.end_time);
    while (!queue_.empty() && !stats_.hit_event_cap) {
      if (stats_.events >= config_.max_events) {
        stats_.hit_event_cap = true;
        break;
      }
      const Event ev = queue_.top();
      if (ev.time > horizon) break;
      queue_.pop();
      if (ev.activation != activation_[ev.timed_index]) {
        ++stats_.aborted_events;  // the activation was aborted meanwhile
        continue;
      }
      advance_time(ev.time);
      ++activation_[ev.timed_index];  // consume this activation
      scheduled_[ev.timed_index] = false;
      fire(*timed_[ev.timed_index]);
      settle();
    }
    advance_time(horizon);
    stats_.end_time = now_;
    return stats_;
  }

 private:
  using Event = san::Simulator::Event;
  using Queue = std::priority_queue<Event, std::vector<Event>,
                                    san::Simulator::EventOrder>;

  void advance_time(san::Time to) {
    if (to <= now_) return;
    for (san::RewardVariable* r : rewards_) r->on_advance(now_, to);
    now_ = to;
  }

  /// Re-evaluate every timed activity (ascending index: activations draw
  /// their delays in this order), then fire the enabled instantaneous
  /// activity of highest priority, lowest index on ties; repeat until
  /// none is enabled.
  void settle() {
    for (std::uint32_t chain = 0;; ++chain) {
      for (std::uint32_t t = 0; t < timed_.size(); ++t) transition(t);
      san::Activity* next = nullptr;
      for (san::Activity* a : inst_) {
        if (a->enabled() && (next == nullptr || a->priority() > next->priority())) {
          next = a;
        }
      }
      stats_.enabling_evals += timed_.size() + inst_.size();
      if (next == nullptr) return;
      if (chain >= config_.max_instantaneous_chain) {
        throw std::logic_error("reference: instantaneous livelock at " +
                               next->name());
      }
      fire(*next);
    }
  }

  /// Activate a newly enabled timed activity or abort a disabled one.
  void transition(std::uint32_t t) {
    const bool enabled = timed_[t]->enabled();
    if (enabled == scheduled_[t]) return;
    if (enabled) {
      const san::Time delay = timed_[t]->sample_delay(rng_);
      if (delay < 0) {
        throw std::logic_error("reference: negative delay for " +
                               timed_[t]->name());
      }
      queue_.push(Event{now_ + delay, seq_++, activation_[t],
                        timed_[t]->priority(), t});
    } else {
      ++activation_[t];  // the queued event goes stale
    }
    scheduled_[t] = enabled;
    if (trace_ != nullptr && trace_->wants(san::TraceCategory::kEnabling)) {
      trace_->on_event(san::TraceEvent{san::TraceCategory::kEnabling, now_,
                                       stats_.events, timed_[t]->name(),
                                       enabled ? 1 : 0, 0, {}});
    }
  }

  /// Complete `a`: its gates and case draw, then its impulses (reward
  /// registration order, then add_impulse order), then the kFire event.
  void fire(san::Activity& a) {
    const std::uint64_t seq = stats_.events++;
    san::GateContext ctx{rng_, now_};
    ctx.trace = trace_;
    ctx.seq = seq;
    const std::size_t chosen = a.fire(ctx);
    for (san::RewardVariable* r : rewards_) {
      for (std::size_t i = 0; i < r->impulses().size(); ++i) {
        if (r->impulses()[i].activity == &a) r->on_impulse(i, now_);
      }
    }
    if (trace_ != nullptr && trace_->wants(san::TraceCategory::kFire)) {
      trace_->on_event(san::TraceEvent{san::TraceCategory::kFire, now_, seq,
                                       a.name(),
                                       static_cast<std::int64_t>(chosen), 0,
                                       {}});
    }
  }

  san::SimulatorConfig config_;
  san::ComposedModel* model_ = nullptr;
  std::vector<san::Activity*> timed_;
  std::vector<san::Activity*> inst_;
  std::vector<san::RewardVariable*> rewards_;
  san::TraceSink* trace_ = nullptr;
  stats::Rng rng_;
  Queue queue_;
  std::vector<std::uint64_t> activation_;  ///< per timed activity
  std::vector<bool> scheduled_;
  san::Time now_ = 0.0;
  std::uint64_t seq_ = 0;
  san::RunStats stats_;
};

}  // namespace vcpusim::testing
