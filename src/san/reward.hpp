// SAN reward variables (Sanders & Meyer, "A unified approach for
// specifying measures of performance, dependability, and performability").
//
// A reward variable has a *rate* component — a function of the marking
// integrated over time — and optional *impulse* components — amounts
// earned when a specific activity completes. The paper's three metrics
// (VCPU Availability, PCPU Utilization, VCPU Utilization) are pure rate
// rewards, time-averaged over the measurement interval.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "san/activity.hpp"

namespace vcpusim::san {

class RewardVariable {
 public:
  /// `rate_fn` is evaluated against the current marking; its value is the
  /// reward accrual rate while that marking holds. Accrual starts at
  /// `start_time` (warm-up truncation).
  RewardVariable(std::string name, std::function<double()> rate_fn,
                 Time start_time = 0.0);

  /// Pure-impulse reward variable (no rate component).
  static RewardVariable impulse_only(std::string name, Time start_time = 0.0);

  const std::string& name() const noexcept { return name_; }
  Time start_time() const noexcept { return start_time_; }

  /// Earn `impulse_fn()` whenever `activity` completes (after start_time).
  /// Impulses are fixed once the reward is registered with a simulator
  /// (Simulator::add_reward indexes them by activity); adding one after
  /// that throws std::logic_error.
  void add_impulse(const Activity* activity, std::function<double()> impulse_fn);

  struct Impulse {
    const Activity* activity;
    std::function<double()> fn;
  };
  /// Registered impulses, in add_impulse order.
  const std::vector<Impulse>& impulses() const noexcept { return impulses_; }

  /// Total reward accumulated so far.
  double accumulated() const noexcept { return accumulated_; }

  /// Accumulated reward divided by the measured interval length
  /// (end - start_time); the "interval-of-time, time-averaged" estimator.
  double time_averaged(Time end_time) const;

  /// Number of impulse events counted (useful for throughput metrics).
  std::size_t impulse_count() const noexcept { return impulse_events_; }

  /// Run `hook` on every reset(). Impulse closures may carry hidden
  /// state of their own (e.g. a last-seen counter for delta rewards);
  /// hooks restore that state so a reused reward variable observes
  /// exactly what a freshly constructed one would.
  void add_reset_hook(std::function<void()> hook) {
    reset_hooks_.push_back(std::move(hook));
  }

  void reset() {
    accumulated_ = 0.0;
    impulse_events_ = 0;
    for (const auto& hook : reset_hooks_) hook();
  }

  // --- Simulator hooks ----------------------------------------------
  /// Accrue rate reward for the dwell interval [from, to) in the current
  /// (pre-event) marking.
  void on_advance(Time from, Time to);
  /// Accrue impulse `i` for a completion of its activity at time `now`.
  /// The impulse function is evaluated even before start_time so that
  /// stateful (delta-style) impulse functions observe every completion;
  /// only the reward earned after start_time accrues.
  void on_impulse(std::size_t i, Time now) {
    const double value = impulses_[i].fn();
    if (now >= start_time_) {
      accumulated_ += value;
      ++impulse_events_;
    }
  }

 private:
  friend class Simulator;  // seals the impulses on add_reward

  explicit RewardVariable(std::string name, Time start_time);

  std::string name_;
  std::function<double()> rate_fn_;  // may be null (impulse-only)
  Time start_time_;
  double accumulated_ = 0.0;
  std::size_t impulse_events_ = 0;
  bool impulses_sealed_ = false;
  std::vector<Impulse> impulses_;
  std::vector<std::function<void()>> reset_hooks_;
};

}  // namespace vcpusim::san
