#include "san/reward.hpp"

#include <algorithm>
#include <stdexcept>

namespace vcpusim::san {

RewardVariable::RewardVariable(std::string name, std::function<double()> rate_fn,
                               Time start_time)
    : name_(std::move(name)), rate_fn_(std::move(rate_fn)),
      start_time_(start_time) {
  if (!rate_fn_) {
    throw std::invalid_argument("RewardVariable '" + name_ +
                                "': null rate function");
  }
}

RewardVariable::RewardVariable(std::string name, Time start_time)
    : name_(std::move(name)), rate_fn_(nullptr), start_time_(start_time) {}

RewardVariable RewardVariable::impulse_only(std::string name, Time start_time) {
  return RewardVariable(std::move(name), start_time);
}

void RewardVariable::add_impulse(const Activity* activity,
                                 std::function<double()> impulse_fn) {
  if (activity == nullptr || !impulse_fn) {
    throw std::invalid_argument("RewardVariable '" + name_ +
                                "': null impulse activity or function");
  }
  if (impulses_sealed_) {
    throw std::logic_error("RewardVariable '" + name_ +
                           "': add_impulse after the reward was registered "
                           "with a simulator");
  }
  impulses_.push_back(Impulse{activity, std::move(impulse_fn)});
}

double RewardVariable::time_averaged(Time end_time) const {
  const Time span = end_time - start_time_;
  if (!(span > 0)) return 0.0;
  return accumulated_ / span;
}

void RewardVariable::on_advance(Time from, Time to) {
  if (!rate_fn_) return;
  const Time lo = std::max(from, start_time_);
  if (to <= lo) return;
  accumulated_ += rate_fn_() * (to - lo);
}

}  // namespace vcpusim::san
