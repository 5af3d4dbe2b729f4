#include "vm/metrics.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace vcpusim::vm {

namespace {

std::shared_ptr<SlotPlace> slot_of(const VirtualSystem& system, int vcpu_id) {
  return system.vcpus.at(static_cast<std::size_t>(vcpu_id)).slot;
}

std::vector<std::shared_ptr<SlotPlace>> all_slots(const VirtualSystem& system) {
  std::vector<std::shared_ptr<SlotPlace>> slots;
  slots.reserve(system.vcpus.size());
  for (const auto& b : system.vcpus) slots.push_back(b.slot);
  return slots;
}

}  // namespace

std::unique_ptr<san::RewardVariable> vcpu_availability(
    const VirtualSystem& system, int vcpu_id, san::Time warmup) {
  auto slot = slot_of(system, vcpu_id);
  return std::make_unique<san::RewardVariable>(
      "vcpu_availability[" + std::to_string(vcpu_id) + "]",
      [slot]() { return is_active(slot->get().status) ? 1.0 : 0.0; }, warmup);
}

std::unique_ptr<san::RewardVariable> mean_vcpu_availability(
    const VirtualSystem& system, san::Time warmup) {
  auto slots = all_slots(system);
  return std::make_unique<san::RewardVariable>(
      "mean_vcpu_availability",
      [slots]() {
        double active = 0;
        for (const auto& s : slots) {
          if (is_active(s->get().status)) active += 1.0;
        }
        return active / static_cast<double>(slots.size());
      },
      warmup);
}

std::unique_ptr<san::RewardVariable> pcpu_utilization(
    const VirtualSystem& system, san::Time warmup) {
  auto pcpus = system.scheduler_places.pcpus;
  return std::make_unique<san::RewardVariable>(
      "pcpu_utilization",
      [pcpus]() {
        const auto& array = pcpus->get();
        double assigned = 0;
        for (const auto& p : array) {
          if (p.assigned_vcpu >= 0) assigned += 1.0;
        }
        return assigned / static_cast<double>(array.size());
      },
      warmup);
}

std::unique_ptr<san::RewardVariable> vcpu_utilization(
    const VirtualSystem& system, int vcpu_id, san::Time warmup) {
  auto slot = slot_of(system, vcpu_id);
  return std::make_unique<san::RewardVariable>(
      "vcpu_utilization[" + std::to_string(vcpu_id) + "]",
      [slot]() {
        return slot->get().status == VcpuStatus::kBusy ? 1.0 : 0.0;
      },
      warmup);
}

std::unique_ptr<san::RewardVariable> mean_vcpu_utilization(
    const VirtualSystem& system, san::Time warmup) {
  auto slots = all_slots(system);
  return std::make_unique<san::RewardVariable>(
      "mean_vcpu_utilization",
      [slots]() {
        double busy = 0;
        for (const auto& s : slots) {
          if (s->get().status == VcpuStatus::kBusy) busy += 1.0;
        }
        return busy / static_cast<double>(slots.size());
      },
      warmup);
}

std::unique_ptr<san::RewardVariable> vm_blocked_fraction(
    const VirtualSystem& system, int vm_id, san::Time warmup) {
  auto blocked = system.vms.at(static_cast<std::size_t>(vm_id)).places.blocked;
  return std::make_unique<san::RewardVariable>(
      "vm_blocked_fraction[" + std::to_string(vm_id) + "]",
      [blocked]() { return blocked->get() != 0 ? 1.0 : 0.0; }, warmup);
}

std::unique_ptr<san::RewardVariable> mean_spin_fraction(
    const VirtualSystem& system, san::Time warmup) {
  auto slots = all_slots(system);
  return std::make_unique<san::RewardVariable>(
      "mean_spin_fraction",
      [slots]() {
        double spinning = 0;
        for (const auto& s : slots) {
          if (s->get().spinning && s->get().status == VcpuStatus::kBusy) {
            spinning += 1.0;
          }
        }
        return spinning / static_cast<double>(slots.size());
      },
      warmup);
}

std::unique_ptr<san::RewardVariable> mean_productive_fraction(
    const VirtualSystem& system, san::Time warmup) {
  auto slots = all_slots(system);
  return std::make_unique<san::RewardVariable>(
      "mean_productive_fraction",
      [slots]() {
        double productive = 0;
        for (const auto& s : slots) {
          if (s->get().status == VcpuStatus::kBusy && !s->get().spinning) {
            productive += 1.0;
          }
        }
        return productive / static_cast<double>(slots.size());
      },
      warmup);
}

std::int64_t spin_ticks(const VirtualSystem& system, int vm_id) {
  const auto& place =
      system.vms.at(static_cast<std::size_t>(vm_id)).places.spin_ticks;
  return place == nullptr ? 0 : place->get();
}

std::unique_ptr<san::RewardVariable> energy_rate(
    const VirtualSystem& system, san::Time warmup) {
  auto levels_place = system.scheduler_places.freq_levels;
  if (levels_place == nullptr) {
    // No DVFS dimension: every PCPU draws nominal power 1.0.
    const auto num_pcpus = static_cast<double>(system.config.num_pcpus);
    return std::make_unique<san::RewardVariable>(
        "energy", [num_pcpus]() { return num_pcpus; }, warmup);
  }
  // Precompute f·V² per level; the rate closure is then a table lookup.
  std::vector<double> power;
  for (const auto& level : system.scheduler_places.dvfs_levels) {
    power.push_back(level.frequency * level.voltage * level.voltage);
  }
  return std::make_unique<san::RewardVariable>(
      "energy",
      [levels_place, power]() {
        double total = 0.0;
        for (const int level : levels_place->get()) {
          total += power[static_cast<std::size_t>(level)];
        }
        return total;
      },
      warmup);
}

std::unique_ptr<san::RewardVariable> system_throughput(
    const VirtualSystem& system, san::Time warmup) {
  auto reward = std::make_unique<san::RewardVariable>(
      san::RewardVariable::impulse_only("system_throughput", warmup));
  // One delta tracker per VM: each VCPU Clock completion contributes the
  // jobs its VM finished since that VM's previous Clock completion (0 or
  // 1). Only a VM's own Clocks write its Completed_Jobs, so this equals
  // the delta of the system-wide total, at O(1) per completion.
  auto last_seen =
      std::make_shared<std::vector<std::int64_t>>(system.vms.size(), 0);
  for (std::size_t v = 0; v < system.vms.size(); ++v) {
    const auto& places = system.vms[v].places;
    const auto delta_fn = [counter = places.completed_jobs, last_seen, v]() {
      std::int64_t& seen = (*last_seen)[v];
      const std::int64_t total = counter->get();
      const double delta = static_cast<double>(total - seen);
      seen = total;
      return delta;
    };
    for (san::Activity* clock : places.clocks) {
      reward->add_impulse(clock, delta_fn);
    }
  }
  // The trackers are hidden state behind the reward's reset(): zero them
  // so a pooled system's rebound reward sees the first completion's
  // delta, not the previous replication's final counts.
  reward->add_reset_hook([last_seen]() {
    std::fill(last_seen->begin(), last_seen->end(), 0);
  });
  return reward;
}

std::int64_t completed_jobs(const VirtualSystem& system, int vm_id) {
  return system.vms.at(static_cast<std::size_t>(vm_id))
      .places.completed_jobs->get();
}

std::int64_t total_completed_jobs(const VirtualSystem& system) {
  std::int64_t total = 0;
  for (const auto& vm : system.vms) total += vm.places.completed_jobs->get();
  return total;
}

}  // namespace vcpusim::vm
