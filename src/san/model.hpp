// SAN models and composition.
//
// A SanModel is one atomic sub-model: it owns places and activities whose
// gate functions close over those places. Composition follows the Mobius
// Join operation: submodels share state by holding the same Place objects
// under (possibly different) local names. ComposedModel groups submodels,
// records the join relation (the paper's Tables 1 and 2 are dumps of this
// registry), and is the unit handed to the Simulator.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "san/activity.hpp"
#include "san/place.hpp"
#include "san/token_view.hpp"

namespace vcpusim::san {

class SanModel {
 public:
  explicit SanModel(std::string name) : name_(std::move(name)) {}

  SanModel(const SanModel&) = delete;
  SanModel& operator=(const SanModel&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Create and own a new place with the given initial marking.
  template <class T>
  std::shared_ptr<Place<T>> add_place(std::string place_name, T initial) {
    auto p = std::make_shared<Place<T>>(qualify(place_name), std::move(initial));
    places_.push_back(p);
    local_names_.push_back(std::move(place_name));
    return p;
  }

  /// Join an existing place into this model under a local name. The place
  /// is shared, not copied: both models see every marking change.
  void join_place(std::string local_name, PlacePtr place) {
    if (!place) throw std::invalid_argument("join_place: null place");
    places_.push_back(std::move(place));
    local_names_.push_back(std::move(local_name));
  }

  /// Create a timed activity owned by this model.
  Activity& add_timed_activity(std::string activity_name,
                               stats::DistributionPtr delay,
                               int priority = 0) {
    activities_.push_back(std::make_unique<Activity>(
        qualify(activity_name), std::move(delay), priority));
    return *activities_.back();
  }

  /// Create an instantaneous activity owned by this model.
  Activity& add_instantaneous_activity(std::string activity_name,
                                       int priority = 0) {
    activities_.push_back(std::make_unique<Activity>(
        Activity::make_instantaneous(qualify(activity_name), priority)));
    return *activities_.back();
  }

  const std::vector<PlacePtr>& places() const noexcept { return places_; }
  const std::vector<std::string>& local_place_names() const noexcept {
    return local_names_;
  }
  const std::vector<std::unique_ptr<Activity>>& activities() const noexcept {
    return activities_;
  }
  std::vector<std::unique_ptr<Activity>>& activities() noexcept {
    return activities_;
  }

  /// Find an owned-or-joined place by its local name; nullptr if absent.
  PlacePtr find_place(const std::string& local_name) const {
    for (std::size_t i = 0; i < local_names_.size(); ++i) {
      if (local_names_[i] == local_name) return places_[i];
    }
    return nullptr;
  }

  /// Restore the initial marking of every owned/joined place. Shared
  /// places are reset once per owner, which is idempotent.
  void reset_marking() {
    for (auto& p : places_) p->reset();
  }

 private:
  std::string qualify(const std::string& n) const { return name_ + "->" + n; }

  std::string name_;
  std::vector<PlacePtr> places_;
  std::vector<std::string> local_names_;  // parallel to places_
  std::vector<std::unique_ptr<Activity>> activities_;
};

/// One row of the join relation: a shared state variable and the
/// submodel-local names it joins (paper Tables 1 & 2 format).
struct JoinEntry {
  std::string shared_name;
  PlacePtr place;
  std::vector<std::string> member_names;  // "Submodel->LocalPlace"
};

class ComposedModel {
 public:
  explicit ComposedModel(std::string name) : name_(std::move(name)) {}

  ComposedModel(const ComposedModel&) = delete;
  ComposedModel& operator=(const ComposedModel&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Create and own a new submodel.
  SanModel& add_submodel(std::string submodel_name) {
    submodels_.push_back(std::make_unique<SanModel>(std::move(submodel_name)));
    return *submodels_.back();
  }

  /// Record a join: `place` is shared among submodels under the listed
  /// "Submodel->Local" member names. Purely declarative bookkeeping — the
  /// sharing itself is established with SanModel::join_place.
  void record_join(std::string shared_name, PlacePtr place,
                   std::vector<std::string> member_names) {
    join_registry_.push_back(
        JoinEntry{std::move(shared_name), std::move(place), std::move(member_names)});
  }

  /// Register a token projection of one place (san/token_view.hpp) for
  /// the structural analyses. One view per place; a TokenPlace without a
  /// view gets an implicit identity component.
  void record_token_view(TokenView view) {
    token_views_.push_back(std::move(view));
  }

  const std::vector<std::unique_ptr<SanModel>>& submodels() const noexcept {
    return submodels_;
  }
  const std::vector<JoinEntry>& join_registry() const noexcept {
    return join_registry_;
  }
  const std::vector<TokenView>& token_views() const noexcept {
    return token_views_;
  }

  SanModel* find_submodel(const std::string& submodel_name) const {
    for (const auto& m : submodels_) {
      if (m->name() == submodel_name) return m.get();
    }
    return nullptr;
  }

  /// All activities across all submodels (simulation universe).
  std::vector<Activity*> all_activities() const;

  /// Reset every submodel's marking and activations.
  void reset_marking() {
    for (auto& m : submodels_) m->reset_marking();
  }

  /// Render the join registry as an aligned ASCII table (Tables 1 & 2).
  std::string render_join_table() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<SanModel>> submodels_;
  std::vector<JoinEntry> join_registry_;
  std::vector<TokenView> token_views_;
};

}  // namespace vcpusim::san
