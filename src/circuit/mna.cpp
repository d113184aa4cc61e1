#include "circuit/mna.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "common/strings.hpp"

namespace gnrfet::circuit {

void MnaSystem::clear() {
  std::fill(values_.begin(), values_.end(), 0.0);
  std::fill(res_.begin(), res_.end(), 0.0);
}

void check_mna_stamp(const Circuit& ckt, const MnaSystem& sys) {
#if GNRFET_CHECKS_ENABLED
  const auto& entries = sys.entries();
  const auto& values = sys.values();
  for (const double r : sys.residual()) GNRFET_CHECK_FINITE("circuit", "finite-stamp", r);
  for (size_t s = 0; s < entries.size(); ++s) {
    GNRFET_REQUIRE("circuit", "finite-stamp", std::isfinite(values[s]),
                   strings::format("Jacobian(%zu, %zu) = %g (degenerate element stamp?)",
                                   entries[s].first, entries[s].second, values[s]));
  }
  for (size_t b = 0; b < ckt.num_branches(); ++b) {
    const size_t row = ckt.unknown_of_branch(b);
    bool structural = false;
    for (size_t s = 0; s < entries.size() && !structural; ++s) {
      structural = entries[s].first == row && values[s] != 0.0;
    }
    GNRFET_REQUIRE("circuit", "structural-rank", structural,
                   strings::format("branch row %zu is all-zero: voltage source shorted to "
                                   "itself or stamped between identical nodes",
                                   b));
  }
#else
  (void)ckt;
  (void)sys;
#endif
}

Circuit::Circuit() { node_names_.push_back("gnd"); }

NodeId Circuit::new_node(const std::string& name) {
  const NodeId id = static_cast<NodeId>(node_names_.size());
  node_names_.push_back(name.empty() ? "n" + std::to_string(id) : name);
  return id;
}

size_t Circuit::add(std::unique_ptr<Element> element) {
  element->assign_slots(num_branches_, state_size_);
  num_branches_ += element->num_branches();
  state_size_ += element->state_size();
  elements_.push_back(std::move(element));
  return elements_.size() - 1;
}

size_t Circuit::num_unknowns() const { return num_nodes() - 1 + num_branches_; }

}  // namespace gnrfet::circuit
