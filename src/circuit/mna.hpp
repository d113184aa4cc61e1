#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "linalg/ordered_lu.hpp"

/// Modified nodal analysis core for the lookup-table circuit simulator of
/// Sec. 3. Unknowns are the non-ground node voltages followed by the
/// branch currents of voltage sources. The circuits of the paper are small
/// (tens of nodes) and sparse: the Jacobian is assembled in coordinate form
/// on its stamped pattern, and the Newton kernel (circuit/newton.hpp)
/// factors it with a fill-reducing ordered sparse LU (linalg/ordered_lu.hpp).
namespace gnrfet::circuit {

/// Node handle; 0 is ground.
using NodeId = int;
inline constexpr NodeId kGround = 0;

class Element;

class Circuit {
 public:
  Circuit();

  NodeId new_node(const std::string& name = "");
  size_t num_nodes() const { return node_names_.size(); }  ///< includes ground
  const std::string& node_name(NodeId n) const { return node_names_.at(static_cast<size_t>(n)); }

  /// Adds an element; the circuit assigns branch and state offsets.
  /// Returns a stable element index.
  size_t add(std::unique_ptr<Element> element);

  const std::vector<std::unique_ptr<Element>>& elements() const { return elements_; }
  Element& element(size_t idx) { return *elements_.at(idx); }

  /// Unknown vector layout: [v_1 .. v_{N-1}, i_branch_0 ..].
  size_t num_unknowns() const;
  size_t num_branches() const { return num_branches_; }
  size_t state_size() const { return state_size_; }

  /// Index of node voltage in the unknown vector (-1 for ground).
  ptrdiff_t unknown_of_node(NodeId n) const { return n == kGround ? -1 : n - 1; }
  size_t unknown_of_branch(size_t branch) const { return num_nodes() - 1 + branch; }

 private:
  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<Element>> elements_;
  size_t num_branches_ = 0;
  size_t state_size_ = 0;
};

/// One assembled MNA system in natural unknown order: the residual and
/// the Jacobian in coordinate form on its stamped pattern — every position
/// any assembly has written, in first-stamp order. The pattern only grows,
/// so the Jacobian is zero off the pattern after every assembly.
class MnaSystem {
 public:
  explicit MnaSystem(size_t n) : res_(n, 0.0), slot_(n * n, kNoSlot) {}

  size_t size() const { return res_.size(); }
  /// Zero the Jacobian values and the residual; the pattern is kept.
  void clear();

  /// d(res[row]) / d(x[col]) += g.
  void add_jacobian(size_t row, size_t col, double g) {
    uint32_t& slot = slot_[row * res_.size() + col];
    if (slot == kNoSlot) {
      slot = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back(row, col);
      values_.push_back(0.0);
    }
    values_[slot] += g;
  }
  void add_residual(size_t row, double value) { res_[row] += value; }

  const std::vector<double>& residual() const { return res_; }
  /// Stamped (row, col) positions; values() holds the Jacobian on them.
  const linalg::MatrixEntries& entries() const { return entries_; }
  const std::vector<double>& values() const { return values_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  std::vector<double> res_;
  std::vector<uint32_t> slot_;  ///< row * n + col -> index into entries_/values_
  linalg::MatrixEntries entries_;
  std::vector<double> values_;
};

/// Assembly facade passed to elements. Residuals follow the convention
/// res[node] = sum of currents LEAVING the node (KCL: res = 0).
class Stamper {
 public:
  Stamper(const Circuit& ckt, const std::vector<double>& x, MnaSystem& sys)
      : ckt_(ckt), x_(x), sys_(sys) {}

  double v(NodeId n) const {
    const ptrdiff_t u = ckt_.unknown_of_node(n);
    return u < 0 ? 0.0 : x_[static_cast<size_t>(u)];
  }
  double branch_current(size_t branch) const { return x_[ckt_.unknown_of_branch(branch)]; }

  void add_residual(NodeId n, double current_out) {
    const ptrdiff_t u = ckt_.unknown_of_node(n);
    if (u >= 0) sys_.add_residual(static_cast<size_t>(u), current_out);
  }
  void add_branch_residual(size_t branch, double value) {
    sys_.add_residual(ckt_.unknown_of_branch(branch), value);
  }
  /// d(res[n]) / d(v[m]).
  void add_jacobian(NodeId n, NodeId m, double g) {
    const ptrdiff_t r = ckt_.unknown_of_node(n);
    const ptrdiff_t c = ckt_.unknown_of_node(m);
    if (r >= 0 && c >= 0) sys_.add_jacobian(static_cast<size_t>(r), static_cast<size_t>(c), g);
  }
  void add_jacobian_node_branch(NodeId n, size_t branch, double g) {
    const ptrdiff_t r = ckt_.unknown_of_node(n);
    if (r >= 0) sys_.add_jacobian(static_cast<size_t>(r), ckt_.unknown_of_branch(branch), g);
  }
  void add_jacobian_branch_node(size_t branch, NodeId m, double g) {
    const ptrdiff_t c = ckt_.unknown_of_node(m);
    if (c >= 0) sys_.add_jacobian(ckt_.unknown_of_branch(branch), static_cast<size_t>(c), g);
  }
  void add_jacobian_branch_branch(size_t branch_r, size_t branch_c, double g) {
    sys_.add_jacobian(ckt_.unknown_of_branch(branch_r), ckt_.unknown_of_branch(branch_c), g);
  }

 private:
  const Circuit& ckt_;
  const std::vector<double>& x_;
  MnaSystem& sys_;
};

/// Contract check of one assembled MNA system (subsystem "circuit"):
/// every residual entry and every stamped Jacobian entry must be finite
/// ("finite-stamp" — an inf/NaN stamp means a degenerate element, e.g. a
/// zero-ohm resistor), and every voltage-source branch row must have at
/// least one nonzero entry ("structural-rank" — an all-zero branch row is a
/// source shorted to itself, which makes the matrix singular no matter the
/// gmin). Node rows may float: the solvers regularize them with gmin by
/// design. Compiled out under GNRFET_CHECKS=OFF.
void check_mna_stamp(const Circuit& ckt, const MnaSystem& sys);

/// Per-step context for charge-storage elements. dt <= 0 means DC (charge
/// branches are open). `state_prev` holds each element's committed state
/// from the previous accepted step; `state_next` is written during
/// stamping and committed when the step is accepted.
struct TransientContext {
  double time = 0.0;
  double dt = 0.0;
  double source_scale = 1.0;  ///< source stepping homotopy in DC
  const std::vector<double>* state_prev = nullptr;
  std::vector<double>* state_next = nullptr;
};

class Element {
 public:
  virtual ~Element() = default;

  /// Number of extra branch-current unknowns (voltage sources).
  virtual size_t num_branches() const { return 0; }
  /// Number of state doubles (charges, previous voltages/currents).
  virtual size_t state_size() const { return 0; }

  /// Called once by Circuit::add.
  void assign_slots(size_t branch_offset, size_t state_offset) {
    branch_offset_ = branch_offset;
    state_offset_ = state_offset;
  }

  /// Stamp residual + Jacobian at iterate x (through `st`).
  virtual void stamp(Stamper& st, const TransientContext& ctx) const = 0;

  /// Initialize state from a converged DC solution (start of transient).
  virtual void init_state(const Circuit& ckt, const std::vector<double>& x,
                          std::vector<double>& state) const {
    (void)ckt;
    (void)x;
    (void)state;
  }

 protected:
  size_t branch_offset_ = 0;
  size_t state_offset_ = 0;
};

}  // namespace gnrfet::circuit
