#include "linalg/ordered_lu.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "linalg/lu.hpp"

namespace gnrfet::linalg {

std::vector<size_t> minimum_degree_order(size_t n, const MatrixEntries& entries) {
  // Elimination graph as a dense adjacency matrix: eliminating a vertex
  // joins its remaining neighbours into a clique (the fill it creates).
  std::vector<uint8_t> adj(n * n, 0);
  std::vector<size_t> degree(n, 0);
  const auto connect = [&](size_t a, size_t b) {
    if (a == b || adj[a * n + b]) return;
    adj[a * n + b] = adj[b * n + a] = 1;
    ++degree[a];
    ++degree[b];
  };
  for (const auto& [r, c] : entries) {
    if (r >= n || c >= n) throw std::invalid_argument("minimum_degree_order: entry out of range");
    connect(r, c);
  }
  std::vector<size_t> order;
  order.reserve(n);
  std::vector<uint8_t> done(n, 0);
  std::vector<size_t> nbrs;
  for (size_t step = 0; step < n; ++step) {
    size_t pick = n;
    for (size_t v = 0; v < n; ++v) {
      if (!done[v] && (pick == n || degree[v] < degree[pick])) pick = v;
    }
    order.push_back(pick);
    done[pick] = 1;
    nbrs.clear();
    for (size_t v = 0; v < n; ++v) {
      if (adj[pick * n + v]) {
        nbrs.push_back(v);
        adj[v * n + pick] = adj[pick * n + v] = 0;
        --degree[v];
      }
    }
    for (size_t a = 0; a < nbrs.size(); ++a) {
      for (size_t b = a + 1; b < nbrs.size(); ++b) connect(nbrs[a], nbrs[b]);
    }
  }
  return order;
}

OrderedLU::OrderedLU(size_t n, const MatrixEntries& entries)
    : order_(minimum_degree_order(n, entries)),
      lu_(n, n),
      in_structure_(n * n, 0),
      pattern_row_cols_(n),
      pattern_col_rows_(n),
      row_cols_(n),
      col_rows_(n),
      active_(n),
      pivot_row_(n),
      lower_begin_(n + 1),
      upper_begin_(n + 1),
      work_(n) {
  std::vector<size_t> pos(n);
  for (size_t k = 0; k < n; ++k) pos[order_[k]] = k;
  entry_pos_.reserve(entries.size());
  for (const auto& [r, c] : entries) {  // in range: minimum_degree_order checked
    const size_t i = pos[r], j = pos[c];
    if (in_structure_[i * n + j]) throw std::invalid_argument("OrderedLU: duplicate entry");
    in_structure_[i * n + j] = 1;
    entry_pos_.push_back(i * n + j);
    pattern_row_cols_[i].push_back(static_cast<uint32_t>(j));
    pattern_col_rows_[j].push_back(static_cast<uint32_t>(i));
  }
}

bool OrderedLU::factor(const std::vector<double>& values) {
  const size_t n = order_.size();
  if (values.size() != entry_pos_.size()) {
    throw std::invalid_argument("OrderedLU::factor: value count mismatch");
  }
  // Drop the previous fill, then load A onto its pattern.
  double* lu = lu_.data();
  for (const size_t p : fill_) {
    lu[p] = 0.0;
    in_structure_[p] = 0;
  }
  fill_.clear();
  for (size_t s = 0; s < values.size(); ++s) lu[entry_pos_[s]] = values[s];
  for (size_t i = 0; i < n; ++i) {
    row_cols_[i].assign(pattern_row_cols_[i].begin(), pattern_row_cols_[i].end());
    col_rows_[i].assign(pattern_col_rows_[i].begin(), pattern_col_rows_[i].end());
  }
  std::fill(active_.begin(), active_.end(), 1);
  lower_rows_.clear();
  upper_cols_.clear();
  for (size_t k = 0; k < n; ++k) {
    // Candidates: the not-yet-pivoted rows with a nonzero in column k. The
    // largest magnitude wins; ties go to the diagonal row k (the row the
    // fill-reducing order planned for), then to the lowest row, so the
    // arithmetic does not depend on the order of the structure lists.
    lower_begin_[k] = lower_rows_.size();
    size_t piv = n;
    double best = 0.0;
    size_t piv_slot = 0;
    for (const uint32_t i : col_rows_[k]) {
      if (!active_[i]) continue;
      const double v = std::abs(lu[i * n + k]);
      if (v == 0.0) continue;
      if (v > best || (v == best && piv != k && (i == k || i < piv))) {
        best = v;
        piv = i;
        piv_slot = lower_rows_.size();
      }
      lower_rows_.push_back(i);
    }
    if (piv == n || best < kLuPivotFloor) return false;
    pivot_row_[k] = piv;
    active_[piv] = 0;
    lower_rows_[piv_slot] = lower_rows_.back();
    lower_rows_.pop_back();

    const double* prow = &lu[piv * n];
    upper_begin_[k] = upper_cols_.size();
    for (const uint32_t j : row_cols_[piv]) {
      if (j > k && prow[j] != 0.0) upper_cols_.push_back(j);
    }
    const size_t u0 = upper_begin_[k], u1 = upper_cols_.size();
    // Ascending columns fix the summation order of the back substitution.
    std::sort(upper_cols_.begin() + static_cast<ptrdiff_t>(u0), upper_cols_.end());
    const double inv_piv = 1.0 / prow[k];
    for (size_t s = lower_begin_[k]; s < lower_rows_.size(); ++s) {
      const size_t i = lower_rows_[s];
      double* row = &lu[i * n];
      const double m = row[k] * inv_piv;
      row[k] = m;
      for (size_t u = u0; u < u1; ++u) {
        const size_t j = upper_cols_[u];
        if (!in_structure_[i * n + j]) {
          in_structure_[i * n + j] = 1;
          fill_.push_back(i * n + j);
          row_cols_[i].push_back(static_cast<uint32_t>(j));
          col_rows_[j].push_back(static_cast<uint32_t>(i));
        }
        row[j] -= m * prow[j];
      }
    }
  }
  lower_begin_[n] = lower_rows_.size();
  upper_begin_[n] = upper_cols_.size();
  return true;
}

void OrderedLU::solve(const std::vector<double>& b, std::vector<double>& x) {
  const size_t n = order_.size();
  if (b.size() != n) throw std::invalid_argument("OrderedLU::solve: size mismatch");
  // Forward: replay the row operations of factor() on the permuted rhs.
  for (size_t i = 0; i < n; ++i) work_[i] = b[order_[i]];
  for (size_t k = 0; k < n; ++k) {
    const double y = work_[pivot_row_[k]];
    if (y == 0.0) continue;
    for (size_t s = lower_begin_[k]; s < lower_begin_[k + 1]; ++s) {
      const size_t i = lower_rows_[s];
      work_[i] -= lu_(i, k) * y;
    }
  }
  // Back: pivot row of step k holds U's row k; solve for unknown order_[k].
  x.resize(n);
  for (size_t k = n; k-- > 0;) {
    const size_t p = pivot_row_[k];
    const double* row = &lu_(p, 0);
    double s = work_[p];
    for (size_t u = upper_begin_[k]; u < upper_begin_[k + 1]; ++u) {
      const size_t j = upper_cols_[u];
      s -= row[j] * x[order_[j]];
    }
    x[order_[k]] = s / row[k];
  }
}

}  // namespace gnrfet::linalg
