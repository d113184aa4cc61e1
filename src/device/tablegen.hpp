#pragma once

#include <string>
#include <vector>

#include "device/geometry.hpp"
#include "device/selfconsistent.hpp"
#include "negf/transport.hpp"

/// Generation (with on-disk caching) of the intrinsic-device lookup tables
/// I_D(V_G, V_D) and Q(V_G, V_D) that feed the circuit simulator (Sec. 3).
namespace gnrfet::device {

/// Intrinsic single-GNR device table on a rectangular bias grid.
struct DeviceTable {
  std::vector<double> vg;        ///< gate axis [V], ascending
  std::vector<double> vd;        ///< drain axis [V], ascending
  std::vector<double> current_A; ///< row-major [ivg * nvd + ivd]
  std::vector<double> charge_C;  ///< channel charge, same layout
  double band_gap_eV = 0.0;
  /// Bias points whose self-consistent solve stopped at
  /// max_gummel_iterations without converging. In memory only: the cache
  /// file does not carry it, so a table loaded from the cache reads 0.
  size_t gummel_not_converged = 0;

  double at_current(size_t ivg, size_t ivd) const { return current_A[ivg * vd.size() + ivd]; }
  double at_charge(size_t ivg, size_t ivd) const { return charge_C[ivg * vd.size() + ivd]; }
};

struct TableGenOptions {
  double vg_min = 0.0;
  double vg_max = 0.75;
  double vd_min = 0.0;
  double vd_max = 0.75;
  size_t vg_points = 16;  ///< 0.05 V steps over [0, 0.75]
  size_t vd_points = 16;
  SolveOptions solve;
  bool use_cache = true;
  /// Chain the adaptive energy-grid TransportContext across bias points
  /// along each warm-start chain (column heads serially, then up each VG
  /// column): every solve seeds its panel edges from the previous bias
  /// instead of the coarse grid. Values move within the adaptive
  /// tolerance (cache entries get their own key); the uniform grid is
  /// unaffected. Tables stay bit-identical for any GNRFET_THREADS.
  bool warm_bias_context = true;
};

/// Serializable identity of (spec, options); the cache key.
std::string table_cache_payload(const DeviceSpec& spec, const TableGenOptions& opts);

/// True when generation chains the adaptive TransportContext across bias
/// points (opts.warm_bias_context under GNRFET_NEGF_GRID=adaptive).
bool table_chains_context(const TableGenOptions& opts);

/// Phase-1 output of table generation: the serial chain of column-head
/// solutions (ig = 0 across drain biases) plus, when the context chains,
/// the TransportContext snapshot each column starts from.
struct TableHeadRow {
  std::vector<DeviceSolution> heads;       ///< one per vd point
  std::vector<negf::TransportContext> ctx; ///< per-column snapshots; empty unless chain_ctx
  bool chain_ctx = false;
};

/// Phase-2 output for one drain column: currents and charges for
/// ig = 1..nvg-1 (the head row is phase 1's).
struct TableColumnResult {
  std::vector<double> current_A;  ///< [ig - 1] for ig in 1..nvg-1
  std::vector<double> charge_C;
  size_t not_converged = 0;       ///< chain points that hit max_gummel_iterations
};

/// Solve the serial head row (phase 1). Exposed so the shard scheduler
/// (service/shardgen) can run phase 1 in-process and ship each column's
/// head + context to a worker; the warm-start graph — and therefore every
/// bit of the result — is identical to in-process generation.
TableHeadRow solve_table_heads(const SelfConsistentSolver& solver, const std::vector<double>& vg,
                               const std::vector<double>& vd, const TableGenOptions& opts);

/// Solve one drain column's VG chain (phase 2) from its head solution.
/// `ctx` is the column's TransportContext (advanced in place), or nullptr
/// when the context does not chain.
TableColumnResult solve_table_column(const SelfConsistentSolver& solver,
                                     const std::vector<double>& vg, double vd,
                                     const DeviceSolution& head, negf::TransportContext* ctx);

/// Generate (or load from cache) the device table. Generation walks the
/// bias grid warm-starting each point from its neighbour. Points that end
/// without Gummel convergence are kept, counted in
/// DeviceTable::gummel_not_converged and in the table_bias_not_converged
/// metrics counter.
DeviceTable generate_device_table(const DeviceSpec& spec, const TableGenOptions& opts = {});

/// Serialization helpers (exposed for tests).
void save_table(const DeviceTable& table, const std::string& path, const std::string& key);
DeviceTable load_table(const std::string& path);

}  // namespace gnrfet::device
