#include "service/shardgen.hpp"

#include <poll.h>

#include <cerrno>
#include <deque>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "common/cache.hpp"
#include "common/constants.hpp"
#include "common/contracts.hpp"
#include "common/env.hpp"
#include "common/metrics.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "device/sweeps.hpp"

namespace gnrfet::service {

namespace {

namespace sp = common::subprocess;

/// Frame types of the shard protocol (first payload byte).
constexpr uint8_t kShardRequest = 1;
constexpr uint8_t kShardResult = 2;
constexpr uint8_t kShardError = 3;

/// Give up when this many consecutive scheduler rounds neither dispatch a
/// shard nor have one in flight — freshly spawned workers dying before
/// accepting a single frame means something is systemically wrong (fork
/// failure, OOM killer) and retrying forever would hang the caller.
constexpr int kMaxFutileRounds = 64;

void encode_spec(sp::FrameWriter& w, const device::DeviceSpec& spec) {
  w.i32(spec.n_index);
  w.f64(spec.channel_length_nm);
  w.f64(spec.oxide_thickness_nm);
  w.f64(spec.oxide_eps_r);
  w.f64(spec.hopping_eV);
  w.f64(spec.edge_delta);
  w.f64(spec.contact_gamma_eV);
  w.i32(spec.num_modes);
  w.f64(spec.contact_margin_nm);
  w.f64(spec.lateral_margin_nm);
  w.f64(spec.grid_step_nm);
  w.u64(spec.impurities.size());
  for (const device::ChargeImpurity& imp : spec.impurities) {
    w.f64(imp.charge_e);
    w.f64(imp.x_nm);
    w.f64(imp.offset_y_nm);
    w.f64(imp.z_nm);
  }
}

device::DeviceSpec decode_spec(sp::FrameReader& r) {
  device::DeviceSpec spec;
  spec.n_index = r.i32();
  spec.channel_length_nm = r.f64();
  spec.oxide_thickness_nm = r.f64();
  spec.oxide_eps_r = r.f64();
  spec.hopping_eV = r.f64();
  spec.edge_delta = r.f64();
  spec.contact_gamma_eV = r.f64();
  spec.num_modes = r.i32();
  spec.contact_margin_nm = r.f64();
  spec.lateral_margin_nm = r.f64();
  spec.grid_step_nm = r.f64();
  const uint64_t n_imp = r.u64();
  spec.impurities.resize(n_imp);
  for (uint64_t i = 0; i < n_imp; ++i) {
    spec.impurities[i].charge_e = r.f64();
    spec.impurities[i].x_nm = r.f64();
    spec.impurities[i].offset_y_nm = r.f64();
    spec.impurities[i].z_nm = r.f64();
  }
  return spec;
}

void encode_solve(sp::FrameWriter& w, const device::SolveOptions& s) {
  w.f64(s.energy_step_eV);
  w.f64(s.eta_eV);
  w.f64(s.kT_eV);
  w.f64(s.gummel_tolerance_V);
  w.i32(s.max_gummel_iterations);
}

device::SolveOptions decode_solve(sp::FrameReader& r) {
  device::SolveOptions s;
  s.energy_step_eV = r.f64();
  s.eta_eV = r.f64();
  s.kT_eV = r.f64();
  s.gummel_tolerance_V = r.f64();
  s.max_gummel_iterations = r.i32();
  return s;
}

void encode_ctx(sp::FrameWriter& w, const negf::TransportContext& ctx) {
  w.u64(ctx.mode_edges.size());
  for (const std::vector<double>& edges : ctx.mode_edges) w.vec_f64(edges);
}

negf::TransportContext decode_ctx(sp::FrameReader& r) {
  negf::TransportContext ctx;
  const uint64_t n = r.u64();
  ctx.mode_edges.resize(n);
  for (uint64_t m = 0; m < n; ++m) ctx.mode_edges[m] = r.vec_f64();
  return ctx;
}

/// One shard request: everything a worker needs to run solve_table_column
/// bit-identically — spec, solve options, the column's drain bias and VG
/// axis, the head solution, and (when chaining) the context snapshot.
sp::Frame encode_request(const device::DeviceSpec& spec, const device::SolveOptions& solve,
                         bool chain_ctx, size_t column, double vd,
                         const std::vector<double>& vg, const device::DeviceSolution& head,
                         const negf::TransportContext* ctx) {
  sp::FrameWriter w;
  w.u8(kShardRequest);
  encode_spec(w, spec);
  encode_solve(w, solve);
  w.u8(chain_ctx ? 1 : 0);
  w.u64(column);
  w.f64(vd);
  w.vec_f64(vg);
  w.u8(head.converged ? 1 : 0);
  w.i32(head.iterations);
  w.f64(head.current_A);
  w.f64(head.net_electrons);
  w.vec_f64(head.phi_full);
  w.vec_f64(head.midgap_profile_eV);
  w.vec_f64(head.column_x_nm);
  if (chain_ctx) encode_ctx(w, ctx ? *ctx : negf::TransportContext{});
  return w.take();
}

/// Identity of the worker's cached geometry+solver: a worker serves many
/// columns of one table (and possibly several tables over its lifetime),
/// so it rebuilds the geometry only when the spec or solve options change.
std::string solver_cache_key(const device::DeviceSpec& spec, const device::SolveOptions& s) {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << spec.cache_key() << "|de=" << s.energy_step_eV << ";eta=" << s.eta_eV
     << ";kT=" << s.kT_eV << ";gtol=" << s.gummel_tolerance_V
     << ";gmax=" << s.max_gummel_iterations;
  return os.str();
}

}  // namespace

ShardScheduler::ShardScheduler(ShardOptions opts) : opts_(std::move(opts)) {
  workers_ = opts_.workers >= 1
                 ? opts_.workers
                 : common::env::get_positive_int("GNRFET_TABLE_WORKERS", 4);
}

ShardScheduler::~ShardScheduler() = default;

device::DeviceTable ShardScheduler::generate(const device::DeviceSpec& spec,
                                             const device::TableGenOptions& opts) {
  trace::Span span("service", "shard_generate");
  const std::string payload = device::table_cache_payload(spec, opts);
  const std::string path = cache::path_for("device-table", payload);
  if (opts.use_cache && cache::exists(path)) {
    metrics::add(metrics::Counter::kTableCacheHits);
    return device::load_table(path);
  }
  if (opts.use_cache) metrics::add(metrics::Counter::kTableCacheMisses);
  device::DeviceTable table = generate_uncached(spec, opts);
  metrics::add(metrics::Counter::kTableBiasNotConverged, table.gummel_not_converged);
  if (opts.use_cache) device::save_table(table, path, payload);
  return table;
}

device::DeviceTable ShardScheduler::generate_uncached(const device::DeviceSpec& spec,
                                                      const device::TableGenOptions& opts) {
  common::MutexLock lk(mu_);
  if (!pool_) {
    sp::WorkerPool::Spawner spawner;
    if (opts_.worker_argv.empty()) {
      spawner = [] {
        return sp::Worker::spawn(
            [](int request_fd, int response_fd) { return shard_worker_main(request_fd, response_fd); });
      };
    } else {
      const std::vector<std::string> argv = opts_.worker_argv;
      spawner = [argv] { return sp::Worker::spawn_exec(argv); };
    }
    pool_ = std::make_unique<sp::WorkerPool>(workers_, std::move(spawner));
  }
  // Safe here: nothing is in flight between generate() calls.
  pool_->ensure_full();

  const device::DeviceGeometry geometry(spec);
  const device::SelfConsistentSolver solver(geometry, opts.solve);

  device::DeviceTable table;
  table.vg = device::voltage_axis(opts.vg_min, opts.vg_max, opts.vg_points);
  table.vd = device::voltage_axis(opts.vd_min, opts.vd_max, opts.vd_points);
  table.current_A.assign(opts.vg_points * opts.vd_points, 0.0);
  table.charge_C.assign(opts.vg_points * opts.vd_points, 0.0);
  table.band_gap_eV = geometry.modes().band_gap_eV();

  // Phase 1 in-process: the serial head row (identical to the unsharded
  // path). Phase 2 ships each column to a worker.
  const size_t nvd = table.vd.size();
  const size_t nvg = table.vg.size();
  device::TableHeadRow row = device::solve_table_heads(solver, table.vg, table.vd, opts);
  for (size_t id = 0; id < nvd; ++id) {
    table.current_A[id] = row.heads[id].current_A;
    table.charge_C[id] = -constants::kElementaryCharge * row.heads[id].net_electrons;
    if (!row.heads[id].converged) ++table.gummel_not_converged;
  }
  if (nvg <= 1) return table;

  try {
    const size_t nw = pool_->size();
    std::deque<size_t> queue;
    for (size_t id = 0; id < nvd; ++id) queue.push_back(id);
    // slot_col[i]: the column slot i is computing, or npos when idle.
    constexpr size_t kIdle = std::numeric_limits<size_t>::max();
    std::vector<size_t> slot_col(nw, kIdle);
    size_t completed = 0;
    int futile_rounds = 0;

    while (completed < nvd) {
      // Assign queued columns to idle slots, respawning dead ones first.
      bool dispatched_this_round = false;
      for (size_t i = 0; i < nw && !queue.empty(); ++i) {
        if (slot_col[i] != kIdle) continue;
        if (!pool_->at(i).valid() || !pool_->at(i).running()) pool_->respawn(i);
        const size_t col = queue.front();
        const sp::Frame req = encode_request(spec, opts.solve, row.chain_ctx, col, table.vd[col],
                                             table.vg, row.heads[col],
                                             row.chain_ctx ? &row.ctx[col] : nullptr);
        // A send failure means the fresh worker already died; leave the
        // column queued — the next round respawns the slot and retries.
        if (!pool_->at(i).send(req)) continue;
        queue.pop_front();
        slot_col[i] = col;
        dispatched_this_round = true;
        metrics::add(metrics::Counter::kTableShardDispatches);
        if (opts_.on_dispatch) opts_.on_dispatch(pool_->at(i).pid(), col);
      }

      // Collect the busy slots; with none, either everything is done or
      // every dispatch attempt failed (count those rounds, then give up).
      std::vector<struct pollfd> fds;
      std::vector<size_t> fd_slot;
      for (size_t i = 0; i < nw; ++i) {
        if (slot_col[i] == kIdle) continue;
        fds.push_back({pool_->at(i).response_fd(), POLLIN, 0});
        fd_slot.push_back(i);
      }
      if (fds.empty()) {
        if (completed >= nvd) break;
        futile_rounds = dispatched_this_round ? 0 : futile_rounds + 1;
        GNRFET_REQUIRE("service/shardgen", "workers-spawnable", futile_rounds < kMaxFutileRounds,
                       "table-shard workers keep dying before accepting work");
        continue;
      }
      futile_rounds = 0;

      int ready = ::poll(fds.data(), fds.size(), -1);
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("shardgen: poll failed on worker response channels");
      }
      for (size_t k = 0; k < fds.size(); ++k) {
        if (!(fds[k].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        const size_t i = fd_slot[k];
        sp::Worker& w = pool_->at(i);
        sp::Frame resp;
        bool ok = false;
        try {
          ok = w.recv(resp);
        } catch (const std::exception&) {
          ok = false;  // torn frame: the worker died mid-write — retry below
        }
        if (!ok) {
          // Crash mid-shard: requeue the column and reap; the assign step
          // respawns the slot next round. Recomputation is bit-identical,
          // so the final table cannot depend on the crash history.
          queue.push_front(slot_col[i]);
          slot_col[i] = kIdle;
          w.wait();
          metrics::add(metrics::Counter::kTableShardRetries);
          continue;
        }
        sp::FrameReader r(resp);
        const uint8_t type = r.u8();
        if (type == kShardError) {
          // In-band worker failure (contract violation, solver exception):
          // deterministic, so a retry would fail identically. Propagate.
          throw std::runtime_error("shardgen: worker failed: " + r.str());
        }
        if (type != kShardResult) {
          throw std::runtime_error("shardgen: unexpected frame type " + std::to_string(type) +
                                   " from worker");
        }
        const size_t col = static_cast<size_t>(r.u64());
        const std::vector<double> current = r.vec_f64();
        const std::vector<double> charge = r.vec_f64();
        table.gummel_not_converged += static_cast<size_t>(r.u64());
        GNRFET_ENSURE("service/shardgen", "shard-result-shape",
                      col < nvd && col == slot_col[i] && current.size() == nvg - 1 &&
                          charge.size() == nvg - 1,
                      "worker returned column " + std::to_string(col) + " with " +
                          std::to_string(current.size()) + " entries");
        for (size_t ig = 1; ig < nvg; ++ig) {
          table.current_A[ig * nvd + col] = current[ig - 1];
          table.charge_C[ig * nvd + col] = charge[ig - 1];
        }
        slot_col[i] = kIdle;
        ++completed;
      }
    }
  } catch (...) {
    // A thrown scheduler leaves workers mid-shard; their late responses
    // would desynchronize the next generate(). Tear the pool down — the
    // next call respawns it clean.
    pool_.reset();
    throw;
  }

  return table;
}

int shard_worker_main(int request_fd, int response_fd) {
  // The worker may be a fork-entry child of a threaded parent: the pool's
  // threads did not survive the fork, so all compute must run inline.
  par::pin_inline();
  // Any inherited trace path belongs to the parent; an exec-mode worker
  // flushing it at exit would clobber the parent's trace file.
  common::env_clear("GNRFET_TRACE");

  // Geometry + solver are cached across requests: one worker serves many
  // columns of the same table.
  std::string cached_key;
  std::unique_ptr<device::DeviceGeometry> geometry;
  std::unique_ptr<device::SelfConsistentSolver> solver;

  sp::Frame req;
  while (sp::read_frame(request_fd, req)) {
    sp::FrameWriter out;
    try {
      sp::FrameReader r(req);
      const uint8_t type = r.u8();
      if (type != kShardRequest) {
        throw std::runtime_error("unexpected frame type " + std::to_string(type));
      }
      const device::DeviceSpec spec = decode_spec(r);
      const device::SolveOptions solve = decode_solve(r);
      const bool chain_ctx = r.u8() != 0;
      const size_t column = static_cast<size_t>(r.u64());
      const double vd = r.f64();
      const std::vector<double> vg = r.vec_f64();
      device::DeviceSolution head;
      head.converged = r.u8() != 0;
      head.iterations = r.i32();
      head.current_A = r.f64();
      head.net_electrons = r.f64();
      head.phi_full = r.vec_f64();
      head.midgap_profile_eV = r.vec_f64();
      head.column_x_nm = r.vec_f64();
      negf::TransportContext ctx;
      if (chain_ctx) ctx = decode_ctx(r);

      const std::string key = solver_cache_key(spec, solve);
      if (key != cached_key || !solver) {
        solver.reset();
        geometry = std::make_unique<device::DeviceGeometry>(spec);
        solver = std::make_unique<device::SelfConsistentSolver>(*geometry, solve);
        cached_key = key;
      }
      const device::TableColumnResult col =
          device::solve_table_column(*solver, vg, vd, head, chain_ctx ? &ctx : nullptr);
      out.u8(kShardResult);
      out.u64(column);
      out.vec_f64(col.current_A);
      out.vec_f64(col.charge_C);
      out.u64(col.not_converged);
    } catch (const std::exception& e) {
      out = sp::FrameWriter();
      out.u8(kShardError);
      out.str(e.what());
    }
    if (!sp::write_frame(response_fd, out.frame())) return 0;  // parent gone
  }
  return 0;
}

}  // namespace gnrfet::service
