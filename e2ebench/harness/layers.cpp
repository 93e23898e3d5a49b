// Per-layer probes of the traced run. Engine, pool, rt and depot numbers are
// read from the program's own ms_* metric families through the public
// registry snapshot; kernel rates come from calling the kern:: kernels
// directly; every time here is measured from outside the call.

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "harness.hpp"
#include "kern/cholesky.hpp"
#include "kern/gemm.hpp"
#include "kern/hotspot.hpp"
#include "kern/kmeans.hpp"
#include "kern/lu.hpp"
#include "kern/nn.hpp"
#include "kern/par.hpp"
#include "kern/srad.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace msb {

namespace {

namespace tel = ms::telemetry;

/// One metric name summed over its labeled children.
struct Agg {
  double counter = 0.0;
  double gauge = 0.0;
  double hist_sum = 0.0;
  double hist_count = 0.0;
};

std::map<std::string, Agg> read_registry() {
  std::map<std::string, Agg> out;
  for (const tel::MetricSnapshot& m : tel::registry().snapshot().metrics) {
    Agg& a = out[m.name];
    switch (m.kind) {
      case tel::MetricKind::Counter: a.counter += static_cast<double>(m.counter); break;
      case tel::MetricKind::Gauge:
      case tel::MetricKind::MaxGauge:
        a.gauge = std::max(a.gauge, static_cast<double>(m.gauge));
        break;
      case tel::MetricKind::Histogram:
        a.hist_sum += static_cast<double>(m.histogram.sum);
        a.hist_count += static_cast<double>(m.histogram.count());
        break;
    }
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

void span(SpanLog* spans, const char* name, const char* layer, std::uint64_t t0,
          std::uint64_t t1) {
  if (spans != nullptr) spans->add({name, layer, spans->next_id(), 0, thread_index(), t0, t1});
}

}  // namespace

void add_registry_layers(Metrics& m, const Pass& pass, const RunConfig& rc) {
  auto r = read_registry();
  const auto counter = [&](const char* n) { return r[n].counter; };

  double app_s = 0.0;
  double longest = 0.0;
  double spans = 0.0;
  for (const JobRun& j : pass.runs) {
    app_s += j.app_s;
    longest = std::max(longest, j.host_s);
    spans += static_cast<double>(j.out.spans);
  }
  m.push_back({"apps.run_s", {app_s, "s"}});
  m.push_back({"apps.jobs", {static_cast<double>(pass.runs.size()), "count"}});

  const double busy_s = counter("ms_pool_worker_busy_ns") * 1e-9;
  m.push_back({"sim.pool.wall_s", {pass.wall_s, "s"}});
  m.push_back({"sim.pool.busy_s", {busy_s, "s"}});
  m.push_back({"sim.pool.utilization", {ratio(busy_s, pass.wall_s * rc.sweep_threads), "ratio"}});
  m.push_back({"sim.pool.longest_job_s", {longest, "s"}});
  m.push_back({"sim.pool.queue_wait_s", {r["ms_pool_queue_wait_ns"].hist_sum * 1e-9, "s"}});

  const double events = counter("ms_sim_events_fired_total");
  const double drain_ns = r["ms_sim_drain_wall_ns"].hist_sum;
  m.push_back({"sim.engine.events", {events, "count"}});
  m.push_back({"sim.engine.drain_s", {drain_ns * 1e-9, "s"}});
  m.push_back({"sim.engine.ns_per_event", {ratio(drain_ns, events), "ns"}});
  m.push_back({"sim.engine.queue_depth_hw", {r["ms_sim_event_queue_depth_hw"].gauge, "count"}});

  const double hits = counter("ms_sim_depot_hits_total");
  const double misses = counter("ms_sim_depot_misses_total");
  m.push_back({"sim.depot.hits", {hits, "count"}});
  m.push_back({"sim.depot.misses", {misses, "count"}});
  m.push_back({"sim.depot.dropped", {counter("ms_sim_depot_dropped_total"), "count"}});
  m.push_back({"sim.depot.hit_ratio", {ratio(hits, hits + misses), "ratio"}});

  const double actions = counter("ms_rt_actions_total");
  m.push_back({"rt.actions", {actions, "count"}});
  m.push_back({"rt.enqueues", {counter("ms_rt_enqueues_total"), "count"}});
  m.push_back({"rt.host_ns_per_action", {ratio(app_s * 1e9 - drain_ns, actions), "ns"}});
  m.push_back({"rt.sync_s", {r["ms_rt_sync_wall_ns"].hist_sum * 1e-9, "s"}});
  m.push_back({"rt.pool.chunks_grown", {counter("ms_rt_pool_chunks_grown_total"), "count"}});

  const Agg& launch = r["ms_rt_graph_launch_ns"];
  const double ghits = counter("ms_rt_graph_cache_hits_total");
  const double gmiss = counter("ms_rt_graph_cache_misses_total");
  m.push_back({"rt.graph.compiles", {counter("ms_rt_graph_compiles_total"), "count"}});
  m.push_back({"rt.graph.compile_s", {r["ms_rt_graph_compile_ns"].hist_sum * 1e-9, "s"}});
  m.push_back({"rt.graph.replays", {counter("ms_rt_graph_replays_total"), "count"}});
  m.push_back({"rt.graph.launch_us", {ratio(launch.hist_sum, launch.hist_count) * 1e-3, "us"}});
  m.push_back({"rt.graph.cache_hit_ratio", {ratio(ghits, ghits + gmiss), "ratio"}});

  m.push_back({"trace.spans", {spans, "count"}});
}

void add_telemetry_layers(Metrics& m, SpanLog* spans) {
  constexpr int kReps = 50;
  std::vector<double> snap_us;
  std::vector<double> export_us;
  std::size_t series = 0;
  for (int i = 0; i < kReps; ++i) {
    const std::uint64_t t0 = now_ns();
    const tel::Registry::Snapshot snap = tel::registry().snapshot();
    const std::uint64_t t1 = now_ns();
    std::ostringstream os;
    tel::write_prometheus(os, snap);
    const std::uint64_t t2 = now_ns();
    snap_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
    export_us.push_back(static_cast<double>(t2 - t1) * 1e-3);
    series = snap.metrics.size();
    if (i == 0) {
      span(spans, "telemetry.snapshot", "telemetry", t0, t1);
      span(spans, "telemetry.write_prometheus", "telemetry", t1, t2);
    }
  }
  m.push_back({"telemetry.snapshot_us", {median(snap_us), "us"}});
  m.push_back({"telemetry.export_us", {median(export_us), "us"}});
  m.push_back({"telemetry.series", {static_cast<double>(series), "count"}});
}

void add_telemetry_tax(Metrics& m, SpanLog* spans) {
  // The observed_replay jobs at P=4 (two per app), run serially.
  JobList jl = make_jobs(Workload::ObservedReplay, 0, false);
  std::erase_if(jl.jobs, [](const Job& j) { return j.name.find("/P=4/") == std::string::npos; });
  const auto run_all = [&](bool on) {
    tel::set_enabled(on);
    const std::uint64_t t0 = now_ns();
    for (const Job& j : jl.jobs) (void)j.run();
    const std::uint64_t t1 = now_ns();
    span(spans, on ? "telemetry.tax.on" : "telemetry.tax.off", "telemetry", t0, t1);
    return static_cast<double>(t1 - t0);
  };
  (void)run_all(true);  // warm graph caches and allocator
  std::vector<double> on;
  std::vector<double> off;
  for (int i = 0; i < 5; ++i) {  // ABBA-interleaved pairs
    if (i % 2 == 0) {
      off.push_back(run_all(false));
      on.push_back(run_all(true));
    } else {
      on.push_back(run_all(true));
      off.push_back(run_all(false));
    }
  }
  m.push_back({"telemetry.tax", {median(on) / median(off) - 1.0, "ratio"}});
}

// --------------------------------------------------------------------------
// kern: direct kernel calls at the functional_apps tile shapes (D = 768 with
// a 4 x 4 grid, i.e. 192-wide tiles; kmeans/nn/hotspot/srad chunks as their
// jobs cut them).
// --------------------------------------------------------------------------

namespace {

constexpr std::size_t kTile = 192;
constexpr std::size_t kDim = 768;

/// Calls `call` (after an untimed `prep`) until ~40 ms of kernel time have
/// accumulated, three times; returns work units per second (median).
template <typename Prep, typename Call>
double rate(double work_per_call, Prep&& prep, Call&& call) {
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint64_t busy = 0;
    int calls = 0;
    while (busy < 40'000'000 || calls < 3) {
      prep();
      const std::uint64_t t0 = now_ns();
      call();
      busy += now_ns() - t0;
      ++calls;
    }
    rates.push_back(work_per_call * calls / (static_cast<double>(busy) * 1e-9));
  }
  return median(rates);
}

std::vector<double> uniform(std::size_t n, std::uint32_t seed, double lo, double hi) {
  std::vector<double> v(n);
  ms::apps::fill_uniform(std::span<double>(v), seed, lo, hi);
  return v;
}

std::vector<float> uniform_f(std::size_t n, std::uint32_t seed, float lo, float hi) {
  std::vector<float> v(n);
  ms::apps::fill_uniform(std::span<float>(v), seed, lo, hi);
  return v;
}

}  // namespace

KernRates add_kern_layers(Metrics& m, SpanLog* spans) {
  namespace k = ms::kern;
  const k::par::ThreadScope one_thread(1);
  const std::uint64_t t_begin = now_ns();
  KernRates out;
  const auto gflops = [&](const char* name, double flops, auto prep, auto call) {
    const double g = rate(flops, prep, call) * 1e-9;
    m.push_back({std::string("kern.") + name + ".gflops", {g, "GFLOP/s"}});
    return g;
  };
  const auto gelem = [&](const char* name, double elems, auto prep, auto call) {
    m.push_back(
        {std::string("kern.") + name + ".gelem_s", {rate(elems, prep, call) * 1e-9, "Gelem/s"}});
  };
  const auto none = [] {};

  // mm: C tile (192 x 192) over the full k = 768 band.
  const auto a = uniform(kTile * kDim, 101, -1.0, 1.0);
  const auto b = uniform(kTile * kDim, 202, -1.0, 1.0);
  std::vector<double> c(kTile * kTile, 0.0);
  const auto zero_c = [&] { std::fill(c.begin(), c.end(), 0.0); };
  out.mm = gflops("gemm_tile", k::gemm_flops(kTile, kTile, kDim), zero_c, [&] {
    k::gemm_tile(a.data(), b.data(), c.data(), kTile, kTile, kDim, kDim, kTile, kTile);
  });
  (void)gflops("gemm_nt_acc", k::gemm_flops(kTile, kTile, kDim), zero_c, [&] {
    k::gemm_nt_acc(a.data(), b.data(), c.data(), kTile, kTile, kDim, kDim, kDim, kTile);
  });

  // cf / lu tile kernels on 192 x 192 tiles.
  std::vector<double> spd(kTile * kTile);
  ms::apps::fill_spd(std::span<double>(spd), kTile, 909);
  std::vector<double> work = spd;
  std::vector<double> factor = spd;
  (void)k::potrf_tile(factor.data(), kTile, kTile);
  std::vector<double> lu_factor = spd;
  (void)k::getrf_tile(lu_factor.data(), kTile, kTile);
  const auto sq_a = uniform(kTile * kTile, 11, 0.0, 1.0);
  const auto sq_b = uniform(kTile * kTile, 12, 0.0, 1.0);
  const auto reset_work = [&] { work = spd; };
  (void)gflops("potrf_tile", k::potrf_flops(kTile), reset_work,
               [&] { (void)k::potrf_tile(work.data(), kTile, kTile); });
  const auto reset_b = [&] { work = sq_b; };
  (void)gflops("trsm_tile", k::trsm_flops(kTile, kTile), reset_b,
               [&] { k::trsm_tile(factor.data(), work.data(), kTile, kTile, kTile, kTile); });
  (void)gflops("syrk_tile", k::syrk_flops(kTile, kTile), reset_work,
               [&] { k::syrk_tile(sq_a.data(), work.data(), kTile, kTile, kTile, kTile); });
  out.cf = gflops("gemm_nt_tile", k::gemm_flops(kTile, kTile, kTile), reset_work, [&] {
    k::gemm_nt_tile(sq_a.data(), sq_b.data(), work.data(), kTile, kTile, kTile, kTile, kTile,
                    kTile);
  });
  (void)gflops("getrf_tile", k::getrf_flops(kTile), reset_work,
               [&] { (void)k::getrf_tile(work.data(), kTile, kTile); });
  (void)gflops("trsm_lower_left", k::lu_trsm_flops(kTile, kTile), reset_b, [&] {
    k::trsm_lower_left(lu_factor.data(), work.data(), kTile, kTile, kTile, kTile);
  });
  out.lu = gflops("gemm_nn_sub", k::gemm_flops(kTile, kTile, kTile), reset_work, [&] {
    k::gemm_nn_sub(sq_a.data(), sq_b.data(), work.data(), kTile, kTile, kTile, kTile, kTile, kTile);
  });

  // kmeans: one chunk of the 50 000-point set cut into 4 tiles (the T=2 jobs).
  {
    constexpr std::size_t n = 12500, dims = 34, clusters = 8;
    const auto pts = uniform_f(n * dims, 11, 0.0f, 10.0f);
    const std::vector<float> cent(pts.begin(), pts.begin() + clusters * dims);
    std::vector<std::int32_t> member(n);
    (void)gflops("kmeans_assign", k::kmeans_assign_flops(n, dims, clusters), none, [&] {
      k::kmeans_assign(pts.data(), cent.data(), member.data(), n, dims, clusters);
    });
  }
  // hotspot: one 256 x 256 tile of the 1024^2 grid.
  {
    constexpr std::size_t dim = 1024, tile = 256;
    const auto temp = uniform(dim * dim, 31, 70.0, 90.0);
    const auto power = uniform(dim * dim, 32, 0.0, 0.5);
    std::vector<double> next(dim * dim);
    const k::HotspotParams p{};
    gelem("hotspot_step", k::hotspot_elems(tile, tile), none, [&] {
      k::hotspot_step(temp.data(), power.data(), next.data(), dim, dim, tile, 2 * tile, tile,
                      2 * tile, p);
    });
  }
  // srad: one 128 x 128 tile of the 512^2 image.
  {
    constexpr std::size_t dim = 512, tile = 128;
    auto j = uniform_f(dim * dim, 77, 0.1f, 1.0f);
    std::vector<float> cc(dim * dim), dn(dim * dim), ds(dim * dim), dw(dim * dim), de(dim * dim);
    (void)gflops("srad_coeff", ms::kern::srad_coeff_flops(tile, tile), none, [&] {
      k::srad_coeff(j.data(), cc.data(), dn.data(), ds.data(), dw.data(), de.data(), dim, dim,
                    tile, 2 * tile, tile, 2 * tile, 0.05);
    });
    const auto j0 = j;
    (void)gflops(
        "srad_update", ms::kern::srad_update_flops(tile, tile), [&] { j = j0; }, [&] {
          k::srad_update(j.data(), cc.data(), dn.data(), ds.data(), dw.data(), de.data(), dim,
                         dim, tile, 2 * tile, tile, 2 * tile, 0.5);
        });
  }
  // nn: one chunk of the 1M-record set cut into 16 tiles.
  {
    constexpr std::size_t n = (1u << 20) / 16;
    const auto raw = uniform_f(2 * n, 7, 0.0f, 90.0f);
    std::vector<k::LatLng> recs(n);
    for (std::size_t i = 0; i < n; ++i) recs[i] = {raw[2 * i], raw[2 * i + 1]};
    std::vector<float> dist(n);
    gelem("nn_distances", k::nn_elems(n), none,
          [&] { k::nn_distances(recs.data(), dist.data(), n, k::LatLng{40.0f, 120.0f}); });
  }
  span(spans, "kern.probe", "kern", t_begin, now_ns());
  return out;
}

}  // namespace msb
