#include "jobs.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "apps/cf_app.hpp"
#include "apps/hbench.hpp"
#include "apps/hotspot_app.hpp"
#include "apps/kmeans_app.hpp"
#include "apps/lu_app.hpp"
#include "apps/mm_app.hpp"
#include "apps/nn_app.hpp"
#include "apps/srad_app.hpp"
#include "harness.hpp"
#include "sim/sim_config.hpp"

namespace msb {

namespace apps = ms::apps;
using ms::sim::SimConfig;

const char* to_string(Workload w) noexcept {
  switch (w) {
    case Workload::PaperSweep: return "paper_sweep";
    case Workload::FunctionalApps: return "functional_apps";
    case Workload::ObservedReplay: return "observed_replay";
  }
  return "?";
}

bool parse_workload(const std::string& name, Workload& out) {
  for (const Workload w :
       {Workload::PaperSweep, Workload::FunctionalApps, Workload::ObservedReplay}) {
    if (name == to_string(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

namespace {

std::string str(std::size_t v) { return std::to_string(v); }
std::string str(int v) { return std::to_string(v); }

/// splitmix64: a fixed generator, so a seed names the same job list on every
/// standard library.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() noexcept {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() noexcept { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next() % i)]);
  }
}

/// Timing-only jobs fingerprint their secondary output (0 for apps that
/// report time), functional jobs their checksum.
JobOut app_out(const apps::AppResult& r) { return {r.ms, r.gflops, r.timeline.size()}; }
JobOut fn_out(const apps::AppResult& r) { return {r.ms, r.checksum, r.timeline.size()}; }

// ---------------------------------------------------------------------------
// paper_sweep: the timing-only points of Figs. 5-11 with the figure binaries'
// full-mode parameters (bench/fig*.cpp).
// ---------------------------------------------------------------------------

apps::CommonConfig sweep_common(int partitions, bool streamed = true) {
  apps::CommonConfig c;
  c.partitions = partitions;
  c.streamed = streamed;
  c.functional = false;
  c.tracing = false;
  c.protocol_iterations = 1;
  return c;
}

Job make_job(std::string name, std::string app, double flops, std::function<JobOut()> run) {
  Job j;
  j.name = std::move(name);
  j.app = std::move(app);
  j.flops = flops;
  j.run = std::move(run);
  return j;
}

Job mm_job(std::string name, int p, std::size_t dim, int grid, bool streamed = true) {
  apps::MmConfig mc;
  mc.common = sweep_common(p, streamed);
  mc.dim = dim;
  mc.tile_grid = grid;
  return make_job(std::move(name), "mm", apps::MmApp::total_flops(dim),
          [mc] { return app_out(apps::MmApp::run(SimConfig::phi_31sp(), mc)); });
}

Job cf_job(std::string name, int p, std::size_t dim, std::size_t tile, bool streamed = true,
           SimConfig cfg = SimConfig::phi_31sp()) {
  apps::CfConfig cc;
  cc.common = sweep_common(p, streamed);
  cc.dim = dim;
  if (streamed) cc.tile = tile;
  return make_job(std::move(name), "cf", apps::CfApp::total_flops(dim),
          [cc, cfg] { return app_out(apps::CfApp::run(cfg, cc)); });
}

Job kmeans_job(std::string name, int p, std::size_t points, int tiles, bool streamed = true) {
  apps::KmeansConfig kc;
  kc.common = sweep_common(p, streamed);
  kc.points = points;
  if (streamed) kc.tiles = tiles;
  kc.iterations = 100;
  return make_job(std::move(name), "kmeans", 0.0,
          [kc] { return app_out(apps::KmeansApp::run(SimConfig::phi_31sp(), kc)); });
}

Job hotspot_job(std::string name, int p, std::size_t dim, std::size_t tile,
                bool streamed = true) {
  apps::HotspotConfig hc;
  hc.common = sweep_common(p, streamed);
  hc.rows = hc.cols = dim;
  if (streamed) hc.tile_rows = hc.tile_cols = tile;
  hc.steps = 50;
  return make_job(std::move(name), "hotspot", 0.0,
          [hc] { return app_out(apps::HotspotApp::run(SimConfig::phi_31sp(), hc)); });
}

Job nn_job(std::string name, int p, std::size_t records, int tiles, bool streamed = true) {
  apps::NnConfig nc;
  nc.common = sweep_common(p, streamed);
  nc.records = records;
  if (streamed) nc.tiles = tiles;
  return make_job(std::move(name), "nn", 0.0,
          [nc] { return app_out(apps::NnApp::run(SimConfig::phi_31sp(), nc)); });
}

Job srad_job(std::string name, int p, std::size_t dim, std::size_t tile, bool streamed = true) {
  apps::SradConfig sc;
  sc.common = sweep_common(p, streamed);
  sc.rows = sc.cols = dim;
  if (streamed) sc.tile_rows = sc.tile_cols = tile;
  sc.iterations = 100;
  return make_job(std::move(name), "srad", 0.0,
          [sc] { return app_out(apps::SradApp::run(SimConfig::phi_31sp(), sc)); });
}

Job hbench_job(std::string name, std::function<JobOut()> run) {
  return make_job(std::move(name), "hbench", 0.0, std::move(run));
}

void fig05(std::vector<Job>& out) {
  constexpr std::size_t kBlock = 1u << 20;
  const auto pattern = [](int hd, int dh) {
    return [hd, dh] {
      return JobOut{apps::HBench::transfer_pattern(SimConfig::phi_31sp(), hd, dh, kBlock), 0.0,
                    0};
    };
  };
  for (int x = 0; x <= 16; ++x) {
    const std::string pre = "fig05/x=" + str(x) + "/";
    out.push_back(hbench_job(pre + "CC", pattern(16, 16)));
    out.push_back(hbench_job(pre + "IC", pattern(x, 16)));
    out.push_back(hbench_job(pre + "CD", pattern(16, 16 - x)));
    out.push_back(hbench_job(pre + "ID", pattern(x, 16 - x)));
  }
}

void fig06(std::vector<Job>& out) {
  constexpr std::size_t kElems = 4u << 20;
  for (int iters = 20; iters <= 60; iters += 5) {
    out.push_back(hbench_job("fig06/iters=" + str(iters), [iters] {
      const auto p = apps::HBench::overlap(SimConfig::phi_31sp(), kElems, iters, 4, 4);
      return JobOut{p.streamed_ms, p.data_ms + p.kernel_ms + p.serial_ms + p.ideal_ms, 0};
    }));
  }
}

void fig07(std::vector<Job>& out) {
  constexpr std::size_t kElems = 4u << 20;
  constexpr int kBlocks = 128;
  constexpr int kIters = 100;
  for (const int p : {1, 2, 4, 8, 16, 32, 64, 128}) {
    out.push_back(hbench_job("fig07/P=" + str(p), [p] {
      return JobOut{apps::HBench::spatial(SimConfig::phi_31sp(), p, kBlocks, kIters, kElems),
                    0.0, 0};
    }));
  }
  out.push_back(hbench_job("fig07/ref", [] {
    return JobOut{apps::HBench::spatial_ref(SimConfig::phi_31sp(), kIters, kElems), 0.0, 0};
  }));
}

void fig08(std::vector<Job>& out) {
  struct PT {
    int p;
    int tiles;
  };
  for (const std::size_t d : {2000u, 4000u, 6000u, 8000u, 10000u, 12000u}) {
    const std::string pre = "fig08a_mm/D=" + str(d);
    for (const int p : {2, 4, 8}) {
      for (const int grid : {2, 4, 8, 10}) {
        if (d % static_cast<std::size_t>(grid) != 0) continue;
        out.push_back(mm_job(pre + "/P=" + str(p) + "/g=" + str(grid), p, d, grid));
      }
    }
    out.push_back(mm_job(pre + "/base", 4, d, 1, false));
  }
  for (const std::size_t d : {7200u, 9600u, 12000u, 14400u, 16800u, 19200u}) {
    const std::string pre = "fig08b_cf/D=" + str(d);
    for (const int p : {4, 8}) {
      for (const int grid : {6, 8, 10, 12, 16}) {
        if (d % static_cast<std::size_t>(grid) != 0) continue;
        out.push_back(cf_job(pre + "/P=" + str(p) + "/g=" + str(grid), p, d,
                             d / static_cast<std::size_t>(grid)));
      }
    }
    out.push_back(cf_job(pre + "/base", 4, d, d, false));
  }
  for (const std::size_t n : {140000u, 280000u, 560000u, 1120000u, 2240000u}) {
    const std::string pre = "fig08c_kmeans/N=" + str(n);
    for (const PT c : {PT{14, 28}, PT{28, 28}, PT{28, 56}, PT{56, 56}, PT{56, 112}}) {
      out.push_back(kmeans_job(pre + "/P=" + str(c.p) + "/T=" + str(c.tiles), c.p, n, c.tiles));
    }
    out.push_back(kmeans_job(pre + "/base", 4, n, 1, false));
  }
  for (const std::size_t d : {1024u, 2048u, 4096u, 8192u, 16384u}) {
    const std::string pre = "fig08d_hotspot/D=" + str(d);
    for (const PT c : {PT{4, 2}, PT{4, 4}, PT{34, 8}}) {
      out.push_back(hotspot_job(pre + "/P=" + str(c.p) + "/g=" + str(c.tiles), c.p, d,
                                d / static_cast<std::size_t>(c.tiles)));
    }
    out.push_back(hotspot_job(pre + "/base", 4, d, d, false));
  }
  for (const std::size_t n :
       {128u * 1024u, 256u * 1024u, 512u * 1024u, 1024u * 1024u, 2048u * 1024u}) {
    const std::string pre = "fig08e_nn/N=" + str(n);
    for (const PT c : {PT{2, 2}, PT{4, 4}, PT{4, 8}, PT{4, 16}, PT{8, 32}}) {
      out.push_back(nn_job(pre + "/P=" + str(c.p) + "/T=" + str(c.tiles), c.p, n, c.tiles));
    }
    out.push_back(nn_job(pre + "/base", 4, n, 1, false));
  }
  for (const std::size_t d : {1000u, 2000u, 4000u, 5000u, 10000u}) {
    const std::string pre = "fig08f_srad/D=" + str(d);
    for (const PT c : {PT{2, 2}, PT{4, 2}, PT{4, 4}, PT{4, 10}, PT{4, 20}}) {
      out.push_back(srad_job(pre + "/P=" + str(c.p) + "/g=" + str(c.tiles), c.p, d,
                             d / static_cast<std::size_t>(c.tiles)));
    }
    out.push_back(srad_job(pre + "/base", 4, d, d, false));
  }
}

void fig09(std::vector<Job>& out) {
  for (int p = 1; p <= 56; ++p) {
    const std::string ps = "/P=" + str(p);
    out.push_back(mm_job("fig09a_mm" + ps, p, 6000, 12));
    out.push_back(cf_job("fig09b_cf" + ps, p, 9600, 800));
    out.push_back(kmeans_job("fig09c_kmeans" + ps, p, 1120000, 56));
    out.push_back(hotspot_job("fig09d_hotspot" + ps, p, 16384, 1024));
    out.push_back(nn_job("fig09e_nn" + ps, p, 5242880, 512));
    out.push_back(srad_job("fig09f_srad" + ps, p, 10000, 500));
  }
}

void fig10(std::vector<Job>& out) {
  for (const int g : {1, 2, 3, 4, 5, 6, 10, 12, 15, 20}) {
    out.push_back(mm_job("fig10a_mm/T=" + str(g * g), 4, 6000, g));
  }
  for (const int g : {2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 20}) {
    out.push_back(cf_job("fig10b_cf/T=" + str(g * g), 4, 9600,
                         9600 / static_cast<std::size_t>(g)));
  }
  for (const int t : {1, 2, 4, 8, 16, 20, 28, 32, 56, 112, 224}) {
    out.push_back(kmeans_job("fig10c_kmeans/T=" + str(t), 4, 1120000, t));
  }
  for (const std::size_t g : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
    out.push_back(hotspot_job("fig10d_hotspot/T=" + str(g * g), 4, 16384, 16384 / g));
  }
  for (int e = 0; e <= 11; ++e) {
    out.push_back(nn_job("fig10e_nn/T=" + str(1 << e), 4, 5242880, 1 << e));
  }
  for (const std::size_t g : {1u, 2u, 3u, 4u, 5u, 10u, 13u, 20u, 25u, 50u, 100u}) {
    out.push_back(srad_job("fig10f_srad/T=" + str(g * g), 4, 10000, 10000 / g));
  }
}

void fig11(std::vector<Job>& out) {
  for (const std::size_t d : {14000u, 16000u}) {
    out.push_back(cf_job("fig11/D=" + str(d) + "/mic=1", 4, d, d / 10, true,
                         SimConfig::phi_31sp()));
    out.push_back(cf_job("fig11/D=" + str(d) + "/mic=2", 4, d, d / 10, true,
                         SimConfig::phi_31sp_x2()));
  }
}

// ---------------------------------------------------------------------------
// functional_apps: real payloads and timeline capture at moderate sizes.
// Tolerances are the app tests' streamed-vs-baseline tolerances, except
// kmeans: its jobs differ from the baseline in tiling, so they get the test's
// across-tiling tolerance (1e-3; per-tile float accumulation order flips a
// few memberships over 20 iterations).
// ---------------------------------------------------------------------------

apps::CommonConfig functional_common(int partitions, bool streamed) {
  apps::CommonConfig c;
  c.partitions = partitions;
  c.streamed = streamed;
  c.functional = true;
  c.tracing = streamed;  // the baseline is a reference value, not a timed job
  c.protocol_iterations = 2;
  return c;
}

struct Grid {
  int p;
  int t;  ///< tile-grid edge (2-D apps) or tile count (1-D apps)
};
constexpr Grid kFunctionalGrid[] = {{2, 2}, {4, 2}, {4, 4}, {8, 4}};

constexpr std::size_t kFnMatDim = 768;
constexpr std::size_t kFnKmPoints = 50000;
constexpr int kFnKmIters = 20;
constexpr std::size_t kFnHsDim = 1024;
constexpr std::size_t kFnNnRecords = 1u << 20;
constexpr std::size_t kFnSradDim = 512;
constexpr int kFnSradIters = 20;

apps::MmConfig fn_mm(int p, int g, bool streamed) {
  apps::MmConfig c;
  c.common = functional_common(p, streamed);
  c.dim = kFnMatDim;
  c.tile_grid = streamed ? g : 1;
  return c;
}
apps::CfConfig fn_cf(int p, int g, bool streamed) {
  apps::CfConfig c;
  c.common = functional_common(p, streamed);
  c.dim = kFnMatDim;
  c.tile = streamed ? kFnMatDim / static_cast<std::size_t>(g) : kFnMatDim;
  return c;
}
apps::LuConfig fn_lu(int p, int g, bool streamed) {
  apps::LuConfig c;
  c.common = functional_common(p, streamed);
  c.dim = kFnMatDim;
  c.tile = streamed ? kFnMatDim / static_cast<std::size_t>(g) : kFnMatDim;
  return c;
}
apps::KmeansConfig fn_kmeans(int p, int t, bool streamed) {
  apps::KmeansConfig c;
  c.common = functional_common(p, streamed);
  c.points = kFnKmPoints;
  c.iterations = kFnKmIters;
  c.tiles = streamed ? t * 2 : 1;
  return c;
}
apps::HotspotConfig fn_hotspot(int p, int g, bool streamed) {
  apps::HotspotConfig c;
  c.common = functional_common(p, streamed);
  c.rows = c.cols = kFnHsDim;
  c.tile_rows = c.tile_cols = streamed ? kFnHsDim / static_cast<std::size_t>(g) : kFnHsDim;
  c.steps = 20;
  return c;
}
apps::NnConfig fn_nn(int p, int t, bool streamed, ms::kern::LatLng target) {
  apps::NnConfig c;
  c.common = functional_common(p, streamed);
  c.records = kFnNnRecords;
  c.tiles = streamed ? t * 4 : 1;
  c.target = target;
  return c;
}
apps::SradConfig fn_srad(int p, int g, bool streamed) {
  apps::SradConfig c;
  c.common = functional_common(p, streamed);
  c.rows = c.cols = kFnSradDim;
  c.tile_rows = c.tile_cols = streamed ? kFnSradDim / static_cast<std::size_t>(g) : kFnSradDim;
  c.iterations = kFnSradIters;
  return c;
}

template <typename Run>
Job fn_job(std::string app, const Grid& g, double flops, double tol, Run run) {
  Job j = make_job(app + "/P=" + str(g.p) + "/T=" + str(g.t), app, flops,
                   [run, g] { return run(g.p, g.t, true); });
  j.baseline = app + "/base";
  j.rel_tol = tol;
  return j;
}

template <typename Run>
Baseline fn_base(const std::string& app, Run run) {
  return {app + "/base", [run] { return run(1, 1, false).check; }};
}

void functional(JobList& out, ms::kern::LatLng target) {
  const SimConfig cfg = SimConfig::phi_31sp();
  const auto mm = [cfg](int p, int g, bool s) {
    return fn_out(apps::MmApp::run(cfg, fn_mm(p, g, s)));
  };
  const auto cf = [cfg](int p, int g, bool s) {
    return fn_out(apps::CfApp::run(cfg, fn_cf(p, g, s)));
  };
  const auto lu = [cfg](int p, int g, bool s) {
    return fn_out(apps::LuApp::run(cfg, fn_lu(p, g, s)));
  };
  const auto km = [cfg](int p, int t, bool s) {
    return fn_out(apps::KmeansApp::run(cfg, fn_kmeans(p, t, s)));
  };
  const auto hs = [cfg](int p, int g, bool s) {
    return fn_out(apps::HotspotApp::run(cfg, fn_hotspot(p, g, s)));
  };
  const auto nn = [cfg, target](int p, int t, bool s) {
    return fn_out(apps::NnApp::run(cfg, fn_nn(p, t, s, target)));
  };
  const auto sr = [cfg](int p, int g, bool s) {
    return fn_out(apps::SradApp::run(cfg, fn_srad(p, g, s)));
  };
  for (const Grid& g : kFunctionalGrid) {
    out.jobs.push_back(fn_job("mm", g, apps::MmApp::total_flops(kFnMatDim), 1e-6, mm));
    out.jobs.push_back(fn_job("cf", g, apps::CfApp::total_flops(kFnMatDim), 1e-6, cf));
    out.jobs.push_back(fn_job("lu", g, apps::LuApp::total_flops(kFnMatDim), 1e-6, lu));
    out.jobs.push_back(fn_job("kmeans", g, 0.0, 1e-3, km));
    out.jobs.push_back(fn_job("hotspot", g, 0.0, 1e-9, hs));
    out.jobs.push_back(fn_job("nn", g, 0.0, 1e-5, nn));
    out.jobs.back().seeded_check = true;
    out.jobs.push_back(fn_job("srad", g, 0.0, 1e-5, sr));
  }
  out.baselines = {fn_base("mm", mm), fn_base("cf", cf),     fn_base("lu", lu),
                   fn_base("kmeans", km), fn_base("hotspot", hs), fn_base("nn", nn),
                   fn_base("srad", sr)};
}

// ---------------------------------------------------------------------------
// observed_replay: timing-only, GraphMode::Compiled, many protocol replays.
// ---------------------------------------------------------------------------

apps::CommonConfig replay_common(int partitions) {
  apps::CommonConfig c;
  c.partitions = partitions;
  c.functional = false;
  c.tracing = false;
  c.protocol_iterations = 40;
  c.graph = apps::GraphMode::Compiled;
  return c;
}

void replay(std::vector<Job>& out) {
  const SimConfig cfg = SimConfig::phi_31sp();
  for (const Grid& g : kFunctionalGrid) {
    const std::string key = "/P=" + str(g.p) + "/T=" + str(g.t);
    {
      apps::MmConfig c;
      c.common = replay_common(g.p);
      c.dim = 4800;
      c.tile_grid = g.t * 6;
      out.push_back(make_job("mm" + key, "mm", apps::MmApp::total_flops(c.dim),
                     [cfg, c] { return app_out(apps::MmApp::run(cfg, c)); }));
    }
    {
      apps::CfConfig c;
      c.common = replay_common(g.p);
      c.dim = 4800;
      c.tile = c.dim / static_cast<std::size_t>(g.t * 6);
      out.push_back(make_job("cf" + key, "cf", apps::CfApp::total_flops(c.dim),
                     [cfg, c] { return app_out(apps::CfApp::run(cfg, c)); }));
    }
    {
      apps::LuConfig c;
      c.common = replay_common(g.p);
      c.dim = 4800;
      c.tile = c.dim / static_cast<std::size_t>(g.t * 6);
      out.push_back(make_job("lu" + key, "lu", apps::LuApp::total_flops(c.dim),
                     [cfg, c] { return app_out(apps::LuApp::run(cfg, c)); }));
    }
    {
      apps::KmeansConfig c;
      c.common = replay_common(g.p);
      c.points = 560000;
      c.tiles = g.t * 4;
      c.iterations = 100;
      out.push_back(make_job("kmeans" + key, "kmeans", 0.0,
                     [cfg, c] { return app_out(apps::KmeansApp::run(cfg, c)); }));
    }
    {
      apps::HotspotConfig c;
      c.common = replay_common(g.p);
      c.rows = c.cols = 8192;
      c.tile_rows = c.tile_cols = 8192 / static_cast<std::size_t>(g.t * 4);
      c.steps = 20;
      out.push_back(make_job("hotspot" + key, "hotspot", 0.0,
                     [cfg, c] { return app_out(apps::HotspotApp::run(cfg, c)); }));
    }
    {
      apps::NnConfig c;
      c.common = replay_common(g.p);
      c.records = 2u << 20;
      c.tiles = g.t * 128;
      out.push_back(make_job("nn" + key, "nn", 0.0,
                     [cfg, c] { return app_out(apps::NnApp::run(cfg, c)); }));
    }
    {
      apps::SradConfig c;
      c.common = replay_common(g.p);
      c.rows = c.cols = 4000;
      c.tile_rows = c.tile_cols = 4000 / static_cast<std::size_t>(g.t * 2);
      c.iterations = 25;
      out.push_back(make_job("srad" + key, "srad", 0.0,
                     [cfg, c] { return app_out(apps::SradApp::run(cfg, c)); }));
    }
  }
  for (Job& j : out) j.name = "replay/" + j.name;
}

/// The self-test's cheap subsets.
bool tiny_keep(Workload w, const Job& j) {
  switch (w) {
    case Workload::PaperSweep:
      return j.app == "hbench" || j.name.rfind("fig10e_nn/", 0) == 0 ||
             j.name == "fig10a_mm/T=1" || j.name == "fig10a_mm/T=4";
    case Workload::FunctionalApps:
      return j.app == "nn" || j.app == "hotspot" || j.app == "srad" || j.name == "mm/P=2/T=2";
    case Workload::ObservedReplay:
      return j.app == "nn" || j.app == "mm" || j.app == "srad";
  }
  return false;
}

}  // namespace

JobList make_jobs(Workload w, std::uint64_t seed, bool tiny) {
  JobList out;
  Rng rng{seed};
  switch (w) {
    case Workload::PaperSweep:
      fig05(out.jobs);
      fig06(out.jobs);
      fig07(out.jobs);
      fig08(out.jobs);
      fig09(out.jobs);
      fig10(out.jobs);
      fig11(out.jobs);
      break;
    case Workload::FunctionalApps: {
      ms::kern::LatLng target{40.0f, 120.0f};
      if (seed != 0) {
        target.lat = static_cast<float>(30.0 + 20.0 * rng.uniform());
        target.lng = static_cast<float>(110.0 + 20.0 * rng.uniform());
      }
      functional(out, target);
      break;
    }
    case Workload::ObservedReplay:
      replay(out.jobs);
      break;
  }
  if (tiny) {
    std::erase_if(out.jobs, [w](const Job& j) { return !tiny_keep(w, j); });
    std::erase_if(out.baselines, [&out](const Baseline& b) {
      return std::none_of(out.jobs.begin(), out.jobs.end(),
                          [&b](const Job& j) { return j.baseline == b.key; });
    });
  }
  if (seed != 0) shuffle(out.jobs, rng);
  // Jobs that took at least 1/32 of the list's recorded serial host time go
  // first, longest first, so a pass's wall is set by its longest job rather
  // than by where the seed put it.
  std::vector<double> ms(out.jobs.size(), 0.0);
  double total_ms = 0.0;
  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    if (const GoldenEntry* g = find_golden(out.jobs[i].name)) ms[i] = g->host_ms;
    total_ms += ms[i];
  }
  std::vector<std::size_t> order(out.jobs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto long_ms = [&](std::size_t i) { return ms[i] >= total_ms / 32.0 ? ms[i] : 0.0; };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return long_ms(a) > long_ms(b); });
  std::vector<Job> sorted;
  sorted.reserve(order.size());
  for (const std::size_t i : order) sorted.push_back(std::move(out.jobs[i]));
  out.jobs = std::move(sorted);
  return out;
}

}  // namespace msb
