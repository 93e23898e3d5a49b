#pragma once

// Types shared by the benchmark's run loop (main.cpp), its per-layer probes
// (layers.cpp) and its output (report.cpp).

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "jobs.hpp"

namespace msb {

// --------------------------------------------------------------------------
// Golden table: seed-0 results recorded when the benchmark was defined.
// --------------------------------------------------------------------------

struct GoldenEntry {
  const char* name;
  double vms;             ///< virtual ms, compared bit-exactly
  double check;           ///< checksum / secondary output, compared bit-exactly
  std::uint64_t actions;  ///< runtime actions of one call, counted once
  double host_ms;         ///< serial host ms when recorded; orders long jobs first
};

[[nodiscard]] const GoldenEntry* find_golden(const std::string& name);
/// Flips the low bit of one entry's virtual ms (the self-test's corrupted
/// entry). Returns false when no entry has that name.
bool corrupt_golden(const std::string& name);
/// Adds one to an entry's runtime action count (the self-test's stale action
/// table). Returns false when no entry has that name.
bool corrupt_golden_actions(const std::string& name);

// --------------------------------------------------------------------------
// Benchmark-side spans: recorded in memory around each call into a layer,
// written out as a Chrome trace at exit.
// --------------------------------------------------------------------------

struct SpanRec {
  const char* name;
  const char* layer;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root
  std::uint32_t tid;
  std::uint64_t t0_ns;
  std::uint64_t t1_ns;
};

class SpanLog {
public:
  [[nodiscard]] std::uint64_t next_id() noexcept;
  void add(SpanRec s);
  [[nodiscard]] std::vector<SpanRec> take();

private:
  std::mutex mu_;
  std::vector<SpanRec> spans_;  // guarded by mu_
  std::uint64_t next_ = 1;      // guarded by mu_
};

[[nodiscard]] std::uint64_t now_ns() noexcept;
[[nodiscard]] std::uint32_t thread_index() noexcept;

// --------------------------------------------------------------------------
// One pass over a job list.
// --------------------------------------------------------------------------

struct JobRun {
  JobOut out;
  double host_s = 0.0;  ///< whole job body (app call + scrape when observed)
  double app_s = 0.0;   ///< the entry-point call alone
  bool threw = false;
  std::string error;
};

struct ProcUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double minor_faults = 0.0;
};

struct Pass {
  double wall_s = 0.0;
  std::vector<JobRun> runs;
  ProcUsage usage;      ///< getrusage delta around the pass
  double peak_rss_mb = 0.0;  ///< resident high-water mark during the pass
};

struct RunConfig {
  Workload workload = Workload::PaperSweep;
  int sweep_threads = 1;  ///< SweepOptions::threads for pooled workloads
};

/// Runs every job once through one sim::parallel_map on the sweep pool;
/// observed_replay also scrapes the registry after each job, on the job's
/// thread, while the other threads' jobs keep updating it.
/// `spans` (may be null) receives the benchmark-side spans.
[[nodiscard]] Pass run_pass(const JobList& jl, const RunConfig& rc, SpanLog* spans);

/// Metrics keyed by name: (value, unit).
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

// --------------------------------------------------------------------------
// Per-layer probes (layers.cpp).
// --------------------------------------------------------------------------

/// Layer counters read from the program's ms_* families in a registry
/// snapshot; `pass` is the traced pass the registry was reset before.
void add_registry_layers(Metrics& m, const Pass& pass, const RunConfig& rc);
/// kern.* rates at the functional_apps tile shapes, one kernel thread (the
/// thread count a functional job's kernels get inside a sweep job).
/// Returns the gemm_tile, gemm_nt_tile and gemm_nn_sub rates (GFLOP/s) for
/// the efficiency ratios.
struct KernRates {
  double mm = 0.0;
  double cf = 0.0;
  double lu = 0.0;
};
[[nodiscard]] KernRates add_kern_layers(Metrics& m, SpanLog* spans);
/// telemetry.snapshot_us / export_us / series on the registry as the traced
/// pass left it.
void add_telemetry_layers(Metrics& m, SpanLog* spans);
/// telemetry.tax: the replay job list with metrics on vs. off, interleaved.
void add_telemetry_tax(Metrics& m, SpanLog* spans);

// --------------------------------------------------------------------------
// Output (report.cpp).
// --------------------------------------------------------------------------

[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);
void write_chrome_trace(const std::string& path, const std::vector<SpanRec>& spans);

[[nodiscard]] double median(std::vector<double> v);

}  // namespace msb
