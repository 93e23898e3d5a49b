// mstream end-to-end benchmark: one harness, three workloads, a correctness
// gate, and a traced run that splits host time by layer. See ../README.md.
//
//   mstream_e2ebench --workload <paper_sweep|functional_apps|observed_replay>
//                    --seed N --seconds S --trace 0|1 [--tiny]
//                    [--corrupt-golden JOB] [--corrupt-actions JOB]
//                    [--trace-file PATH] [--commit SHA]
//   mstream_e2ebench --workload W [--seed N] [--tiny] --list-jobs
//   mstream_e2ebench --emit-golden PATH
//
// The last line of stdout is the result object; the line before it is the
// run context.

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"
#include "kern/par.hpp"
#include "sim/sweep.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"

namespace msb {

// --------------------------------------------------------------------------
// One pass
// --------------------------------------------------------------------------

namespace {

ProcUsage read_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), static_cast<double>(ru.ru_minflt)};
}

/// Resets the kernel's resident high-water mark (Linux >= 4.0); false when
/// /proc does not allow it.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

/// A /proc/self/status size field ("VmHWM: %ld kB") in MB; -1 when unreadable.
double status_mb(const char* format) {
  long kb = -1;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, format, &kb) == 1) break;
    }
    std::fclose(f);
  }
  return kb > 0 ? static_cast<double>(kb) / 1024.0 : -1.0;
}

/// Resident high-water mark in MB: VmHWM since the last reset, else the
/// process lifetime peak.
double peak_rss_mb() {
  const double hwm = status_mb("VmHWM: %ld kB");
  if (hwm > 0.0) return hwm;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace

Pass run_pass(const JobList& jl, const RunConfig& rc, SpanLog* spans) {
  const bool observed = rc.workload == Workload::ObservedReplay;
  (void)reset_peak_rss();
  Pass pass;
  const std::uint64_t pass_id = spans != nullptr ? spans->next_id() : 0;
  const ProcUsage u0 = read_usage();
  const std::uint64_t t0 = now_ns();

  const auto body = [&](std::size_t i) {
    const Job& job = jl.jobs[i];
    JobRun r;
    const std::uint64_t j0 = now_ns();
    try {
      r.out = job.run();
    } catch (const std::exception& e) {
      r.threw = true;
      r.error = e.what();
    } catch (...) {
      r.threw = true;
      r.error = "non-standard exception";
    }
    const std::uint64_t j1 = now_ns();
    std::uint64_t j2 = j1;
    if (observed) {
      // Scrape the registry the way a Prometheus client would.
      std::ostringstream os;
      ms::telemetry::write_prometheus(os, ms::telemetry::registry().snapshot());
      j2 = now_ns();
    }
    r.app_s = static_cast<double>(j1 - j0) * 1e-9;
    r.host_s = static_cast<double>(j2 - j0) * 1e-9;
    if (spans != nullptr) {
      const std::uint32_t tid = thread_index();
      const std::uint64_t job_id = spans->next_id();
      spans->add({"job", "bench", job_id, pass_id, tid, j0, j2});
      spans->add({"apps.run", "apps", spans->next_id(), job_id, tid, j0, j1});
      if (observed) {
        spans->add({"telemetry.scrape", "telemetry", spans->next_id(), job_id, tid, j1, j2});
      }
    }
    return r;
  };
  ms::sim::SweepOptions opt;
  opt.threads = rc.sweep_threads;
  pass.runs = ms::sim::parallel_map<JobRun>(jl.jobs.size(), body, opt);

  const std::uint64_t t1 = now_ns();
  const ProcUsage u1 = read_usage();
  pass.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  pass.usage = {u1.user_s - u0.user_s, u1.sys_s - u0.sys_s, u1.minor_faults - u0.minor_faults};
  pass.peak_rss_mb = peak_rss_mb();
  if (spans != nullptr) {
    spans->add({"sim.parallel_map", "sim", pass_id, 0, thread_index(), t0, t1});
  }
  return pass;
}

namespace {

// --------------------------------------------------------------------------
// Arguments and knobs
// --------------------------------------------------------------------------

struct Args {
  Workload workload = Workload::PaperSweep;
  bool have_workload = false;
  std::uint64_t seed = 0;
  double seconds = -1.0;  ///< required for a run; run.py supplies the default
  bool trace = false;
  bool tiny = false;
  std::string corrupt;
  std::string corrupt_actions;
  std::string trace_file;
  std::string commit = "unknown";
  std::string emit_golden;
  bool list_jobs = false;
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "mstream_e2ebench: " << msg << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto val = [&]() -> std::string {
      if (i + 1 >= argc) usage_error("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        if (!parse_workload(val(), a.workload)) usage_error("unknown workload");
        a.have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(val());
      } else if (k == "--seconds") {
        a.seconds = std::stod(val());
      } else if (k == "--trace") {
        a.trace = val() != "0";
      } else if (k == "--tiny") {
        a.tiny = true;
      } else if (k == "--corrupt-golden") {
        a.corrupt = val();
      } else if (k == "--corrupt-actions") {
        a.corrupt_actions = val();
      } else if (k == "--trace-file") {
        a.trace_file = val();
      } else if (k == "--commit") {
        a.commit = val();
      } else if (k == "--list-jobs") {
        a.list_jobs = true;
      } else if (k == "--emit-golden") {
        a.emit_golden = val();
      } else {
        usage_error("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + k);
    }
  }
  if (!a.have_workload && a.emit_golden.empty()) usage_error("--workload is required");
  if (a.seconds < 0.0 && a.emit_golden.empty() && !a.list_jobs) {
    usage_error("--seconds is required");
  }
  return a;
}

/// Pins the program's environment knobs so a run measures the serial engine,
/// no analyzer and no endpoint, whatever the caller's environment holds.
/// Telemetry is then set per workload with set_enabled.
void pin_knobs() {
  for (const char* k : {"MS_PAR_ENGINE", "MS_PAR_SPECULATE", "MS_PAR_SPEC_SLACK",
                        "MS_PAR_THREADS", "MS_ANALYZE", "MS_OBS_ADDR", "MS_METRICS"}) {
    unsetenv(k);
  }
  ms::telemetry::set_enabled(false);
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

bool telemetry_on(Workload w) { return w == Workload::ObservedReplay; }

// --------------------------------------------------------------------------
// Correctness gate
// --------------------------------------------------------------------------

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class Gate {
public:
  Gate(std::uint64_t seed, const std::map<std::string, double>& baselines)
      : seed_(seed), baselines_(baselines) {}

  /// Checks one pass; returns its failed-job count. The first checked pass
  /// becomes the reference every later pass (traced or not) must equal.
  std::size_t check(const JobList& jl, const Pass& pass) {
    std::size_t failed = 0;
    const bool first = reference_.empty();
    if (first) reference_.resize(jl.jobs.size());
    for (std::size_t i = 0; i < jl.jobs.size(); ++i) {
      const std::string why = check_job(jl.jobs[i], pass.runs[i], first, reference_[i]);
      if (why.empty()) continue;
      ++failed;
      if (reasons_.size() < 20) reasons_.push_back(jl.jobs[i].name + ": " + why);
    }
    return failed;
  }

  /// Checks a traced pass's runtime action count (`ms_rt_actions_total`,
  /// reset before the pass) against the golden table's per-job counts, the
  /// numerator of sim_actions_per_s. A mismatch is one failure: the table is
  /// stale for what the program now runs.
  std::size_t check_actions(const JobList& jl, std::uint64_t measured) {
    std::uint64_t want = 0;
    for (const Job& j : jl.jobs) {
      if (const GoldenEntry* g = find_golden(j.name)) want += g->actions;
    }
    if (measured == want) return 0;
    if (reasons_.size() < 20) {
      reasons_.push_back("pass ran " + std::to_string(measured) +
                         " runtime actions, the golden table says " + std::to_string(want) +
                         " (stale table)");
    }
    return 1;
  }

  [[nodiscard]] const std::vector<std::string>& reasons() const { return reasons_; }

private:
  std::string check_job(const Job& job, const JobRun& r, bool first, JobOut& ref) const {
    if (r.threw) return "threw: " + r.error;
    const JobOut& o = r.out;
    if (!std::isfinite(o.vms) || o.vms <= 0.0) return "virtual ms not finite and > 0";
    if (!std::isfinite(o.check)) return "checksum not finite";
    if (first) {
      ref = o;
    } else if (!same_bits(o.vms, ref.vms) || !same_bits(o.check, ref.check)) {
      return "differs from the run's first pass";
    }
    const GoldenEntry* g = find_golden(job.name);
    if (g == nullptr) return "no golden entry";
    if (!same_bits(o.vms, g->vms)) return "virtual ms differs from golden";
    if ((seed_ == 0 || !job.seeded_check) && !same_bits(o.check, g->check)) {
      return "checksum differs from golden";
    }
    if (!job.baseline.empty()) {
      const auto it = baselines_.find(job.baseline);
      if (it == baselines_.end()) return "baseline missing";
      const double b = it->second;
      if (!(std::abs(o.check - b) <= job.rel_tol * std::abs(b))) {
        return "checksum " + json_number(o.check) + " outside " + json_number(job.rel_tol) +
               " relative tolerance of the streamed=false baseline " + json_number(b);
      }
    }
    return {};
  }

  std::uint64_t seed_;
  const std::map<std::string, double>& baselines_;
  std::vector<JobOut> reference_;
  std::vector<std::string> reasons_;
};

// --------------------------------------------------------------------------
// Set-up: job list, baseline checksums, pool spin-up, one warm-up job per app
// --------------------------------------------------------------------------

struct Setup {
  JobList jobs;
  std::map<std::string, double> baselines;
  double seconds = 0.0;
};

Setup do_setup(const Args& a, const RunConfig& rc) {
  Setup s;
  const std::uint64_t t0 = now_ns();
  s.jobs = make_jobs(a.workload, a.seed, a.tiny);
  ms::sim::SweepOptions opt;
  opt.threads = rc.sweep_threads;
  const auto& bl = s.jobs.baselines;
  const auto checks = ms::sim::parallel_map<double>(
      bl.size(),
      [&](std::size_t i) {
        try {
          return bl[i].checksum();
        } catch (...) {
          return std::nan("");
        }
      },
      opt);
  for (std::size_t i = 0; i < bl.size(); ++i) {
    if (std::isfinite(checks[i])) s.baselines[bl[i].key] = checks[i];
  }
  ms::sim::parallel_for(static_cast<std::size_t>(rc.sweep_threads), [](std::size_t) {}, opt);
  // One warm-up job per app: the app's median job by recorded host time, so
  // code paths, allocator arenas and graph caches are warm and the set-up is
  // long enough to time.
  std::map<std::string, std::vector<std::pair<double, std::size_t>>> by_app;
  for (std::size_t i = 0; i < s.jobs.jobs.size(); ++i) {
    const GoldenEntry* g = find_golden(s.jobs.jobs[i].name);
    by_app[s.jobs.jobs[i].app].push_back({g != nullptr ? g->host_ms : 0.0, i});
  }
  std::vector<std::size_t> warm;
  for (auto& [app, jobs] : by_app) {
    std::sort(jobs.begin(), jobs.end());
    warm.push_back(jobs[(jobs.size() - 1) / 2].second);
  }
  ms::sim::parallel_for(
      warm.size(),
      [&](std::size_t k) {
        try {
          (void)s.jobs.jobs[warm[k]].run();
        } catch (...) {
          // A throwing job fails in the measured passes.
        }
      },
      opt);
  s.seconds = static_cast<double>(now_ns() - t0) * 1e-9;
  return s;
}

// --------------------------------------------------------------------------
// End-to-end metrics
// --------------------------------------------------------------------------

struct PassStats {
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  double actions_per_s = 0.0;
  double gflops = 0.0;
};

/// Index of the highest order statistic with at least ten samples beyond it.
std::size_t tail_index(std::size_t n) { return n > 10 ? n - 11 : n - 1; }

PassStats pass_stats(const JobList& jl, const Pass& p) {
  PassStats s;
  std::vector<double> ms;
  double actions = 0.0;
  double flops = 0.0;
  double flop_s = 0.0;
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    ms.push_back(p.runs[i].host_s * 1e3);
    if (const GoldenEntry* g = find_golden(jl.jobs[i].name)) {
      actions += static_cast<double>(g->actions);
    }
    if (jl.jobs[i].flops > 0.0) {
      flops += jl.jobs[i].flops;
      flop_s += p.runs[i].host_s;
    }
  }
  std::sort(ms.begin(), ms.end());
  s.p50_ms = median(ms);
  s.tail_ms = ms.empty() ? 0.0 : ms[tail_index(ms.size())];
  s.actions_per_s = p.wall_s > 0.0 ? actions / p.wall_s : 0.0;
  s.gflops = flop_s > 0.0 ? flops / flop_s * 1e-9 : 0.0;
  return s;
}

// --------------------------------------------------------------------------
// Output
// --------------------------------------------------------------------------

void print_result(bool correct, std::size_t attempted, std::size_t failed, const Metrics& m) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(m[i].first) << ": {\"value\": "
              << json_number(m[i].second.first) << ", \"unit\": " << json_string(m[i].second.second)
              << "}";
  }
  std::cout << "}}" << std::endl;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

bool release_build() { return std::string(MSB_BUILD_TYPE) == "Release"; }

struct RunInfo {
  std::size_t jobs = 0;
  std::size_t passes = 0;
  std::vector<double> warm_walls;
  std::size_t heap_trims = 0;
  double tail_percentile = 0.0;
  std::vector<double> setups;
  std::vector<double> pass_walls;
  std::vector<double> pass_sys;
};

void print_context(const Args& a, const RunConfig& rc, const RunInfo& info,
                   const std::vector<std::string>& failures) {
  std::cout << "{\"context\": {\"workload\": " << json_string(to_string(a.workload))
            << ", \"seed\": " << a.seed << ", \"trace\": " << (a.trace ? 1 : 0)
            << ", \"tiny\": " << (a.tiny ? "true" : "false") << ", \"nproc\": " << affinity_cpus()
            << ", \"sweep_threads\": " << rc.sweep_threads
            << ", \"kern_par_threads\": " << ms::kern::par::threads()
            << ", \"compiler\": " << json_string(compiler())
            << ", \"build_type\": " << json_string(MSB_BUILD_TYPE)
            << ", \"release\": " << (release_build() ? "true" : "false")
            << ", \"MS_NATIVE\": " << MSB_NATIVE << ", \"MS_TELEMETRY\": " << MSB_TELEMETRY
            << ", \"telemetry_on\": " << (telemetry_on(a.workload) ? "true" : "false")
            << ", \"commit\": " << json_string(a.commit) << ", \"jobs_per_pass\": " << info.jobs
            << ", \"passes\": " << info.passes << ", \"heap_trims\": " << info.heap_trims
            << ", \"GLIBC_TUNABLES\": " << json_string(env_or_empty("GLIBC_TUNABLES"))
            << ", \"job_ms_tail_percentile\": " << json_number(info.tail_percentile)
            << ", \"job_ms_tail_samples\": " << info.jobs << ", \"setup_runs_s\": [";
  for (std::size_t i = 0; i < info.setups.size(); ++i) {
    std::cout << (i ? ", " : "") << json_number(info.setups[i]);
  }
  std::cout << "], \"pass_wall_s\": [";
  for (std::size_t i = 0; i < info.pass_walls.size(); ++i) {
    std::cout << (i ? ", " : "") << json_number(info.pass_walls[i]);
  }
  std::cout << "], \"warm_pass_wall_s\": [";
  for (std::size_t i = 0; i < info.warm_walls.size(); ++i) {
    std::cout << (i ? ", " : "") << json_number(info.warm_walls[i]);
  }
  std::cout << "], \"pass_sys_s\": [";
  for (std::size_t i = 0; i < info.pass_sys.size(); ++i) {
    std::cout << (i ? ", " : "") << json_number(info.pass_sys[i]);
  }
  std::cout << "], \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::cout << (i ? ", " : "") << json_string(failures[i]);
  }
  std::cout << "]}}" << std::endl;
}

// --------------------------------------------------------------------------
// Golden table generation
// --------------------------------------------------------------------------

std::uint64_t actions_total() {
  for (const auto& m : ms::telemetry::registry().snapshot().metrics) {
    if (m.name == "ms_rt_actions_total") return m.counter;
  }
  return 0;
}

int emit_golden(const std::string& path) {
  if (!ms::telemetry::kCompiledIn) usage_error("--emit-golden needs MS_TELEMETRY=ON");
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) usage_error("cannot write " + path);
  ms::telemetry::set_enabled(true);
  std::fprintf(f, "// {job, virtual ms, checksum, runtime actions, host ms}: seed-0 results of\n"
                  "// every job, generated serially with telemetry on by\n"
                  "// mstream_e2ebench --emit-golden. Do not edit by hand.\n");
  for (const Workload w :
       {Workload::PaperSweep, Workload::FunctionalApps, Workload::ObservedReplay}) {
    const JobList jl = make_jobs(w, 0, false);
    for (const Job& j : jl.jobs) {
      const std::uint64_t a0 = actions_total();
      const std::uint64_t t0 = now_ns();
      const JobOut o = j.run();
      const double host_s = static_cast<double>(now_ns() - t0) * 1e-9;
      const std::uint64_t a1 = actions_total();
      std::fprintf(f, "{\"%s\", %a, %a, %llu, %.3f},\n", j.name.c_str(), o.vms, o.check,
                   static_cast<unsigned long long>(a1 - a0), host_s * 1e3);
      std::fprintf(stderr, "%-40s %10.4f s %12llu actions\n", j.name.c_str(), host_s,
                   static_cast<unsigned long long>(a1 - a0));
    }
  }
  std::fclose(f);
  return 0;
}

// --------------------------------------------------------------------------
// Run loop
// --------------------------------------------------------------------------

/// Untimed passes before the timed ones. Freed heap stays with the process
/// (run.py raises glibc's trim threshold), so after these the timed passes
/// reuse the memory earlier passes faulted in instead of faulting it again.
constexpr int kWarmPasses = 2;

/// Keeps resident memory bounded while freed heap stays with the process.
/// Each malloc arena keeps what the biggest job it ran needed. Should the
/// biggest jobs wander to arenas that have not held them yet, resident
/// memory after a pass exceeds twice the first pass's peak, and the heap is
/// trimmed once.
class HeapBound {
public:
  void after(const Pass& p) {
    if (first_peak_mb_ <= 0.0) first_peak_mb_ = p.peak_rss_mb;
#ifdef __GLIBC__
    if (status_mb("VmRSS: %ld kB") > 2.0 * first_peak_mb_) {
      malloc_trim(0);
      ++trims_;
    }
#endif
  }
  [[nodiscard]] std::size_t trims() const noexcept { return trims_; }
  /// Peak resident memory of the first pass, the one pass that starts from
  /// the heap the set-up left rather than from one earlier passes grew.
  [[nodiscard]] double first_peak_mb() const noexcept { return first_peak_mb_; }

private:
  double first_peak_mb_ = 0.0;
  std::size_t trims_ = 0;
};

int run(const Args& a) {
  RunConfig rc;
  rc.workload = a.workload;
  rc.sweep_threads = std::min(affinity_cpus(), 4);
  if (!a.corrupt.empty() && !corrupt_golden(a.corrupt)) usage_error("no golden entry " + a.corrupt);
  if (!a.corrupt_actions.empty() && !corrupt_golden_actions(a.corrupt_actions)) {
    usage_error("no golden entry " + a.corrupt_actions);
  }
  if (!release_build()) std::cerr << "WARNING: non-Release build (" << MSB_BUILD_TYPE << ")\n";
  ms::telemetry::set_enabled(telemetry_on(a.workload));

  RunInfo info;
  Setup setup;
  // Set up at least three times (once when traced); cheap set-ups repeat
  // until a second is spent, so their median is not one of a few noisy samples.
  double setup_total = 0.0;
  do {
    setup = do_setup(a, rc);
    info.setups.push_back(setup.seconds);
    setup_total += setup.seconds;
  } while (!a.trace && (info.setups.size() < 3 ||
                        (setup_total < 1.0 && info.setups.size() < 40)));
  const JobList& jl = setup.jobs;
  if (jl.jobs.empty()) usage_error("empty job list");
  info.jobs = jl.jobs.size();
  info.tail_percentile =
      100.0 * static_cast<double>(tail_index(jl.jobs.size()) + 1) /
      static_cast<double>(jl.jobs.size());
  Gate gate(a.seed, setup.baselines);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  HeapBound heap;
  // Every pass, warm-up or timed, traced or not, is checked.
  const auto checked_pass = [&](SpanLog* spans) {
    Pass p = run_pass(jl, rc, spans);
    attempted += p.runs.size();
    failed += gate.check(jl, p);
    heap.after(p);
    return p;
  };
  Metrics m;

  // Warm-up passes, checked but not timed: the heap grows to what the job
  // list needs and the arenas settle before anything is timed.
  Pass last_plain;
  for (int i = 0; i < kWarmPasses; ++i) {
    last_plain = checked_pass(nullptr);
    info.warm_walls.push_back(last_plain.wall_s);
  }
  const std::uint64_t start = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  if (!a.trace) {
    std::vector<Pass> passes;
    do {
      passes.push_back(checked_pass(nullptr));
    } while (passes.size() < 3 || elapsed() + passes.back().wall_s <= a.seconds);
    std::vector<double> wall, p50, tail, aps, gf;
    for (const Pass& p : passes) {
      const PassStats s = pass_stats(jl, p);
      wall.push_back(p.wall_s);
      p50.push_back(s.p50_ms);
      tail.push_back(s.tail_ms);
      aps.push_back(s.actions_per_s);
      gf.push_back(s.gflops);
    }
    info.passes = passes.size();
    info.pass_walls = wall;
    for (const Pass& p : passes) info.pass_sys.push_back(p.usage.sys_s);
    m.push_back({"setup_s", {median(info.setups), "s"}});
    m.push_back({"wall_s", {median(wall), "s"}});
    m.push_back({"job_ms_p50", {median(p50), "ms"}});
    m.push_back({"job_ms_tail", {median(tail), "ms"}});
    m.push_back({"sim_actions_per_s", {median(aps), "1/s"}});
    m.push_back({"host_gflops", {median(gf), "GFLOP/s"}});
    m.push_back({"peak_rss_mb", {heap.first_peak_mb(), "MB"}});
    m.push_back({"ok_frac",
                 {1.0 - static_cast<double>(failed) / static_cast<double>(attempted), "ratio"}});
  } else {
    // Untraced passes (the workload's own telemetry setting) alternate with
    // traced ones (telemetry on, benchmark spans recorded).
    SpanLog spans;
    std::vector<double> plain_wall, traced_wall;
    Metrics registry_layers;
    do {
      ms::telemetry::set_enabled(telemetry_on(a.workload));
      last_plain = checked_pass(nullptr);
      plain_wall.push_back(last_plain.wall_s);

      ms::telemetry::set_enabled(true);
      ms::telemetry::registry().reset_all();
      const Pass traced = checked_pass(&spans);
      if (ms::telemetry::kCompiledIn) failed += gate.check_actions(jl, actions_total());
      traced_wall.push_back(traced.wall_s);
      registry_layers.clear();
      add_registry_layers(registry_layers, traced, rc);
      add_telemetry_layers(registry_layers, &spans);
    } while (plain_wall.size() < 2 ||
             elapsed() + plain_wall.back() + traced_wall.back() <= a.seconds);
    info.passes = plain_wall.size() + traced_wall.size();
    info.pass_walls = plain_wall;
    m = registry_layers;
    m.push_back({"proc.user_s", {last_plain.usage.user_s, "s"}});
    m.push_back({"proc.sys_s", {last_plain.usage.sys_s, "s"}});
    m.push_back({"proc.minor_faults", {last_plain.usage.minor_faults, "count"}});

    const KernRates k = add_kern_layers(m, &spans);
    // App host rate from the last untraced pass, per app.
    const auto app_gflops = [&](const char* app) {
      double flops = 0.0;
      double secs = 0.0;
      for (std::size_t i = 0; i < jl.jobs.size(); ++i) {
        if (jl.jobs[i].app != app) continue;
        flops += jl.jobs[i].flops;
        secs += last_plain.runs[i].host_s;
      }
      return secs > 0.0 ? flops / secs * 1e-9 : 0.0;
    };
    m.push_back({"kern.efficiency.mm", {k.mm > 0.0 ? app_gflops("mm") / k.mm : 0.0, "ratio"}});
    m.push_back({"kern.efficiency.cf", {k.cf > 0.0 ? app_gflops("cf") / k.cf : 0.0, "ratio"}});
    m.push_back({"kern.efficiency.lu", {k.lu > 0.0 ? app_gflops("lu") / k.lu : 0.0, "ratio"}});
    add_telemetry_tax(m, &spans);
    m.push_back(
        {"bench.trace_overhead", {median(traced_wall) / median(plain_wall) - 1.0, "ratio"}});
    if (!a.trace_file.empty()) write_chrome_trace(a.trace_file, spans.take());
  }

  info.heap_trims = heap.trims();
  print_context(a, rc, info, gate.reasons());
  for (const std::string& why : gate.reasons()) std::cerr << "FAILED " << why << "\n";
  print_result(failed == 0, attempted, failed, m);
  return 0;
}

}  // namespace
}  // namespace msb

int main(int argc, char** argv) {
  msb::pin_knobs();
  const msb::Args a = msb::parse_args(argc, argv);
  try {
    if (!a.emit_golden.empty()) return msb::emit_golden(a.emit_golden);
    if (a.list_jobs) {
      for (const msb::Job& j : msb::make_jobs(a.workload, a.seed, a.tiny).jobs) {
        std::cout << j.name << "\n";
      }
      return 0;
    }
    return msb::run(a);
  } catch (const std::exception& e) {
    std::cerr << "mstream_e2ebench: " << e.what() << "\n";
    return 1;
  }
}
