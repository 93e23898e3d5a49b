#pragma once

// Job lists of the three workloads. A job is one public entry-point call of
// the program (one apps::*App::run or apps::HBench::* call), i.e. one
// simulated (P, T) configuration.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace msb {

enum class Workload : std::uint8_t { PaperSweep, FunctionalApps, ObservedReplay };

[[nodiscard]] const char* to_string(Workload w) noexcept;
/// Parses a workload name; returns false for an unknown one.
[[nodiscard]] bool parse_workload(const std::string& name, Workload& out);

/// What one job returns: its virtual time and a second fingerprint (the
/// functional checksum, or for timing-only jobs the entry point's secondary
/// output, e.g. the app's GFLOPS).
struct JobOut {
  double vms = 0.0;
  double check = 0.0;
  std::size_t spans = 0;  ///< timeline spans captured (tracing=true jobs)
};

struct Job {
  std::string name;  ///< unique key, also the golden-table key
  std::string app;   ///< mm, cf, lu, kmeans, hotspot, nn, srad or hbench
  double flops = 0.0;  ///< app total_flops for mm/cf/lu, else 0
  std::function<JobOut()> run;
  /// Functional jobs only: key of the streamed=false run at the same size
  /// whose checksum this job must match within `rel_tol`.
  std::string baseline;
  double rel_tol = 0.0;
  /// True when `check` depends on the seed (then only seed 0 has a golden
  /// checksum).
  bool seeded_check = false;
};

/// One streamed=false functional run that functional jobs are checked against.
struct Baseline {
  std::string key;
  std::function<double()> checksum;
};

struct JobList {
  std::vector<Job> jobs;
  std::vector<Baseline> baselines;
};

/// Builds the job list of `w`. Seed 0 is the reference order (the paper
/// grids in figure order); other seeds permute the order and, for nn, pick
/// the query point. The multiset of configurations is the same for every
/// seed, so a run's cost does not depend on it. `tiny` keeps a few cheap
/// jobs (the benchmark's self-test).
[[nodiscard]] JobList make_jobs(Workload w, std::uint64_t seed, bool tiny);

}  // namespace msb
