#include "rt/tuner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "rt/context.hpp"

namespace ms::rt {
namespace {

sim::CoprocessorSpec phi() { return sim::SimConfig::phi_31sp().device; }

TEST(Tuner, PartitionCandidatesArePaperSet) {
  const auto p = Tuner::partition_candidates(phi());
  EXPECT_EQ(p, (std::vector<int>{2, 4, 7, 8, 14, 28, 56}));
}

TEST(Tuner, PartitionCandidatesCanIncludeOne) {
  TunerOptions opt;
  opt.include_single_partition = true;
  const auto p = Tuner::partition_candidates(phi(), opt);
  EXPECT_EQ(p.front(), 1);
}

TEST(Tuner, TileCandidatesAreMultiplesOfP) {
  const auto t = Tuner::tile_candidates(4);
  ASSERT_EQ(t.size(), 8u);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i], 4 * static_cast<int>(i + 1));
  }
}

TEST(Tuner, TileCandidatesRespectMultiplierBound) {
  TunerOptions opt;
  opt.max_multiplier = 3;
  EXPECT_EQ(Tuner::tile_candidates(7, opt), (std::vector<int>{7, 14, 21}));
}

TEST(Tuner, TileCandidatesInvalidPartitionsThrow) {
  EXPECT_THROW(Tuner::tile_candidates(0), std::invalid_argument);
}

TEST(Tuner, PrunedSpaceIsProductOfCandidates) {
  const auto space = Tuner::pruned_space(phi());
  EXPECT_EQ(space.size(), 7u * 8u);
  for (const auto& c : space) {
    EXPECT_EQ(c.tiles % c.partitions, 0);  // T = m*P (load balance heuristic)
    EXPECT_EQ(56 % c.partitions, 0);       // P in divisor set
  }
}

TEST(Tuner, PrunedSpaceIsMuchSmallerThanExhaustive) {
  // The paper's point: the heuristics shrink the "huge" search space.
  const auto pruned = Tuner::pruned_space(phi());
  const auto full = Tuner::exhaustive_space(phi(), 448);
  EXPECT_EQ(full.size(), 56u * 448u);
  EXPECT_LT(pruned.size() * 100, full.size());  // >100x reduction
}

TEST(Tuner, ExhaustiveSpaceInvalidThrows) {
  EXPECT_THROW(Tuner::exhaustive_space(phi(), 0), std::invalid_argument);
}

TEST(Tuner, SearchFindsMinimum) {
  const auto space = Tuner::pruned_space(phi());
  // Synthetic metric with a known optimum at P=8, T=16.
  const auto metric = [](Tuner::Candidate c) {
    return std::abs(c.partitions - 8) * 10.0 + std::abs(c.tiles - 16) + 1.0;
  };
  const auto r = Tuner::search(space, metric);
  EXPECT_EQ(r.best.partitions, 8);
  EXPECT_EQ(r.best.tiles, 16);
  EXPECT_DOUBLE_EQ(r.best_metric, 1.0);
  EXPECT_EQ(r.evaluated, space.size());
}

TEST(Tuner, SearchEmptyInputsThrow) {
  EXPECT_THROW((void)Tuner::search({}, [](Tuner::Candidate) { return 0.0; }), std::invalid_argument);
  const auto space = Tuner::pruned_space(phi());
  EXPECT_THROW((void)Tuner::search(space, {}), std::invalid_argument);
}

// One fixed space for the SearchOptions table: P=3 and P=5 split cores on
// the 56 usable cores (the lint pre-prune drops them), and (4,4) races —
// its two uploads of one range are unordered — while posting the best time.
const std::vector<Tuner::Candidate> kTableSpace = {{2, 4}, {3, 3}, {4, 4}, {5, 5},
                                                   {4, 8}, {7, 7}, {8, 8}};

double table_metric(Tuner::Candidate c) {
  static const std::map<std::pair<int, int>, double> kTime = {
      {{2, 4}, 5.0}, {{3, 3}, 3.0}, {{4, 4}, 0.0}, {{5, 5}, 1.0},
      {{4, 8}, 2.0}, {{7, 7}, 2.0}, {{8, 8}, 4.0}};
  Context ctx(sim::SimConfig::phi_31sp());
  ctx.setup(2);
  const auto buf = ctx.create_virtual_buffer(4096);
  const Event up = ctx.stream(0).enqueue_h2d(buf, 0, 4096);
  const bool racy = c.partitions == 4 && c.tiles == 4;
  ctx.stream(1).enqueue_h2d(buf, 0, 4096, racy ? std::vector<Event>{} : std::vector<Event>{up});
  ctx.synchronize();
  return kTime.at({c.partitions, c.tiles});
}

TEST(Tuner, SearchOptionsTable) {
  // Each row must hold serial and pooled alike: the reduction runs in
  // candidate order whatever the thread count.
  struct Row {
    bool validate;
    bool lint;
    Tuner::Candidate best;
    double best_metric;
    std::size_t evaluated, hazardous, pruned;
  };
  const Row rows[] = {
      {false, false, {4, 4}, 0.0, 7, 0, 0},  // the racy shape wins unchecked
      {true, false, {5, 5}, 1.0, 7, 1, 0},   // hazard excluded, split core wins
      {true, true, {4, 8}, 2.0, 5, 1, 2},    // split cores pruned; tie keeps (4,8)
  };
  const sim::CoprocessorSpec spec = phi();
  for (const int threads : {1, 0}) {
    for (const Row& row : rows) {
      SearchOptions opt;
      opt.sweep.threads = threads;
      opt.validate = row.validate;
      opt.lint = row.lint ? &spec : nullptr;
      const auto r = Tuner::search(kTableSpace, table_metric, opt);
      SCOPED_TRACE(testing::Message() << "threads " << threads << " validate " << row.validate
                                      << " lint " << row.lint);
      EXPECT_EQ(r.best.partitions, row.best.partitions);
      EXPECT_EQ(r.best.tiles, row.best.tiles);
      EXPECT_EQ(r.best_metric, row.best_metric);
      EXPECT_EQ(r.evaluated, row.evaluated);
      EXPECT_EQ(r.hazardous, row.hazardous);
      EXPECT_EQ(r.pruned, row.pruned);
    }
  }
}

TEST(Tuner, LintWithoutValidateThrows) {
  const sim::CoprocessorSpec spec = phi();
  for (const int threads : {1, 0}) {
    SearchOptions opt;
    opt.sweep.threads = threads;
    opt.lint = &spec;
    EXPECT_THROW((void)Tuner::search(kTableSpace, table_metric, opt), std::invalid_argument);
  }
}

TEST(Tuner, PrunedSpaceContainsPaperOptima) {
  // Fig. 9/10 best configurations must survive pruning: P=4 with T=4
  // (most apps), and CF's T=100-ish region requires a larger multiplier.
  const auto space = Tuner::pruned_space(phi());
  bool has_p4_t4 = false;
  for (const auto& c : space) has_p4_t4 |= (c.partitions == 4 && c.tiles == 4);
  EXPECT_TRUE(has_p4_t4);

  TunerOptions wide;
  wide.max_multiplier = 25;
  bool has_p4_t100 = false;
  for (const auto& c : Tuner::pruned_space(phi(), wide)) {
    has_p4_t100 |= (c.partitions == 4 && c.tiles == 100);
  }
  EXPECT_TRUE(has_p4_t100);
}

TEST(Tuner, GeneralizesToOtherDevices) {
  // A 61-core KNC (60 usable) has a different divisor set.
  sim::CoprocessorSpec spec = phi();
  spec.cores = 61;
  const auto p = Tuner::partition_candidates(spec);
  const std::set<int> got(p.begin(), p.end());
  EXPECT_TRUE(got.contains(2));
  EXPECT_TRUE(got.contains(3));
  EXPECT_TRUE(got.contains(60));
  EXPECT_FALSE(got.contains(7));  // 7 does not divide 60
}

}  // namespace
}  // namespace ms::rt
