#include "sched/johnson.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "sched/bruteforce.h"
#include "sched/makespan.h"
#include "util/rng.h"

namespace jps::sched {
namespace {

JobList make_jobs(std::initializer_list<std::pair<double, double>> fg) {
  JobList jobs;
  int id = 0;
  for (const auto& [f, g] : fg)
    jobs.push_back(Job{.id = id++, .cut = -1, .f = f, .g = g});
  return jobs;
}

TEST(Johnson, SplitsIntoS1AndS2) {
  // f < g -> S1 (ascending f); f >= g -> S2 (descending g).
  const JobList jobs = make_jobs({{5, 1}, {1, 9}, {3, 4}, {8, 2}});
  const JohnsonSchedule s = johnson_order(jobs);
  EXPECT_EQ(s.comm_heavy_count, 2u);
  // S1: jobs 1 (f=1) then 2 (f=3); S2: job 3 (g=2) then 0 (g=1).
  EXPECT_EQ(s.order, (std::vector<std::size_t>{1, 2, 3, 0}));
}

TEST(Johnson, EqualStagesGoToS2) {
  const JobList jobs = make_jobs({{4, 4}});
  const JohnsonSchedule s = johnson_order(jobs);
  EXPECT_EQ(s.comm_heavy_count, 0u);
}

TEST(Johnson, DeterministicTieBreaking) {
  const JobList jobs = make_jobs({{2, 5}, {2, 5}, {2, 5}});
  const JohnsonSchedule s = johnson_order(jobs);
  EXPECT_EQ(s.order, (std::vector<std::size_t>{0, 1, 2}));
}

TEST(Johnson, EmptyJobList) {
  const JobList jobs;
  const JohnsonSchedule s = johnson_order(jobs);
  EXPECT_TRUE(s.order.empty());
}

TEST(Johnson, RejectsNegativeStageLengths) {
  EXPECT_THROW(johnson_order(make_jobs({{-1, 2}})), std::invalid_argument);
  EXPECT_THROW(johnson_order(make_jobs({{1, -2}})), std::invalid_argument);
}

TEST(Johnson, SortedAndShuffledInputsGiveTheSameSequence) {
  // The comparators break ties by index, so the sorted permutation is
  // unique: a pre-sorted input (which skips the sort) must come back as the
  // identity, and any shuffle of it must schedule the same key sequence.
  util::Rng rng(53);
  for (int trial = 0; trial < 200; ++trial) {
    JobList jobs;
    const int n = static_cast<int>(rng.uniform_int(0, 40));
    for (int i = 0; i < n; ++i) {
      // Few distinct values, so ties are common on both sides.
      jobs.push_back(Job{.id = i,
                         .cut = -1,
                         .f = static_cast<double>(rng.uniform_int(0, 4)),
                         .g = static_cast<double>(rng.uniform_int(0, 4))});
    }
    const JobList sorted = apply_order(jobs, johnson_order(jobs).order);
    const JohnsonSchedule again = johnson_order(sorted);
    for (std::size_t i = 0; i < again.order.size(); ++i)
      ASSERT_EQ(again.order[i], i) << "trial " << trial;

    JobList shuffled = sorted;
    for (std::size_t i = shuffled.size(); i > 1; --i)
      std::swap(shuffled[i - 1],
                shuffled[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(i) - 1))]);
    const JohnsonSchedule from_shuffled = johnson_order(shuffled);
    EXPECT_EQ(from_shuffled.comm_heavy_count, again.comm_heavy_count);
    // Jobs that tie on the sort key may swap with their indices; the keys
    // (f in S1, g in S2) must line up.
    const JobList resorted = apply_order(shuffled, from_shuffled.order);
    for (std::size_t i = 0; i < resorted.size(); ++i) {
      if (i < again.comm_heavy_count) {
        EXPECT_EQ(resorted[i].f, sorted[i].f) << "trial " << trial;
      } else {
        EXPECT_EQ(resorted[i].g, sorted[i].g) << "trial " << trial;
      }
    }
  }
}

TEST(Johnson, LanesGiveTheJobSchedule) {
  // The lane overload must return the Job-span schedule: same permutation
  // and S1 count, on shuffled and on already sorted tie-heavy inputs.
  util::Rng rng(59);
  for (int trial = 0; trial < 400; ++trial) {
    JobList jobs;
    const int n = static_cast<int>(rng.uniform_int(0, 12));
    for (int i = 0; i < n; ++i) {
      jobs.push_back(Job{.id = i,
                         .cut = -1,
                         .f = static_cast<double>(rng.uniform_int(0, 3)),
                         .g = static_cast<double>(rng.uniform_int(0, 3))});
    }
    if (trial % 2 == 0) jobs = apply_order(jobs, johnson_order(jobs).order);
    std::vector<double> f;
    std::vector<double> g;
    for (const Job& job : jobs) {
      f.push_back(job.f);
      g.push_back(job.g);
    }
    const JohnsonSchedule want = johnson_order(jobs);
    const JohnsonSchedule got = johnson_order(f, g);
    EXPECT_EQ(got.order, want.order) << "trial " << trial;
    EXPECT_EQ(got.comm_heavy_count, want.comm_heavy_count) << "trial " << trial;
  }
  const std::vector<double> negative = {1.0, -1.0};
  const std::vector<double> positive = {1.0, 1.0};
  EXPECT_THROW((void)johnson_order(negative, positive), std::invalid_argument);
  EXPECT_THROW((void)johnson_order(positive, {}), std::invalid_argument);
}

TEST(ApplyOrder, ReordersAndValidates) {
  const JobList jobs = make_jobs({{1, 2}, {3, 4}});
  const std::vector<std::size_t> order{1, 0};
  const JobList reordered = apply_order(jobs, order);
  EXPECT_EQ(reordered[0].id, 1);
  EXPECT_EQ(reordered[1].id, 0);
  EXPECT_THROW(apply_order(jobs, std::vector<std::size_t>{0}),
               std::invalid_argument);
  EXPECT_THROW(apply_order(jobs, std::vector<std::size_t>{0, 9}),
               std::out_of_range);
}

// Classical optimality: Johnson's order achieves the minimum 2-stage
// makespan over all permutations.  Property-tested on random job sets.
class JohnsonOptimality : public ::testing::TestWithParam<int> {};

TEST_P(JohnsonOptimality, MatchesPermutationBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 7));
    JobList jobs;
    for (int i = 0; i < n; ++i) {
      jobs.push_back(Job{.id = i,
                         .cut = -1,
                         .f = rng.uniform(0.0, 10.0),
                         .g = rng.uniform(0.0, 10.0)});
    }
    const JohnsonSchedule s = johnson_order(jobs);
    const double johnson_ms = flowshop2_makespan(apply_order(jobs, s.order));
    const double best_ms = best_permutation_makespan(jobs);
    EXPECT_NEAR(johnson_ms, best_ms, 1e-9)
        << "seed=" << GetParam() << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JohnsonOptimality, ::testing::Range(1, 6));

}  // namespace
}  // namespace jps::sched
