#include "estimators.h"

#include <chrono>
#include <vector>

#include <gtest/gtest.h>

namespace dcbench {
namespace {

TEST(PercentileTest, InterpolatesBetweenRanks) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 50), 2.5);
  // pos = 0.9 * 3 = 2.7 -> 3 + 0.7 * (4 - 3)
  EXPECT_DOUBLE_EQ(PercentileSorted(v, 90), 3.7);
  EXPECT_DOUBLE_EQ(Percentile({4, 1, 3, 2}, 50), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 99), 7.0);
}

TEST(ReportablePercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestReportablePercentile(19), 0.0);
  EXPECT_EQ(HighestReportablePercentile(20), 50.0);
  EXPECT_EQ(HighestReportablePercentile(39), 50.0);
  EXPECT_EQ(HighestReportablePercentile(40), 75.0);
  EXPECT_EQ(HighestReportablePercentile(100), 90.0);
  EXPECT_EQ(HighestReportablePercentile(199), 90.0);
  EXPECT_EQ(HighestReportablePercentile(200), 95.0);
  EXPECT_EQ(HighestReportablePercentile(1000), 99.0);
  EXPECT_EQ(HighestReportablePercentile(10000), 99.9);
}

TEST(SummarizeTest, CapsTheTailAndCounts) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  LatencySummary s = Summarize(v, /*tail_p_cap=*/90.0);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_EQ(s.tail_p, 90.0);
  EXPECT_DOUBLE_EQ(s.tail, PercentileSorted(v, 90.0));
  LatencySummary few = Summarize({3, 1, 2});
  EXPECT_EQ(few.tail_p, 0.0);
  EXPECT_DOUBLE_EQ(few.p50, 2.0);
}

TEST(MedianIqrTest, MatchesPythonExclusiveQuantiles) {
  // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
  Quartiles q = MedianIqr({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  EXPECT_DOUBLE_EQ(q.iqr_share, (8.25 - 2.75) / 5.5);
  // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
  Quartiles small = MedianIqr({4, 1, 2});
  EXPECT_DOUBLE_EQ(small.q1, 1.0);
  EXPECT_DOUBLE_EQ(small.median, 2.0);
  EXPECT_DOUBLE_EQ(small.q3, 4.0);
  EXPECT_DOUBLE_EQ(MedianIqr({5}).median, 5.0);
}

TEST(OpenLoopScheduleTest, ChargesFromDueTime) {
  using Clock = OpenLoopSchedule::Clock;
  const Clock::time_point start{};
  OpenLoopSchedule schedule(start, /*rate_per_s=*/100.0);
  EXPECT_EQ(schedule.Due(0), start);
  EXPECT_EQ(schedule.Due(3), start + std::chrono::milliseconds(30));
  // Request 2 was due at 20 ms; completing at 25 ms charges 5 ms even
  // if the sender only got to it at 24 ms.
  EXPECT_NEAR(schedule.MsSinceDue(2, start + std::chrono::milliseconds(25)),
              5.0, 1e-9);
  EXPECT_NEAR(schedule.MsSinceDue(2, start + std::chrono::milliseconds(15)),
              -5.0, 1e-9);
}

}  // namespace
}  // namespace dcbench
