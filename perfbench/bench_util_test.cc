#include "bench_util.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/counters.h"
#include "common/histogram.h"

namespace perfbench {
namespace {

btrim::obs::MetricLabels Labels(const char* subsystem, const char* table = "") {
  btrim::obs::MetricLabels labels;
  labels.subsystem = subsystem;
  labels.table = table;
  return labels;
}

TEST(Percentile, HighestSupportedLeavesTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedQuantile(0), 0.0);
  EXPECT_EQ(HighestSupportedQuantile(19), 0.0);
  EXPECT_EQ(HighestSupportedQuantile(20), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(99), 0.5);
  EXPECT_EQ(HighestSupportedQuantile(100), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(999), 0.9);
  EXPECT_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_EQ(HighestSupportedQuantile(10000), 0.999);
  EXPECT_EQ(HighestSupportedQuantile(123456), 0.9999);
  EXPECT_EQ(HighestSupportedQuantile(10000000), 0.99999);
}

TEST(Percentile, SummaryReportsCountAndNearestRank) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  LatencySummary s = Summarize(v);
  EXPECT_EQ(s.count, 1000);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.tail_q, 0.99);
  EXPECT_EQ(s.tail, 990.0);
}

TEST(Percentile, P99OmittedWhenTooFewSamples) {
  LatencySummary s = Summarize(std::vector<double>(500, 7.0));
  EXPECT_EQ(s.count, 500);
  EXPECT_EQ(s.p50, 7.0);
  EXPECT_EQ(s.p99, 0.0);
  EXPECT_EQ(s.tail_q, 0.9);
  EXPECT_EQ(Summarize({}).count, 0);
}

TEST(Slices, MediansOverSlices) {
  // Three 1-second slices holding 2, 4 and 3 samples; one sample outside.
  std::vector<int64_t> done = {0,     500,   1000, 1100, 1200,
                               1300,  2000,  2100, 2200, 3000};
  std::vector<double> vals = {1, 2, 10, 20, 30, 40, 5, 6, 7, 99};
  for (int64_t& d : done) d *= 1'000'000;  // ms -> ns
  SliceSummary s = SummarizeSlices(done, vals, 0, 1'000'000'000, 3);
  EXPECT_EQ(s.slices, 3);
  EXPECT_EQ(s.min_slice_samples, 2);
  EXPECT_EQ(s.rates, (std::vector<double>{2, 4, 3}));
  EXPECT_EQ(s.p99s, (std::vector<double>{2, 40, 7}));
  // Three slices: a quarter of 3 rounds to 0, so all are kept.
  EXPECT_DOUBLE_EQ(s.rate, 3.0);
  EXPECT_DOUBLE_EQ(s.p99, 49.0 / 3);
}

TEST(Slices, InterquartileMeanDropsOuterQuarters) {
  EXPECT_EQ(InterquartileMean({}), 0.0);
  EXPECT_DOUBLE_EQ(InterquartileMean({5}), 5.0);
  // 8 values: the 2 lowest and 2 highest are dropped.
  EXPECT_DOUBLE_EQ(InterquartileMean({100, 1, 4, 3, 6, 5, -50, 2}), 3.5);
  // 10 values: 2 dropped at each end.
  EXPECT_DOUBLE_EQ(InterquartileMean({0, 0, 1, 2, 3, 4, 5, 6, 99, 99}), 3.5);
}

TEST(Ratio, CarriesItsBase) {
  Ratio r{3, 4};
  EXPECT_EQ(r.num, 3);
  EXPECT_EQ(r.base, 4);
  EXPECT_DOUBLE_EQ(r.value(), 0.75);
  EXPECT_EQ((Ratio{5, 0}).value(), 0.0);  // empty base reads 0, base stays 0
}

TEST(RegistryWindow, SumsLabelSetsAndFiltersBySubsystem) {
  btrim::obs::MetricsRegistry reg;
  btrim::ShardedCounter a, b;
  ASSERT_TRUE(reg.RegisterCounter("wal.bytes", Labels("syslogs"), &a)
                  .ok());
  ASSERT_TRUE(
      reg.RegisterCounter("wal.bytes", Labels("sysimrslogs"), &b).ok());
  a.Add(100);
  RegistryWindow w(&reg);
  w.Begin();
  a.Add(5);
  b.Add(7);
  w.End();
  EXPECT_EQ(w.Delta("wal.bytes"), 12);
  EXPECT_EQ(w.Delta("wal.bytes", "syslogs"), 5);
  EXPECT_EQ(w.EndValue("wal.bytes"), 112);
  EXPECT_EQ(w.Delta("absent"), 0);
  reg.Unregister("wal.bytes", Labels("syslogs"));
  reg.Unregister("wal.bytes", Labels("sysimrslogs"));
}

TEST(RegistryWindow, KeepsSamplesRetainedAfterUnregistration) {
  btrim::obs::MetricsRegistry reg;
  RegistryWindow w(&reg);
  {
    btrim::ShardedCounter c;
    btrim::LatencyHistogram h;
    ASSERT_TRUE(reg.RegisterCounter("tpcc.committed", Labels("tpcc"),
                                    &c)
                    .ok());
    ASSERT_TRUE(
        reg.RegisterHistogram("tpcc.latency_us", Labels("tpcc"), &h)
            .ok());
    c.Add(2);
    w.Begin();
    c.Add(40);
    h.Record(10);
    h.Record(30);
    reg.UnregisterMatching(Labels("tpcc"));
    c.Add(1000);  // after retirement: not seen
  }
  w.End();
  EXPECT_EQ(w.Delta("tpcc.committed"), 40);
  EXPECT_EQ(w.Delta("tpcc.latency_us"), 2);
  EXPECT_EQ(w.SumDelta("tpcc.latency_us"), 40);
}

TEST(RegistryWindow, EntryRegisteredMidWindowCountsFromZero) {
  btrim::obs::MetricsRegistry reg;
  btrim::ShardedCounter c;
  RegistryWindow w(&reg);
  w.Begin();
  ASSERT_TRUE(reg.RegisterCounter("index.splits", Labels("index", "t"),
                                  &c)
                  .ok());
  c.Add(3);
  w.End();
  EXPECT_EQ(w.Delta("index.splits", "index"), 3);
  reg.UnregisterMatching(Labels("", "t"));
}

TEST(Spans, SelfTimeSubtractsUnionOfChildren) {
  std::vector<Span> spans = {
      {1, 0, 1, "root", 0, 100},
      {2, 1, 1, "child", 10, 40},
      {3, 1, 1, "child", 30, 50},    // overlaps the first child
      {4, 1, 1, "child", 90, 130},   // runs past the parent: clipped
      {5, 2, 1, "grandchild", 15, 20},
  };
  auto stats = AggregateSpans(spans);
  EXPECT_EQ(stats["root"].count, 1);
  EXPECT_EQ(stats["root"].total_ns, 100);
  EXPECT_EQ(stats["root"].self_ns, 100 - 40 - 10);
  EXPECT_EQ(stats["child"].count, 3);
  EXPECT_EQ(stats["child"].total_ns, 30 + 20 + 40);
  EXPECT_EQ(stats["child"].self_ns, 25 + 20 + 40);
  EXPECT_EQ(stats["grandchild"].self_ns, 5);
}

}  // namespace
}  // namespace perfbench
