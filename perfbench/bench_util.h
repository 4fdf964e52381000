// Helpers of the end-to-end benchmark (perfbench/btrim_bench.cc) that are
// worth testing on their own: percentile choice, ratios with their base,
// window deltas of MetricsRegistry counters, and span self time.
#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"

namespace perfbench {

/// Samples a percentile must leave beyond it to be reported.
inline constexpr int64_t kTailSamples = 10;

/// Nearest-rank quantile of `sorted` (ascending). 0 when empty.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// The highest of p50, p90, p99, p99.9, p99.99, p99.999 that leaves at least
/// kTailSamples of `n` samples beyond it; 0 when even p50 does not.
double HighestSupportedQuantile(int64_t n);

/// Median and tail of one latency sample set.
struct LatencySummary {
  int64_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;        ///< 0 when p99 is not supported (n < 1000)
  double tail_q = 0.0;     ///< HighestSupportedQuantile(count)
  double tail = 0.0;       ///< value at tail_q
};

/// Sorts `samples` and summarises them.
LatencySummary Summarize(std::vector<double> samples);

/// Mean of the middle half of `v` (the interquartile mean): drops the
/// lowest and highest quarter, so a stall in a few slices cannot swing it.
double InterquartileMean(std::vector<double> v);

/// Throughput and p99 per time slice of a window, each reduced to the
/// interquartile mean over slices.
struct SliceSummary {
  int slices = 0;
  double rate = 0.0;  ///< samples per second
  double p99 = 0.0;   ///< of each slice's p99
  int64_t min_slice_samples = 0;
  std::vector<double> rates;  ///< per slice, in time order
  std::vector<double> p99s;
};

/// Splits [start_ns, start_ns + slices * slice_ns) into `slices` slices;
/// sample i (value values[i]) belongs to the slice holding done_ns[i].
/// Samples outside the range are ignored.
SliceSummary SummarizeSlices(const std::vector<int64_t>& done_ns,
                             const std::vector<double>& values,
                             int64_t start_ns, int64_t slice_ns, int slices);

/// A ratio that always travels with its base: value() = num / base.
struct Ratio {
  double num = 0.0;
  double base = 0.0;
  double value() const { return base > 0.0 ? num / base : 0.0; }
};

/// Deltas of MetricsRegistry entries over a measured window. Each name is
/// summed over all of its label sets (both logs for wal.*, every table for
/// index.*), optionally restricted to one subsystem. Retained samples (the
/// registry's snapshot-at-unregistration) stay in the sums, so a source
/// retired mid-window still contributes what it counted before retiring.
class RegistryWindow {
 public:
  explicit RegistryWindow(const btrim::obs::MetricsRegistry* registry)
      : registry_(registry) {}

  void Begin() { begin_ = Take(); }
  void End() { end_ = Take(); }

  /// Counter/gauge value change (for histograms: sample count change).
  int64_t Delta(const std::string& name,
                const std::string& subsystem = "") const;
  /// Histogram sum-of-microseconds change.
  int64_t SumDelta(const std::string& name,
                   const std::string& subsystem = "") const;
  /// Value at End() (gauges).
  int64_t EndValue(const std::string& name,
                   const std::string& subsystem = "") const;

 private:
  struct Point {
    int64_t value = 0;
    int64_t sum_us = 0;
  };
  using Sums = std::map<std::string, Point>;  // key: name + '\x1f' + subsystem

  Sums Take() const;
  static Point Sum(const Sums& sums, const std::string& name,
                   const std::string& subsystem);

  const btrim::obs::MetricsRegistry* const registry_;
  Sums begin_;
  Sums end_;
};

/// One traced interval. Spans of one transaction or request share `trace`;
/// `parent` is 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t trace = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name totals over a span set.
struct SpanStats {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  ///< total minus the part covered by child spans
  std::vector<double> durations_us;
};

/// Aggregates spans by name. A span's self time is its duration minus the
/// union of its children's intervals clipped to it.
std::map<std::string, SpanStats> AggregateSpans(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
