#include "bench_util.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

namespace perfbench {

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double HighestSupportedQuantile(int64_t n) {
  static constexpr double kLadder[] = {0.99999, 0.9999, 0.999,
                                       0.99,    0.9,    0.5};
  for (const double q : kLadder) {
    // Samples strictly beyond the nearest-rank position ceil(q * n).
    const int64_t rank =
        static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
    if (n - rank >= kTailSamples) return q;
  }
  return 0.0;
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = QuantileSorted(samples, 0.5);
  s.tail_q = HighestSupportedQuantile(s.count);
  s.tail = QuantileSorted(samples, s.tail_q);
  if (s.tail_q >= 0.99) s.p99 = QuantileSorted(samples, 0.99);
  return s;
}

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t cut = v.size() / 4;
  double sum = 0.0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

SliceSummary SummarizeSlices(const std::vector<int64_t>& done_ns,
                             const std::vector<double>& values,
                             int64_t start_ns, int64_t slice_ns, int slices) {
  SliceSummary out;
  if (slices <= 0 || slice_ns <= 0) return out;
  std::vector<std::vector<double>> per(static_cast<size_t>(slices));
  for (size_t i = 0; i < done_ns.size() && i < values.size(); ++i) {
    if (done_ns[i] < start_ns) continue;
    const int64_t k = (done_ns[i] - start_ns) / slice_ns;
    if (k < slices) per[static_cast<size_t>(k)].push_back(values[i]);
  }
  out.min_slice_samples = static_cast<int64_t>(per[0].size());
  for (std::vector<double>& v : per) {
    out.min_slice_samples =
        std::min(out.min_slice_samples, static_cast<int64_t>(v.size()));
    out.rates.push_back(static_cast<double>(v.size()) * 1e9 /
                        static_cast<double>(slice_ns));
    std::sort(v.begin(), v.end());
    out.p99s.push_back(QuantileSorted(v, 0.99));
  }
  out.slices = slices;
  out.rate = InterquartileMean(out.rates);
  out.p99 = InterquartileMean(out.p99s);
  return out;
}

RegistryWindow::Sums RegistryWindow::Take() const {
  Sums sums;
  for (const btrim::obs::MetricSample& m : registry_->Snapshot()) {
    auto add = [&sums, &m](const std::string& key) {
      Point& p = sums[key];
      p.value += m.value;
      p.sum_us += m.hist.sum_us;
    };
    add(m.name + '\x1f');
    if (!m.labels.subsystem.empty()) {
      add(m.name + '\x1f' + m.labels.subsystem);
    }
  }
  return sums;
}

RegistryWindow::Point RegistryWindow::Sum(const Sums& sums,
                                          const std::string& name,
                                          const std::string& subsystem) {
  auto it = sums.find(name + '\x1f' + subsystem);
  return it == sums.end() ? Point{} : it->second;
}

int64_t RegistryWindow::Delta(const std::string& name,
                              const std::string& subsystem) const {
  return Sum(end_, name, subsystem).value - Sum(begin_, name, subsystem).value;
}

int64_t RegistryWindow::SumDelta(const std::string& name,
                                 const std::string& subsystem) const {
  return Sum(end_, name, subsystem).sum_us -
         Sum(begin_, name, subsystem).sum_us;
}

int64_t RegistryWindow::EndValue(const std::string& name,
                                 const std::string& subsystem) const {
  return Sum(end_, name, subsystem).value;
}

std::map<std::string, SpanStats> AggregateSpans(
    const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, SpanStats> out;
  for (const Span& s : spans) {
    const int64_t duration = s.end_ns - s.start_ns;
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<int64_t, int64_t>> cover;
    auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const int64_t lo = std::max(c->start_ns, s.start_ns);
        const int64_t hi = std::min(c->end_ns, s.end_ns);
        if (hi > lo) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    SpanStats& st = out[s.name];
    ++st.count;
    st.total_ns += duration;
    st.self_ns += duration - covered;
    st.durations_us.push_back(static_cast<double>(duration) / 1000.0);
  }
  return out;
}

}  // namespace perfbench
