// Estimators the benchmark reports with: interpolated percentiles, the
// "at least ten samples beyond" rule that picks the highest percentile
// a sample set can support, median and quartiles across runs, and
// open-loop due-time accounting. Header-only so the benchmark's own
// tests can exercise them without the library.
#ifndef DCBENCH_ESTIMATORS_H_
#define DCBENCH_ESTIMATORS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace dcbench {

/// Linear-interpolated percentile of ascending `sorted`, `p` in [0, 100]:
/// position p/100 * (n-1) between the two nearest ranks. 0 on empty.
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  if (p <= 0.0) return sorted.front();
  if (p >= 100.0) return sorted.back();
  const double pos = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = static_cast<size_t>(std::ceil(pos));
  if (lo == hi) return sorted[lo];
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

inline double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return PercentileSorted(values, p);
}

/// Samples strictly above the p-th percentile's rank in a set of `n`.
inline double SamplesBeyond(size_t n, double p) {
  return static_cast<double>(n) * (100.0 - p) / 100.0;
}

/// The highest of the standard reporting percentiles that still has at
/// least `min_beyond` samples beyond it; 0 when even the median has not
/// (fewer than 2 * min_beyond samples).
inline double HighestReportablePercentile(size_t n, size_t min_beyond = 10) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (SamplesBeyond(n, p) + 1e-9 >= static_cast<double>(min_beyond)) {
      return p;
    }
  }
  return 0.0;
}

/// A latency sample set reduced to what the benchmark prints: the
/// median, the highest reportable percentile (`tail_p`) and its value,
/// and the sample count they rest on.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_p = 0.0;
  double tail = 0.0;
};

inline LatencySummary Summarize(std::vector<double> values,
                                double tail_p_cap = 99.0) {
  LatencySummary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = PercentileSorted(values, 50.0);
  s.tail_p = std::min(HighestReportablePercentile(values.size()), tail_p_cap);
  s.tail = PercentileSorted(values, s.tail_p);
  return s;
}

/// Median and quartiles across runs, computed exactly as Python's
/// statistics.quantiles(values, n=4) (the default "exclusive" method),
/// so figures here match an outside recomputation digit for digit.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// (q3 - q1) / median; 0 when the median is 0.
  double iqr_share = 0.0;
};

inline Quartiles MedianIqr(std::vector<double> values) {
  Quartiles q;
  if (values.empty()) return q;
  std::sort(values.begin(), values.end());
  const size_t ld = values.size();
  if (ld == 1) {
    q.q1 = q.median = q.q3 = values[0];
    return q;
  }
  const long n = 4;
  const long m = static_cast<long>(ld) + 1;
  double cut[3];
  for (long i = 1; i < n; ++i) {
    long j = i * m / n;
    if (j < 1) j = 1;
    if (j > static_cast<long>(ld) - 1) j = static_cast<long>(ld) - 1;
    const long delta = i * m - j * n;
    cut[i - 1] = (values[j - 1] * static_cast<double>(n - delta) +
                  values[j] * static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  q.q1 = cut[0];
  q.median = cut[1];
  q.q3 = cut[2];
  q.iqr_share = q.median != 0.0 ? (q.q3 - q.q1) / q.median : 0.0;
  return q;
}

/// Open-loop schedule: request i is due at start + i * interval,
/// whatever happened to earlier requests. Latency is charged from the
/// due time (so a stall is paid by every request it delays, not hidden
/// by a sender that waited), and the sender's lateness is the gap
/// between the due time and the moment it actually sent.
class OpenLoopSchedule {
 public:
  using Clock = std::chrono::steady_clock;

  OpenLoopSchedule(Clock::time_point start, double rate_per_s)
      : start_(start),
        interval_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate_per_s))) {}

  Clock::time_point Due(uint64_t i) const {
    return start_ + interval_ * static_cast<int64_t>(i);
  }

  /// Sleeps until request i is due (returns at once when already late).
  void WaitFor(uint64_t i) const { std::this_thread::sleep_until(Due(i)); }

  /// Milliseconds from request i's due time to `t` (negative = early).
  double MsSinceDue(uint64_t i, Clock::time_point t) const {
    return std::chrono::duration<double, std::milli>(t - Due(i)).count();
  }

 private:
  Clock::time_point start_;
  Clock::duration interval_;
};

}  // namespace dcbench

#endif  // DCBENCH_ESTIMATORS_H_
