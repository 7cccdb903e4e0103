#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

/// \file
/// The benchmark's own arithmetic: percentiles with the count beyond
/// them, the due-time schedule, span self time and the waterfall sum.
/// Pure functions, pinned by `perfbench/tests/perfbench_test.cc`.

namespace perfbench {

/// \brief One percentile read off a sample.
struct Percentile {
  double value = 0.0;  ///< the nearest-rank percentile
  size_t count = 0;    ///< sample size
  size_t beyond = 0;   ///< samples strictly greater than `value`
};

/// Nearest-rank percentile: the smallest sample `v` such that at least
/// `q * n` samples are <= `v` (q in (0, 1]). An empty sample gives all
/// zeros.
Percentile NearestRank(std::vector<double> values, double q);

/// Median of an odd or even sample (mean of the middle two); 0 when
/// empty.
double Median(std::vector<double> values);

/// Due times, in nanoseconds after the phase start, of events stamped
/// at virtual times `virtual_us` on a `duration_us` timeline
/// compressed onto `window_seconds` of wall time. Depends on nothing
/// but its arguments, so the offered schedule is a pure function of
/// the generator's seed and the workload constants.
std::vector<int64_t> DueSchedule(const std::vector<int64_t>& virtual_us,
                                 int64_t duration_us,
                                 double window_seconds);

/// Completions per second in each of `windows` equal windows of
/// [0, end_ns); `done_ns` are completion times (any order; times
/// outside the range are ignored).
std::vector<double> WindowRates(const std::vector<int64_t>& done_ns,
                                int64_t end_ns, size_t windows);

/// \brief One traced interval. `parent` is the index of the enclosing
/// span in the same vector, or -1 for a root; `name` points at a
/// string literal.
struct Span {
  uint64_t request = 0;
  int64_t parent = -1;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of its
/// interval that the union of its children covers (children clipped
/// to the parent).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// \brief A waterfall: the mean of each part plus the residual (the
/// roots' mean self time) against the mean root duration.
struct Waterfall {
  double end_to_end_mean_ms = 0.0;
  std::vector<std::pair<std::string, double>> parts_mean_ms;
  double residual_mean_ms = 0.0;
  /// |sum(parts) + residual - end_to_end| / end_to_end: time that two
  /// parts both claim.
  double overlap_frac = 0.0;
  /// residual / end_to_end: time that no part explains.
  double residual_frac = 0.0;
  /// max(overlap_frac, residual_frac); the parts explain the end-to-end
  /// time within a tolerance t exactly when error_frac <= t.
  double error_frac = 0.0;
};

/// Builds the waterfall of the roots named `root` in `spans`: each
/// direct child named in `parts` contributes its duration to that
/// part, averaged over the roots. `self` must be `SelfTimes(spans)`.
Waterfall BuildWaterfall(const std::vector<Span>& spans,
                         const std::vector<int64_t>& self,
                         const std::string& root,
                         const std::vector<std::string>& parts);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
