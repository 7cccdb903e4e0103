#include "bench_math.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile NearestRank(std::vector<double> values, double q) {
  Percentile out;
  out.count = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  out.value = values[rank - 1];
  out.beyond = static_cast<size_t>(
      values.end() -
      std::upper_bound(values.begin(), values.end(), out.value));
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<int64_t> DueSchedule(const std::vector<int64_t>& virtual_us,
                                 int64_t duration_us,
                                 double window_seconds) {
  std::vector<int64_t> due;
  due.reserve(virtual_us.size());
  const double ns_per_virtual_us =
      window_seconds * 1e9 / static_cast<double>(duration_us);
  for (const int64_t t : virtual_us) {
    due.push_back(static_cast<int64_t>(
        std::llround(static_cast<double>(t) * ns_per_virtual_us)));
  }
  return due;
}

std::vector<double> WindowRates(const std::vector<int64_t>& done_ns,
                                int64_t end_ns, size_t windows) {
  std::vector<double> rates(windows, 0.0);
  if (windows == 0 || end_ns <= 0) return rates;
  const double width_ns =
      static_cast<double>(end_ns) / static_cast<double>(windows);
  for (const int64_t t : done_ns) {
    if (t < 0 || t >= end_ns) continue;
    const size_t w = std::min(
        static_cast<size_t>(static_cast<double>(t) / width_ns), windows - 1);
    rates[w] += 1.0;
  }
  for (double& r : rates) r /= width_ns * 1e-9;
  return rates;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  // Children grouped by parent (counting sort keeps the pass linear).
  const size_t n = spans.size();
  std::vector<size_t> first(n + 1, 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) ++first[static_cast<size_t>(s.parent) + 1];
  }
  for (size_t i = 0; i < n; ++i) first[i + 1] += first[i];
  std::vector<size_t> children(first[n]);
  std::vector<size_t> fill(first.begin(), first.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].parent >= 0) {
      children[fill[static_cast<size_t>(spans[i].parent)]++] = i;
    }
  }

  std::vector<int64_t> self(n, 0);
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (size_t i = 0; i < n; ++i) {
    const Span& s = spans[i];
    cover.clear();
    for (size_t c = first[i]; c < first[i + 1]; ++c) {
      const Span& child = spans[children[c]];
      const int64_t lo = std::max(child.start_ns, s.start_ns);
      const int64_t hi = std::min(child.end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : cover) {
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
        continue;
      }
      if (open) covered += run_hi - run_lo;
      run_lo = lo;
      run_hi = hi;
      open = true;
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

Waterfall BuildWaterfall(const std::vector<Span>& spans,
                         const std::vector<int64_t>& self,
                         const std::string& root,
                         const std::vector<std::string>& parts) {
  Waterfall out;
  std::vector<double> part_sum(parts.size(), 0.0);
  double root_sum = 0.0;
  double residual_sum = 0.0;
  size_t roots = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) {
      if (root == s.name) {
        root_sum += static_cast<double>(s.end_ns - s.start_ns);
        residual_sum += static_cast<double>(self[i]);
        ++roots;
      }
      continue;
    }
    const Span& parent = spans[static_cast<size_t>(s.parent)];
    if (parent.parent >= 0 || root != parent.name) continue;
    for (size_t p = 0; p < parts.size(); ++p) {
      if (parts[p] == s.name) {
        part_sum[p] += static_cast<double>(s.end_ns - s.start_ns);
      }
    }
  }
  if (roots == 0) return out;
  const double scale = 1e-6 / static_cast<double>(roots);
  out.end_to_end_mean_ms = root_sum * scale;
  out.residual_mean_ms = residual_sum * scale;
  double total = out.residual_mean_ms;
  for (size_t p = 0; p < parts.size(); ++p) {
    out.parts_mean_ms.emplace_back(parts[p], part_sum[p] * scale);
    total += part_sum[p] * scale;
  }
  if (out.end_to_end_mean_ms > 0.0) {
    out.overlap_frac =
        std::abs(total - out.end_to_end_mean_ms) / out.end_to_end_mean_ms;
    out.residual_frac = out.residual_mean_ms / out.end_to_end_mean_ms;
  }
  out.error_frac = std::max(out.overlap_frac, out.residual_frac);
  return out;
}

}  // namespace perfbench
