// Summary statistics used by the metrics layer and the benchmark harnesses.
//
// The evaluation in the paper reports means, percentile breakdowns (Table 2),
// tail latencies (95th percentile response time, §4.3) and CDFs (Fig. 8b);
// this header provides those primitives over plain double samples.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace venn {

// Accumulates samples; all queries are O(n log n) worst case (sorting lazily).
//
// Thread-safety contract: writes (add/merge/assignment) must be externally
// serialized, but once writing is done, any number of threads may query the
// same Summary concurrently — percentile/median lazily sort under an
// internal mutex guarded by an atomic flag, so concurrent readers (e.g.
// SweepRunner result aggregation fanning a shared result out to reporting
// threads) are race-free. samples() returns the raw vector and must not be
// read concurrently with the first percentile query (the lazy sort reorders
// it in place).
class Summary {
 public:
  Summary() = default;
  explicit Summary(std::span<const double> samples);

  // Copy/move are explicit because the sort mutex and flag are not
  // copyable; they take the source's mutex so copying from a Summary that
  // other threads are querying observes a consistent sample order.
  Summary(const Summary& other);
  Summary& operator=(const Summary& other);
  Summary(Summary&& other) noexcept;
  Summary& operator=(Summary&& other) noexcept;

  void add(double x);
  void merge(const Summary& other);

  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] double sum() const;
  [[nodiscard]] double mean() const;
  [[nodiscard]] double variance() const;  // population variance
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  // Linear-interpolated percentile, p in [0, 100]. Requires non-empty.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  // The lazy sort mutates samples_ from const queries, so concurrent
  // readers synchronize on sort_mutex_; sorted_ is the double-checked fast
  // path (acquire pairs with the sorting thread's release).
  mutable std::vector<double> samples_;
  mutable std::mutex sort_mutex_;
  mutable std::atomic<bool> sorted_{true};
};

// The rank math every percentile here shares: where percentile p falls
// among n ascending samples, as the two neighbouring 0-based ranks and the
// interpolation weight of the upper one. A percentile reads exactly two
// order statistics, x[lo] and x[hi] (hi is lo or lo + 1), and combines them
// with interpolate(); code that finds those two order statistics another
// way (VennScheduler's binned reservoir quantiles) is bit-equal to
// Summary::percentile as long as it goes through both. Throws on n == 0 or
// p outside [0, 100].
struct PercentileRank {
  std::size_t lo = 0;
  std::size_t hi = 0;
  double frac = 0.0;

  [[nodiscard]] double interpolate(double x_lo, double x_hi) const {
    return x_lo * (1.0 - frac) + x_hi * frac;
  }
};
[[nodiscard]] PercentileRank percentile_rank(double p, std::size_t n);

// Summary::percentile(p) of `values` without sorting them: selects the one
// or two order statistics the linear interpolation reads (nth_element, then
// min_element over the upper partition), so the result is bit-equal to the
// sorted path in O(n). Reorders `values`; the same buffer may be queried
// again for another percentile. Requires non-empty, p in [0, 100].
[[nodiscard]] double percentile_select(std::span<double> values, double p);

// An empirical CDF over the given samples, evaluated at `points` equally
// spaced quantiles; used to print figure series (e.g. Fig. 8b).
struct CdfPoint {
  double value = 0.0;     // sample value
  double fraction = 0.0;  // P(X <= value)
};
std::vector<CdfPoint> empirical_cdf(std::span<const double> samples,
                                    std::size_t points = 20);

// Jensen-Shannon divergence between two discrete distributions of equal
// dimension (bases-2 logarithm, so the result lies in [0, 1]). Used by the
// CL convergence model to score participant data diversity.
double js_divergence(std::span<const double> p, std::span<const double> q);

// Format helper: "1.88x"-style ratio strings used by the bench tables.
std::string format_ratio(double ratio, int decimals = 2);

}  // namespace venn
