// Statistics collection used by benchmarks and by instrumented resources:
// running mean/variance, reservoir-free percentile tracking via a sorted
// sample vector (workloads here are small enough to keep all samples), and
// fixed-bucket histograms for latency distributions.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/assert.h"
#include "common/units.h"

namespace ordma {

// Welford running mean / variance, O(1) memory.
class RunningStats {
 public:
  void add(double x) {
    ++n_;
    const double d = x - mean_;
    mean_ += d / static_cast<double>(n_);
    m2_ += d * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double mean() const { return mean_; }
  double sum() const { return sum_; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Keeps every sample; exact percentiles. Fine for the sample counts in this
// project (<= a few million doubles).
class Samples {
 public:
  void add(double x) {
    xs_.push_back(x);
    sorted_ = false;
    stats_.add(x);
  }

  std::uint64_t count() const { return stats_.count(); }
  double mean() const { return stats_.mean(); }
  double min() const { return stats_.min(); }
  double max() const { return stats_.max(); }
  double stddev() const { return stats_.stddev(); }

  // q in [0, 1]; nearest-rank convention: the result is the smallest sample
  // x such that at least ceil(q * N) samples are <= x (rank clamped to
  // [1, N], so percentile(0) is the minimum and percentile(1) the maximum).
  // Every returned value is an actual sample — no interpolation.
  // Regression-pinned by tests/stats_test.cc.
  double percentile(double q) {
    ORDMA_CHECK(q >= 0.0 && q <= 1.0);
    if (xs_.empty()) return 0.0;
    sort();
    const auto n = static_cast<double>(xs_.size());
    auto rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::min(std::max<std::size_t>(rank, 1), xs_.size());
    return xs_[rank - 1];
  }
  double median() { return percentile(0.5); }

 private:
  void sort() {
    if (!sorted_) {
      std::sort(xs_.begin(), xs_.end());
      sorted_ = true;
    }
  }
  std::vector<double> xs_;
  RunningStats stats_;
  bool sorted_ = true;
};

// Log-scaled latency histogram (power-of-two microsecond buckets).
//
// Bucket convention (regression-pinned by tests/stats_test.cc): bucket 0
// holds [0, 1) us; bucket b in [1, kBuckets-2] holds [2^(b-1), 2^b) us —
// lower edge inclusive, upper edge exclusive; the last bucket is the
// overflow [2^(kBuckets-2), inf). upper_edge_us(b) returns the exclusive
// upper edge of bucket b.
class LatencyHistogram {
 public:
  void add(Duration d) { add(d, 0); }

  // `exemplar` optionally tags the bucket this sample lands in with an
  // opaque reference (obs uses the trace op id of a *retained* op, so a
  // p99 bucket in the metrics JSON links to an inspectable trace). 0 means
  // "no exemplar"; the most recent non-zero exemplar per bucket wins.
  void add(Duration d, std::uint64_t exemplar) {
    const std::size_t b = bucket_for(d);
    ++buckets_[b];
    if (exemplar != 0) exemplars_[b] = exemplar;
    stats_.add(d.to_us());
  }

  // Bucket index a sample of duration d lands in. Branch-free bit math
  // rather than an edge-doubling loop: this runs per recorded sample, and
  // under trace sampling once per completed op.
  static constexpr std::size_t bucket_for(Duration d) {
    const double us = d.to_us();
    if (us < 1.0) return 0;  // also catches negatives, defensively
    const auto b =
        static_cast<std::size_t>(std::bit_width(static_cast<std::uint64_t>(us)));
    return b < kBuckets - 1 ? b : kBuckets - 1;
  }

  std::uint64_t count() const { return stats_.count(); }
  double mean_us() const { return stats_.mean(); }
  double max_us() const { return stats_.max(); }
  // Exact running sum of all recorded latencies, in microseconds. Together
  // with count() this lets a windowed consumer (obs/timeseries.h) recover
  // the per-window mean from two cumulative totals.
  double sum_us() const { return stats_.sum(); }

  static constexpr std::size_t bucket_count() { return kBuckets; }
  std::uint64_t bucket_value(std::size_t b) const { return buckets_[b]; }
  // Most recent exemplar tag recorded into bucket b (0 = none).
  std::uint64_t bucket_exemplar(std::size_t b) const { return exemplars_[b]; }
  static double upper_edge_us(std::size_t b) {
    if (b + 1 >= kBuckets) return std::numeric_limits<double>::infinity();
    return std::ldexp(1.0, static_cast<int>(b));  // 2^b
  }

  std::string to_string() const;

 private:
  static constexpr std::size_t kBuckets = 24;  // up to ~2^22 us ≈ 4 s
  std::uint64_t buckets_[kBuckets] = {};
  std::uint64_t exemplars_[kBuckets] = {};
  RunningStats stats_;
};

// Nearest-rank quantile over a vector of LatencyHistogram bucket counts —
// the shape obs::MetricsRegistry::delta_snapshot() hands out per window.
// Returns the (exclusive) upper edge of the bucket holding the rank'th
// event, i.e. a conservative bound, matching the resolution the histogram
// actually has. The overflow bucket has no finite upper edge, so it reports
// its *lower* edge (2^(n-2) us) instead — every result is finite and
// JSON-safe. Zero total counts yield 0.
inline double histogram_quantile_from_counts(const std::uint64_t* counts,
                                             std::size_t n_buckets,
                                             double q) {
  ORDMA_CHECK(q >= 0.0 && q <= 1.0);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < n_buckets; ++b) total += counts[b];
  if (total == 0) return 0.0;
  auto rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total)));
  rank = std::min(std::max<std::uint64_t>(rank, 1), total);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < n_buckets; ++b) {
    cum += counts[b];
    if (cum >= rank) {
      if (b + 1 >= n_buckets) {  // overflow bucket: clamp to its lower edge
        return std::ldexp(1.0, static_cast<int>(n_buckets) - 2);
      }
      return LatencyHistogram::upper_edge_us(b);
    }
  }
  return LatencyHistogram::upper_edge_us(n_buckets - 1);  // unreachable
}

class CounterGroup;

// An event count, declared once as a member of its owner together with its
// export path: `Counter rpc_reads_{counters_, "odafs/rpc_reads"};` links it
// into the owner's group, which obs::MetricsRegistry::export_counters()
// exports whole; an increment stays a plain add. A copy carries the value
// only (an unlinked snapshot; assigning into a counter keeps its link).
class Counter {
 public:
  Counter() = default;  // unlinked: exported by no walk
  Counter(CounterGroup& group, const char* path);  // `path`: a literal
  Counter(const Counter& o) : v_(o.v_) {}
  Counter& operator=(const Counter& o) { v_ = o.v_; return *this; }
  Counter& operator+=(std::uint64_t by) { v_ += by; return *this; }
  Counter& operator++() { return *this += 1; }
  void inc(std::uint64_t by = 1) { v_ += by; }
  operator std::uint64_t() const { return v_; }
  std::uint64_t get() const { return v_; }
  const char* path() const { return path_; }

 private:
  friend class CounterGroup;
  std::uint64_t v_ = 0;
  const char* path_ = nullptr;
  const Counter* next_ = nullptr;  // in the same group
};

// One component's counters, plus the groups of the helpers it is built
// from (adopt()). Like a Counter, a copy starts unlinked.
class CounterGroup {
 public:
  CounterGroup() = default;
  CounterGroup(const CounterGroup&) {}
  CounterGroup& operator=(const CounterGroup&) { return *this; }

  // Walk `child` (a member of the owner; it joins one group) with this one.
  void adopt(const CounterGroup& child) {
    ORDMA_CHECK(!child.adopted_);
    child.adopted_ = true;
    child.next_sibling_ = first_child_;
    first_child_ = &child;
  }

  template <typename F>
  void for_each(F&& f) const {
    for (const Counter* c = head_; c; c = c->next_) f(*c);
    for (const CounterGroup* g = first_child_; g; g = g->next_sibling_) {
      g->for_each(f);
    }
  }

 private:
  friend class Counter;
  const Counter* head_ = nullptr;
  const CounterGroup* first_child_ = nullptr;
  mutable const CounterGroup* next_sibling_ = nullptr;  // set by adopt()
  mutable bool adopted_ = false;
};

inline Counter::Counter(CounterGroup& group, const char* path)
    : path_(path), next_(group.head_) {
  group.head_ = this;
}

}  // namespace ordma
