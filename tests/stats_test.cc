// Regression pins for common/stats.h: the nearest-rank percentile
// convention and the latency-histogram bucket edges. These are load-bearing
// for every bench table and for metrics snapshots, so the conventions are
// pinned here rather than re-derived per caller. Also the counter plane's
// group walk and copy semantics.
#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

namespace ordma {
namespace {

TEST(Samples, PercentileNearestRank) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  // Nearest rank: smallest x with at least ceil(q*N) samples <= x.
  EXPECT_EQ(s.percentile(0.0), 1.0);    // rank clamps to 1 → minimum
  EXPECT_EQ(s.percentile(0.01), 1.0);   // ceil(1) = 1
  EXPECT_EQ(s.percentile(0.5), 50.0);   // ceil(50) = 50
  EXPECT_EQ(s.percentile(0.99), 99.0);  // ceil(99) = 99
  EXPECT_EQ(s.percentile(1.0), 100.0);  // maximum
  EXPECT_EQ(s.median(), 50.0);
}

TEST(Samples, PercentileSmallCounts) {
  Samples one;
  one.add(42.0);
  EXPECT_EQ(one.percentile(0.0), 42.0);
  EXPECT_EQ(one.percentile(0.5), 42.0);
  EXPECT_EQ(one.percentile(1.0), 42.0);

  Samples two;
  two.add(10.0);
  two.add(20.0);
  EXPECT_EQ(two.percentile(0.0), 10.0);
  EXPECT_EQ(two.percentile(0.5), 10.0);   // ceil(0.5*2) = 1
  EXPECT_EQ(two.percentile(0.51), 20.0);  // ceil(1.02) = 2
  EXPECT_EQ(two.percentile(1.0), 20.0);

  Samples empty;
  EXPECT_EQ(empty.percentile(0.5), 0.0);
}

TEST(Samples, PercentileReturnsActualSamples) {
  // No interpolation: results are members of the sample set.
  Samples s;
  s.add(1.0);
  s.add(1000.0);
  EXPECT_EQ(s.percentile(0.5), 1.0);
  EXPECT_EQ(s.percentile(0.75), 1000.0);
}

TEST(Samples, PercentileUnsortedInsertOrder) {
  Samples s;
  for (double x : {5.0, 1.0, 4.0, 2.0, 3.0}) s.add(x);
  EXPECT_EQ(s.percentile(0.2), 1.0);  // ceil(1) = 1
  EXPECT_EQ(s.percentile(0.6), 3.0);  // ceil(3) = 3
  EXPECT_EQ(s.percentile(1.0), 5.0);
}

TEST(LatencyHistogram, BucketEdges) {
  // Bucket 0 = [0,1) us; bucket b = [2^(b-1), 2^b) us; last = overflow.
  EXPECT_EQ(LatencyHistogram::upper_edge_us(0), 1.0);
  EXPECT_EQ(LatencyHistogram::upper_edge_us(1), 2.0);
  EXPECT_EQ(LatencyHistogram::upper_edge_us(2), 4.0);
  EXPECT_EQ(LatencyHistogram::upper_edge_us(10), 1024.0);
  EXPECT_TRUE(std::isinf(
      LatencyHistogram::upper_edge_us(LatencyHistogram::bucket_count() - 1)));
}

TEST(LatencyHistogram, BucketAssignment) {
  LatencyHistogram h;
  h.add(nsec(0));        // 0 us → bucket 0
  h.add(nsec(999));      // 0.999 us → bucket 0
  h.add(usec(1));        // lower edge inclusive → bucket 1
  h.add(nsec(1999));     // 1.999 us → bucket 1
  h.add(usec(2));        // → bucket 2
  h.add(nsec(3999));     // 3.999 us → bucket 2
  h.add(usec(4));        // → bucket 3
  EXPECT_EQ(h.bucket_value(0), 2u);
  EXPECT_EQ(h.bucket_value(1), 2u);
  EXPECT_EQ(h.bucket_value(2), 2u);
  EXPECT_EQ(h.bucket_value(3), 1u);
  EXPECT_EQ(h.count(), 7u);
}

TEST(LatencyHistogram, OverflowBucket) {
  LatencyHistogram h;
  h.add(sec(10));  // 1e7 us, beyond the top finite edge
  EXPECT_EQ(h.bucket_value(LatencyHistogram::bucket_count() - 1), 1u);
  EXPECT_EQ(h.max_us(), 1e7);
}

struct Owner {
  CounterGroup counters;
  Counter a{counters, "x/a"};
  Counter b{counters, "x/b"};
};

std::map<std::string, std::uint64_t> walk(const CounterGroup& g) {
  std::map<std::string, std::uint64_t> out;
  g.for_each([&](const Counter& c) { out[c.path()] = c.get(); });
  return out;
}

TEST(CounterGroup, WalksOwnAndAdoptedCounters) {
  Owner outer;
  Owner inner;
  CounterGroup helper;
  Counter h{helper, "y/h"};
  inner.counters.adopt(helper);
  outer.counters.adopt(inner.counters);
  ++outer.a;
  inner.b += 3;
  h.inc(2);
  // The inner group's paths repeat the outer's: a walk visits both, and
  // the registry (not the walk) rejects the collision.
  std::vector<std::string> paths;
  outer.counters.for_each([&](const Counter& c) { paths.push_back(c.path()); });
  std::sort(paths.begin(), paths.end());
  EXPECT_EQ(paths, (std::vector<std::string>{"x/a", "x/a", "x/b", "x/b",
                                             "y/h"}));
  EXPECT_EQ(walk(inner.counters),
            (std::map<std::string, std::uint64_t>{
                {"x/a", 0}, {"x/b", 3}, {"y/h", 2}}));
}

TEST(CounterGroup, CopiesAreUnlinkedSnapshots) {
  Owner o;
  o.a.inc(4);
  const Owner snap = o;  // e.g. a FileClient::OpStats copy
  EXPECT_EQ(snap.a, 4u);
  EXPECT_TRUE(walk(snap.counters).empty());
  Owner target;
  target = o;  // assignment moves values, not links
  EXPECT_EQ(walk(target.counters),
            (std::map<std::string, std::uint64_t>{{"x/a", 4}, {"x/b", 0}}));
  ++o.a;
  EXPECT_EQ(target.a, 4u);
  Counter loose;  // no group: exported by no walk
  loose.inc();
  EXPECT_EQ(loose.path(), nullptr);
}

}  // namespace
}  // namespace ordma
