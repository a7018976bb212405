#include "obs/metrics.h"

#include <fstream>
#include <ostream>

#include "obs/json.h"

namespace ordma::obs {

void install(MetricsRegistry* r) { tls().registry = r; }

MetricsRegistry::~MetricsRegistry() {
  if (tls().registry == this) install(nullptr);
}

Counter& MetricsRegistry::counter(const std::string& path) {
  Entry& e = entries_[path];
  if (!e.c) e.c = std::make_unique<Counter>();
  return *e.c;
}

LatencyHistogram& MetricsRegistry::histogram(const std::string& path) {
  Entry& e = entries_[path];
  if (!e.h) e.h = std::make_unique<LatencyHistogram>();
  return *e.h;
}

MetricsRegistry::Entry& MetricsRegistry::fresh_entry(const std::string& path) {
  auto [it, fresh] = entries_.try_emplace(path);
  ORDMA_CHECK_MSG(fresh, ("metric path registered twice: " + path).c_str());
  return it->second;
}

void MetricsRegistry::histogram_view(const std::string& path,
                                     const LatencyHistogram* h) {
  fresh_entry(path).hv = h;
}

void MetricsRegistry::gauge(const std::string& path,
                            std::function<double()> fn, bool cumulative) {
  Entry& e = fresh_entry(path);
  e.g = std::move(fn);
  e.g_cumulative = cumulative;
}

void MetricsRegistry::export_counters(const std::string& prefix,
                                      const CounterGroup& group) {
  group.for_each([&](const Counter& c) {
    gauge(prefix + c.path(), [&c] { return static_cast<double>(c.get()); },
          /*cumulative=*/true);
  });
}

void MetricsRegistry::delta_snapshot(DeltaCursor& cursor,
                                     std::vector<Delta>& out) const {
  out.clear();
  for (const auto& [path, e] : entries_) {
    Delta d;
    d.path = &path;
    DeltaCursor::Base& base = cursor.base[path];
    if (e.g) {
      const double v = e.g();
      if (e.g_cumulative) {
        d.kind = Kind::cumulative_gauge;
        d.value = v - base.value;
        base.value = v;
      } else {
        d.kind = Kind::gauge;
        d.value = v;
      }
    } else if (e.c) {
      d.kind = Kind::counter;
      const double v = static_cast<double>(e.c->get());
      d.value = v - base.value;
      base.value = v;
    } else if (const LatencyHistogram* h = e.hist()) {
      d.kind = Kind::histogram;
      const double sum = h->sum_us();
      d.h_sum_us = sum - base.h_sum_us;
      base.h_sum_us = sum;
      std::uint64_t count = 0;
      for (std::size_t b = 0; b < LatencyHistogram::bucket_count(); ++b) {
        const std::uint64_t n = h->bucket_value(b);
        d.h_buckets[b] = n - base.h_buckets[b];
        base.h_buckets[b] = n;
        count += d.h_buckets[b];
      }
      d.value = static_cast<double>(count);
    } else {
      continue;  // placeholder entry with no instrument yet
    }
    out.push_back(d);
  }
}

void MetricsRegistry::write_json(std::ostream& os) const {
  // Nest '/'-separated paths into an object tree. std::map keeps both the
  // tree and the output deterministic.
  struct Node {
    std::map<std::string, Node> kids;
    const Entry* leaf = nullptr;
  };
  Node root;
  for (const auto& [path, entry] : entries_) {
    Node* n = &root;
    std::size_t start = 0;
    for (;;) {
      const auto slash = path.find('/', start);
      const std::string part =
          path.substr(start, slash == std::string::npos ? std::string::npos
                                                        : slash - start);
      n = &n->kids[part];
      if (slash == std::string::npos) break;
      start = slash + 1;
    }
    n->leaf = &entry;
  }

  auto emit_entry = [&](const Entry& e) {
    const LatencyHistogram* h = e.hist();
    if (e.g) {
      emit_number(os, e.g());
    } else if (e.c) {
      os << e.c->get();
    } else if (h) {
      os << R"({"count":)" << h->count() << R"(,"mean_us":)";
      emit_number(os, h->mean_us());
      os << R"(,"max_us":)";
      emit_number(os, h->max_us());
      os << R"(,"buckets":[)";
      bool first = true;
      for (std::size_t b = 0; b < LatencyHistogram::bucket_count(); ++b) {
        if (h->bucket_value(b) == 0) continue;
        if (!first) os << ",";
        first = false;
        os << R"({"le_us":)";
        emit_number(os, LatencyHistogram::upper_edge_us(b));
        os << R"(,"n":)" << h->bucket_value(b);
        // Exemplar: the most recent *retained* trace op that landed in
        // this bucket — the p99-bucket-to-trace hop (obs/sampler.h).
        if (h->bucket_exemplar(b) != 0) {
          os << R"(,"exemplar":)" << h->bucket_exemplar(b);
        }
        os << "}";
      }
      os << "]}";
    } else {
      os << "null";
    }
  };

  auto emit_node = [&](auto&& self, const Node& n) -> void {
    if (n.leaf) {
      emit_entry(*n.leaf);
      return;
    }
    os << "{";
    bool first = true;
    for (const auto& [name, kid] : n.kids) {
      if (!first) os << ",";
      first = false;
      os << "\"";
      json_escaped(os, name);
      os << "\":";
      self(self, kid);
    }
    os << "}";
  };
  emit_node(emit_node, root);
  os << "\n";
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f);
  return f.good();
}

// ---------------------------------------------------------------------------
// MetricsSink
// ---------------------------------------------------------------------------

namespace {
MetricsSink* g_metrics_sink = nullptr;
}  // namespace

MetricsSink* metrics_sink() { return g_metrics_sink; }
void install_metrics_sink(MetricsSink* s) { g_metrics_sink = s; }

void MetricsSink::add(const std::string& label, std::string doc) {
  // Trim the trailing newline write_json appends: docs embed in an object.
  while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
    doc.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = label;
  for (int n = 2; docs_.count(key) != 0; ++n) {
    key = label + "#" + std::to_string(n);
  }
  docs_.emplace(std::move(key), std::move(doc));
}

std::size_t MetricsSink::runs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return docs_.size();
}

void MetricsSink::write(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  os << R"({"schema":"ordma.metrics.v1","runs":{)";
  bool first = true;
  for (const auto& [label, doc] : docs_) {
    if (!first) os << ",";
    first = false;
    os << "\n\"";
    json_escaped(os, label);
    os << "\":" << doc;
  }
  os << (docs_.empty() ? "}}" : "\n}}") << "\n";
}

bool MetricsSink::write_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write(f);
  return f.good();
}

}  // namespace ordma::obs
