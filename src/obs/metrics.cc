#include "obs/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "util/check.h"

namespace wafp::obs {

namespace detail {

std::size_t thread_shard_seed() {
  thread_local const std::size_t seed =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  return seed;
}

}  // namespace detail

Histogram::Histogram(std::span<const std::uint64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()) {
  WAFP_CHECK(!bounds_.empty()) << "Histogram needs at least one bucket bound";
  WAFP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()) &&
             std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                 bounds_.end())
      << "Histogram bounds must be strictly increasing";
  for (Shard& s : shards_) {
    s.buckets = std::vector<std::atomic<std::uint64_t>>(bounds_.size() + 1);
  }
}

std::size_t Histogram::bucket_index(std::uint64_t value) const {
  // First bound >= value; the overflow bucket is bounds_.size().
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  std::uint64_t min = UINT64_MAX;
  for (const Shard& s : shards_) {
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      snap.counts[i] += s.buckets[i].load(std::memory_order_relaxed);
    }
    snap.sum += s.sum.load(std::memory_order_relaxed);
    snap.count += s.count.load(std::memory_order_relaxed);
    snap.max = std::max(snap.max, s.max.load(std::memory_order_relaxed));
    min = std::min(min, s.min.load(std::memory_order_relaxed));
  }
  // A snapshot racing observe() can see a shard's count before its
  // min/max; keep min <= max so quantiles always have a valid range.
  snap.min = snap.count == 0 ? 0 : std::min(min, snap.max);
  snap.overflow = snap.counts.back();
  return snap;
}

double Histogram::Snapshot::quantile(double q) const {
  if (count == 0 || bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  const auto observed_min = static_cast<double>(min);
  const auto observed_max = static_cast<double>(max);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t c = counts[i];
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double hi =
          i < bounds.size() ? static_cast<double>(bounds[i]) : observed_max;
      const double frac =
          (target - static_cast<double>(cum)) / static_cast<double>(c);
      return std::clamp(lo + frac * (hi - lo), observed_min, observed_max);
    }
    cum += c;
  }
  return observed_max;
}

std::string label(std::string_view key, std::string_view value) {
  std::string out;
  out.reserve(key.size() + value.size() + 3);
  out.append(key);
  out.append("=\"");
  for (const char c : value) {
    // Prometheus exposition format: label values escape backslash, quote,
    // and line-feed (a raw '\n' would terminate the sample line early and
    // corrupt the whole scrape).
    if (c == '\n') {
      out.append("\\n");
      continue;
    }
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::span<const std::uint64_t> MetricsRegistry::default_latency_bounds_ns() {
  static constexpr std::array<std::uint64_t, 20> kBounds = {
      1'000ULL,          2'000ULL,         5'000ULL,
      10'000ULL,         20'000ULL,        50'000ULL,
      100'000ULL,        200'000ULL,       500'000ULL,
      1'000'000ULL,      2'000'000ULL,     5'000'000ULL,
      10'000'000ULL,     20'000'000ULL,    50'000'000ULL,
      100'000'000ULL,    200'000'000ULL,   500'000'000ULL,
      1'000'000'000ULL,  5'000'000'000ULL,
  };
  return kBounds;
}

MetricsRegistry::Instrument& MetricsRegistry::instrument(
    std::string_view family, std::string_view help, std::string_view labels,
    Kind kind, std::span<const std::uint64_t> bounds) {
  WAFP_CHECK(!family.empty()) << "metric family name must not be empty";
  util::MutexLock lock(mu_);
  auto fam_it = families_.find(family);
  if (fam_it == families_.end()) {
    fam_it = families_.emplace(std::string(family), Family{}).first;
    fam_it->second.help = std::string(help);
    fam_it->second.kind = kind;
  }
  Family& fam = fam_it->second;
  WAFP_CHECK(fam.kind == kind)
      << "metric family '" << std::string(family)
      << "' re-registered under a different kind";
  auto [inst_it, inserted] =
      fam.instruments.try_emplace(std::string(labels));
  if (inserted) {
    inst_it->second = std::make_unique<Instrument>();
    switch (kind) {
      case Kind::kCounter:
        inst_it->second->counter = std::make_unique<Counter>();
        break;
      case Kind::kGauge:
        inst_it->second->gauge = std::make_unique<Gauge>();
        break;
      case Kind::kHistogram:
        inst_it->second->histogram = std::make_unique<Histogram>(
            bounds.empty() ? default_latency_bounds_ns() : bounds);
        break;
    }
  }
  return *inst_it->second;
}

Counter& MetricsRegistry::counter(std::string_view family,
                                  std::string_view help,
                                  std::string_view labels) {
  return *instrument(family, help, labels, Kind::kCounter, {}).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view family, std::string_view help,
                              std::string_view labels) {
  return *instrument(family, help, labels, Kind::kGauge, {}).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view family,
                                      std::string_view help,
                                      std::string_view labels,
                                      std::span<const std::uint64_t> bounds) {
  return *instrument(family, help, labels, Kind::kHistogram, bounds).histogram;
}

void MetricsRegistry::set_clock(ClockFn fn) {
  auto boxed = fn ? std::make_unique<ClockFn>(std::move(fn)) : nullptr;
  util::MutexLock lock(mu_);
  clock_.store(boxed.get(), std::memory_order_release);
  if (boxed) retired_clocks_.push_back(std::move(boxed));
}

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

void append_i64(std::string& out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out += buf;
}

/// `name{labels}` or bare `name` when there are no labels; `extra` is an
/// optional additional label (the histogram `le`).
void append_series(std::string& out, std::string_view name,
                   std::string_view labels, std::string_view extra = {}) {
  out += name;
  if (!labels.empty() || !extra.empty()) {
    out += '{';
    out += labels;
    if (!labels.empty() && !extra.empty()) out += ',';
    out += extra;
    out += '}';
  }
}

/// JSON string literal (escapes quotes, backslashes, control chars).
void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

}  // namespace

std::string MetricsRegistry::render_text() const {
  util::MutexLock lock(mu_);
  std::string out;
  for (const auto& [name, fam] : families_) {
    if (!fam.help.empty()) {
      out += "# HELP ";
      out += name;
      out += ' ';
      out += fam.help;
      out += '\n';
    }
    out += "# TYPE ";
    out += name;
    out += ' ';
    switch (fam.kind) {
      case Kind::kCounter: out += "counter\n"; break;
      case Kind::kGauge: out += "gauge\n"; break;
      case Kind::kHistogram: out += "histogram\n"; break;
    }
    for (const auto& [labels, inst] : fam.instruments) {
      switch (fam.kind) {
        case Kind::kCounter:
          append_series(out, name, labels);
          out += ' ';
          append_u64(out, inst->counter->value());
          out += '\n';
          break;
        case Kind::kGauge:
          append_series(out, name, labels);
          out += ' ';
          append_i64(out, inst->gauge->value());
          out += '\n';
          break;
        case Kind::kHistogram: {
          const Histogram::Snapshot snap = inst->histogram->snapshot();
          std::uint64_t cum = 0;
          for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
            cum += snap.counts[i];
            std::string le = "le=\"";
            char buf[24];
            std::snprintf(buf, sizeof(buf), "%" PRIu64, snap.bounds[i]);
            le += buf;
            le += '"';
            append_series(out, std::string(name) + "_bucket", labels, le);
            out += ' ';
            append_u64(out, cum);
            out += '\n';
          }
          append_series(out, std::string(name) + "_bucket", labels,
                        "le=\"+Inf\"");
          out += ' ';
          append_u64(out, snap.count);
          out += '\n';
          append_series(out, std::string(name) + "_sum", labels);
          out += ' ';
          append_u64(out, snap.sum);
          out += '\n';
          append_series(out, std::string(name) + "_count", labels);
          out += ' ';
          append_u64(out, snap.count);
          out += '\n';
          break;
        }
      }
    }
  }
  return out;
}

std::string MetricsRegistry::render_json() const {
  util::MutexLock lock(mu_);
  std::string out = "{";
  bool first_family = true;
  for (const auto& [name, fam] : families_) {
    if (!first_family) out += ", ";
    first_family = false;
    out += '\n';
    out += "    ";
    append_json_string(out, name);
    out += ": ";
    const bool flat = fam.kind != Kind::kHistogram &&
                      fam.instruments.size() == 1 &&
                      fam.instruments.begin()->first.empty();
    if (!flat) out += '{';
    bool first_inst = true;
    for (const auto& [labels, inst] : fam.instruments) {
      if (!flat) {
        if (!first_inst) out += ", ";
        first_inst = false;
        append_json_string(out, labels);
        out += ": ";
      }
      switch (fam.kind) {
        case Kind::kCounter: append_u64(out, inst->counter->value()); break;
        case Kind::kGauge: append_i64(out, inst->gauge->value()); break;
        case Kind::kHistogram: {
          const Histogram::Snapshot snap = inst->histogram->snapshot();
          out += "{\"min\": ";
          append_u64(out, snap.min);
          out += ", \"count\": ";
          append_u64(out, snap.count);
          out += ", \"sum\": ";
          append_u64(out, snap.sum);
          out += ", \"p50\": ";
          append_double(out, snap.p50());
          out += ", \"p95\": ";
          append_double(out, snap.p95());
          out += ", \"p99\": ";
          append_double(out, snap.p99());
          out += ", \"overflow\": ";
          append_u64(out, snap.overflow);
          out += '}';
          break;
        }
      }
    }
    if (!flat) out += '}';
  }
  out += "\n  }";
  return out;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

}  // namespace wafp::obs
