#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "timing.h"

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

// Buffers outlive their threads: the registry owns them, a thread only
// appends to its own.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Record>>> g_buffers;

struct ThreadState {
  std::vector<Record>* buffer = nullptr;
  std::uint32_t thread = 0;
  std::vector<std::uint64_t> open;  // ids of this thread's open spans
};

ThreadState& thread_state() {
  thread_local ThreadState state;
  if (state.buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<std::vector<Record>>());
    state.buffer = g_buffers.back().get();
    state.buffer->reserve(1 << 12);
    state.thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
  }
  return state;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name, std::uint64_t parent, std::uint64_t request) {
  if (!enabled()) return;
  ThreadState& state = thread_state();
  active_ = true;
  record_.name = name;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = parent == kCurrentParent
                       ? (state.open.empty() ? 0 : state.open.back())
                       : parent;
  record_.request = request;
  record_.thread = state.thread;
  state.open.push_back(record_.id);
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  ThreadState& state = thread_state();
  state.open.pop_back();
  state.buffer->push_back(record_);
}

std::vector<Record> collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<Record> all;
  for (const auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
  }
  std::sort(all.begin(), all.end(), [](const Record& a, const Record& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

std::map<std::string, Totals> totals(const std::vector<Record>& records) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t,
                                                          std::int64_t>>>
      children;
  for (const Record& r : records) {
    if (r.parent != 0) children[r.parent].emplace_back(r.start_ns, r.end_ns);
  }
  std::map<std::string, Totals> out;
  for (const Record& r : records) {
    const std::int64_t duration = r.end_ns - r.start_ns;
    std::int64_t covered = 0;
    if (const auto it = children.find(r.id); it != children.end()) {
      auto intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = r.start_ns;  // union of clipped child intervals
      for (const auto& [begin, end] : intervals) {
        const std::int64_t b = std::max(begin, reach);
        const std::int64_t e = std::min(end, r.end_ns);
        if (e > b) {
          covered += e - b;
          reach = e;
        }
      }
    }
    Totals& t = out[r.name];
    t.total_s += static_cast<double>(duration) * 1e-9;
    t.self_s += static_cast<double>(duration - covered) * 1e-9;
    ++t.count;
  }
  return out;
}

bool write_jsonl(const std::string& path,
                 const std::vector<Record>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Record& r : records) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"thread\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 r.name, static_cast<unsigned long long>(r.id),
                 static_cast<unsigned long long>(r.parent),
                 static_cast<unsigned long long>(r.request), r.thread,
                 static_cast<long long>(r.start_ns),
                 static_cast<long long>(r.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench::trace
