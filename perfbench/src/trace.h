// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a program layer; spans record name, start,
// end, parent and request id, stay in per-thread buffers while the workload
// runs, and are written out once at the end. With tracing off a Span costs
// one relaxed load.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

void set_enabled(bool on);
[[nodiscard]] bool enabled();

struct Record {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;   // 0 = root
  std::uint64_t request = 0;  // 0 = not tied to one request
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

/// Pass as `parent` to nest under the innermost open span of this thread.
inline constexpr std::uint64_t kCurrentParent = ~std::uint64_t{0};

class Span {
 public:
  explicit Span(const char* name, std::uint64_t parent = kCurrentParent,
                std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// 0 when tracing is off; hand to spans opened on other threads.
  [[nodiscard]] std::uint64_t id() const { return record_.id; }

 private:
  Record record_;
  bool active_ = false;
};

/// Every span recorded so far, from all threads. Call only while no thread
/// is recording (between phases).
[[nodiscard]] std::vector<Record> collect();

struct Totals {
  double total_s = 0.0;  // summed span durations
  double self_s = 0.0;   // minus the time covered by child spans
  std::uint64_t count = 0;
};

/// Per-name totals. A span's self time is its duration minus the union of
/// its children's intervals clipped to it.
[[nodiscard]] std::map<std::string, Totals> totals(
    const std::vector<Record>& records);

/// One JSON object per line; returns false if the file cannot be written.
bool write_jsonl(const std::string& path, const std::vector<Record>& records);

}  // namespace perfbench::trace
