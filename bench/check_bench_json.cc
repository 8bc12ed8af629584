// BENCH_*.json schema checker for the bench-smoke CI job.
//
// The bench binaries hand-write their JSON with fprintf, so nothing
// guarantees the files stay parseable or keep the keys downstream tooling
// reads. This tool parses a bench JSON strictly (objects, arrays, strings,
// numbers, booleans, null — no trailing commas) and asserts the schema the
// pipeline depends on:
//
//   ./build/bench/check_bench_json FILE
//       [--require KEY]...            top-level key must exist
//       [--require-min KEY VALUE]     top-level key must be a number >= VALUE
//       [--require-max KEY VALUE]     top-level key must be a number <= VALUE
//       [--require-min-parallel KEY VALUE]
//                                     as --require-min, but SKIPPED (with a
//                                     note, not a failure) when the file's
//                                     "hardware_concurrency" is < 2 — a
//                                     parallel-speedup floor is meaningless
//                                     for a bench that ran on one core
//       [--require-metric-prefix P]   "metrics" must hold >= 1 family
//                                     whose name starts with P
//
// Exit 0 when every requirement holds; 1 with a diagnostic otherwise.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

/// Minimal recursive-descent JSON value. Only what the checker needs:
/// object member lookup and type tags.
struct JsonValue {
  enum class Type { kObject, kArray, kString, kNumber, kBool, kNull };
  Type type = Type::kNull;
  std::map<std::string, std::unique_ptr<JsonValue>> members;  // kObject
  std::vector<std::unique_ptr<JsonValue>> items;              // kArray
  std::string text;  // kString value / kNumber lexeme / bool lexeme
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view input) : in_(input) {}

  /// Returns nullptr (with error()) on malformed input or trailing junk.
  std::unique_ptr<JsonValue> parse() {
    auto value = parse_value();
    if (!value) return nullptr;
    skip_ws();
    if (pos_ != in_.size()) {
      fail("trailing characters after the top-level value");
      return nullptr;
    }
    return value;
  }

  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void skip_ws() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at byte " + std::to_string(pos_);
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < in_.size() && in_[pos_] == c) {
      ++pos_;
      return true;
    }
    fail(std::string("expected '") + c + "'");
    return false;
  }

  bool parse_string_into(std::string& out) {
    skip_ws();
    if (pos_ >= in_.size() || in_[pos_] != '"') {
      fail("expected string");
      return false;
    }
    ++pos_;
    while (pos_ < in_.size() && in_[pos_] != '"') {
      char c = in_[pos_++];
      if (c == '\\') {
        if (pos_ >= in_.size()) break;
        const char esc = in_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'u':
            // Keep the checker simple: preserve \uXXXX escapes verbatim
            // (bench JSON only ever emits them for control characters).
            out += "\\u";
            continue;
          default: c = esc; break;
        }
      }
      out += c;
    }
    if (pos_ >= in_.size()) {
      fail("unterminated string");
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  std::unique_ptr<JsonValue> parse_value() {
    skip_ws();
    if (pos_ >= in_.size()) {
      fail("unexpected end of input");
      return nullptr;
    }
    const char c = in_[pos_];
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      auto v = std::make_unique<JsonValue>();
      v->type = JsonValue::Type::kString;
      if (!parse_string_into(v->text)) return nullptr;
      return v;
    }
    if (c == 't' || c == 'f') return parse_keyword();
    if (c == 'n') return parse_keyword();
    return parse_number();
  }

  std::unique_ptr<JsonValue> parse_object() {
    if (!consume('{')) return nullptr;
    auto v = std::make_unique<JsonValue>();
    v->type = JsonValue::Type::kObject;
    skip_ws();
    if (pos_ < in_.size() && in_[pos_] == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      std::string key;
      if (!parse_string_into(key)) return nullptr;
      if (!consume(':')) return nullptr;
      auto member = parse_value();
      if (!member) return nullptr;
      v->members[key] = std::move(member);
      skip_ws();
      if (pos_ < in_.size() && in_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!consume('}')) return nullptr;
      return v;
    }
  }

  std::unique_ptr<JsonValue> parse_array() {
    if (!consume('[')) return nullptr;
    auto v = std::make_unique<JsonValue>();
    v->type = JsonValue::Type::kArray;
    skip_ws();
    if (pos_ < in_.size() && in_[pos_] == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      auto item = parse_value();
      if (!item) return nullptr;
      v->items.push_back(std::move(item));
      skip_ws();
      if (pos_ < in_.size() && in_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (!consume(']')) return nullptr;
      return v;
    }
  }

  std::unique_ptr<JsonValue> parse_keyword() {
    for (const auto& [word, type] :
         {std::pair<std::string_view, JsonValue::Type>{
              "true", JsonValue::Type::kBool},
          {"false", JsonValue::Type::kBool},
          {"null", JsonValue::Type::kNull}}) {
      if (in_.substr(pos_, word.size()) == word) {
        auto v = std::make_unique<JsonValue>();
        v->type = type;
        v->text = word;
        pos_ += word.size();
        return v;
      }
    }
    fail("unknown keyword");
    return nullptr;
  }

  std::unique_ptr<JsonValue> parse_number() {
    const std::size_t start = pos_;
    if (pos_ < in_.size() && (in_[pos_] == '-' || in_[pos_] == '+')) ++pos_;
    bool digits = false;
    while (pos_ < in_.size() &&
           (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
            in_[pos_] == '.' || in_[pos_] == 'e' || in_[pos_] == 'E' ||
            in_[pos_] == '-' || in_[pos_] == '+')) {
      if (std::isdigit(static_cast<unsigned char>(in_[pos_]))) digits = true;
      ++pos_;
    }
    if (!digits) {
      fail("malformed number");
      return nullptr;
    }
    auto v = std::make_unique<JsonValue>();
    v->type = JsonValue::Type::kNumber;
    v->text = std::string(in_.substr(start, pos_ - start));
    return v;
  }

  std::string_view in_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> required_keys;
  std::vector<std::pair<std::string, double>> required_minimums;
  std::vector<std::pair<std::string, double>> required_maximums;
  std::vector<std::pair<std::string, double>> parallel_minimums;
  std::vector<std::string> metric_prefixes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require") == 0 && i + 1 < argc) {
      required_keys.emplace_back(argv[++i]);
    } else if (std::strcmp(argv[i], "--require-min") == 0 && i + 2 < argc) {
      const char* key = argv[++i];
      required_minimums.emplace_back(key, std::strtod(argv[++i], nullptr));
    } else if (std::strcmp(argv[i], "--require-max") == 0 && i + 2 < argc) {
      const char* key = argv[++i];
      required_maximums.emplace_back(key, std::strtod(argv[++i], nullptr));
    } else if (std::strcmp(argv[i], "--require-min-parallel") == 0 &&
               i + 2 < argc) {
      const char* key = argv[++i];
      parallel_minimums.emplace_back(key, std::strtod(argv[++i], nullptr));
    } else if (std::strcmp(argv[i], "--require-metric-prefix") == 0 &&
               i + 1 < argc) {
      metric_prefixes.emplace_back(argv[++i]);
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s FILE [--require KEY]... "
                   "[--require-min KEY VALUE]... "
                   "[--require-max KEY VALUE]... "
                   "[--require-min-parallel KEY VALUE]... "
                   "[--require-metric-prefix P]...\n",
                   argv[0]);
      return 2;
    } else if (path.empty()) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "only one FILE may be given\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "missing FILE argument\n");
    return 2;
  }

  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "%s: cannot open\n", path.c_str());
    return 1;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  JsonParser parser(text);
  const auto root = parser.parse();
  if (!root) {
    std::fprintf(stderr, "%s: invalid JSON: %s\n", path.c_str(),
                 parser.error().c_str());
    return 1;
  }
  if (root->type != JsonValue::Type::kObject) {
    std::fprintf(stderr, "%s: top-level value is not an object\n",
                 path.c_str());
    return 1;
  }

  int failures = 0;

  // Parallel-only floors: fold into the plain minimums when the recorded
  // host could actually run threads in parallel; otherwise announce the
  // skip so the CI log shows the gate was consciously waived, not lost.
  if (!parallel_minimums.empty()) {
    double concurrency = 0.0;
    const auto it = root->members.find("hardware_concurrency");
    if (it != root->members.end() &&
        it->second->type == JsonValue::Type::kNumber) {
      concurrency = std::strtod(it->second->text.c_str(), nullptr);
    }
    if (concurrency >= 2.0) {
      for (const auto& minimum : parallel_minimums) {
        required_minimums.push_back(minimum);
      }
    } else {
      for (const auto& [key, minimum] : parallel_minimums) {
        std::printf(
            "%s: skipping parallel floor \"%s\" >= %g "
            "(hardware_concurrency = %g < 2)\n",
            path.c_str(), key.c_str(), minimum, concurrency);
      }
    }
  }

  for (const std::string& key : required_keys) {
    if (!root->members.contains(key)) {
      std::fprintf(stderr, "%s: missing required key \"%s\"\n", path.c_str(),
                   key.c_str());
      ++failures;
    }
  }

  // One numeric bound per entry: the key must exist, be a number, and sit
  // on the allowed side of the bound.
  const auto check_bound = [&](const std::string& key, double bound,
                               bool is_minimum) {
    const auto it = root->members.find(key);
    if (it == root->members.end()) {
      std::fprintf(stderr, "%s: missing required key \"%s\"\n", path.c_str(),
                   key.c_str());
      ++failures;
      return;
    }
    if (it->second->type != JsonValue::Type::kNumber) {
      std::fprintf(stderr, "%s: key \"%s\" is not a number\n", path.c_str(),
                   key.c_str());
      ++failures;
      return;
    }
    const double value = std::strtod(it->second->text.c_str(), nullptr);
    if (!(is_minimum ? value >= bound : value <= bound)) {
      std::fprintf(stderr, "%s: key \"%s\" = %s is %s the required %s %g\n",
                   path.c_str(), key.c_str(), it->second->text.c_str(),
                   is_minimum ? "below" : "above",
                   is_minimum ? "minimum" : "maximum", bound);
      ++failures;
    }
  };
  for (const auto& [key, minimum] : required_minimums) {
    check_bound(key, minimum, /*is_minimum=*/true);
  }
  for (const auto& [key, maximum] : required_maximums) {
    check_bound(key, maximum, /*is_minimum=*/false);
  }

  if (!metric_prefixes.empty()) {
    const auto metrics_it = root->members.find("metrics");
    if (metrics_it == root->members.end() ||
        metrics_it->second->type != JsonValue::Type::kObject) {
      std::fprintf(stderr, "%s: no \"metrics\" object\n", path.c_str());
      ++failures;
    } else {
      for (const std::string& prefix : metric_prefixes) {
        bool found = false;
        for (const auto& [family, value] : metrics_it->second->members) {
          if (family.rfind(prefix, 0) == 0) {
            found = true;
            break;
          }
        }
        if (!found) {
          std::fprintf(stderr,
                       "%s: no metric family with prefix \"%s\" in the "
                       "metrics block\n",
                       path.c_str(), prefix.c_str());
          ++failures;
        }
      }
    }
  }

  if (failures == 0) {
    std::printf("%s: ok (%zu top-level keys)\n", path.c_str(),
                root->members.size());
    return 0;
  }
  return 1;
}
