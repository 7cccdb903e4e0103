#ifndef SPA_BENCH_JSON_WRITER_H_
#define SPA_BENCH_JSON_WRITER_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "bench_util.h"

#ifndef SPA_BUILD_TYPE
#define SPA_BUILD_TYPE "unknown"
#endif

namespace spa::bench {

/// The one JSON writer behind the bench artifacts: it owns nesting,
/// separators, indentation, escaping and number format, so a bench
/// only names keys and values. Object members go one per line, objects
/// inside arrays one line each; doubles print with six significant
/// digits, and NaN or infinity as `null`.
class JsonWriter {
 public:
  /// Starts the document's root object.
  JsonWriter() { Open('{'); }

  void BeginObject(std::string_view key) {
    Key(key);
    Open('{');
  }
  /// Opens an object as the next element of the enclosing array.
  void BeginObject() {
    Separate();
    Open('{');
  }
  void EndObject() { Close(); }
  void BeginArray(std::string_view key) {
    Key(key);
    Open('[');
  }
  void EndArray() { Close(); }

  /// One member of the enclosing object: a bool, integer,
  /// floating-point or string value.
  template <typename T>
  void Field(std::string_view key, const T& value) {
    Key(key);
    if constexpr (std::is_same_v<T, bool>) {
      out_ += value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      out_ += std::to_string(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      char number[32] = "null";
      if (std::isfinite(value)) {
        std::snprintf(number, sizeof(number), "%.6g",
                      static_cast<double>(value));
      }
      out_ += number;
    } else {
      AppendString(value);
    }
  }

  /// A member whose value is JSON another component already exports
  /// (`Profiler::ExportJson`), inserted verbatim.
  void RawField(std::string_view key, std::string_view value) {
    Key(key);
    out_ += value;
  }

  /// Closes every open container and writes the document to `path`.
  /// Returns false when the file cannot be written.
  bool WriteFile(const char* path) {
    while (!open_.empty()) Close();
    std::FILE* file = std::fopen(path, "w");
    if (file == nullptr) return false;
    const bool wrote =
        std::fwrite(out_.data(), 1, out_.size(), file) == out_.size();
    return std::fclose(file) == 0 && wrote;
  }

 private:
  struct Container {
    char close;
    bool one_line;  ///< members separated by ", " instead of newlines
    bool empty;
  };

  void NewLine(size_t depth) {
    out_ += '\n';
    out_.append(2 * depth, ' ');
  }
  void Separate() {
    Container& top = open_.back();
    if (!top.empty) out_ += top.one_line ? ", " : ",";
    if (!top.one_line) NewLine(open_.size());
    top.empty = false;
  }
  void Key(std::string_view key) {
    Separate();
    AppendString(key);
    out_ += ": ";
  }
  void Open(char bracket) {
    const bool one_line = !open_.empty() && (open_.back().one_line ||
                                             open_.back().close == ']');
    out_ += bracket;
    open_.push_back({bracket == '{' ? '}' : ']', one_line, true});
  }
  void Close() {
    const Container top = open_.back();
    open_.pop_back();
    if (!top.one_line && !top.empty) NewLine(open_.size());
    out_ += top.close;
    if (open_.empty()) out_ += '\n';
  }
  void AppendString(std::string_view text) {
    out_ += '"';
    for (const char c : text) {
      if (c == '"' || c == '\\') out_ += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) {
        out_ += c;
      } else {
        char escaped[8];
        std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
        out_ += escaped;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<Container> open_;
};

/// Opens a bench artifact: the root object with its `bench` tag and the
/// `provenance` block saying how the numbers were made — build type,
/// compiler, the host's hardware concurrency, the seed, the bench's
/// sizes and whether this was a `--smoke` run.
inline JsonWriter OpenArtifact(
    std::string_view bench, const CommonFlags& flags,
    std::initializer_list<std::pair<const char*, uint64_t>> sizes) {
  JsonWriter json;
  json.Field("bench", bench);
  json.BeginObject("provenance");
  json.Field("build_type", SPA_BUILD_TYPE);
#ifdef __clang__
  json.Field("compiler", "clang " __clang_version__);
#else
  json.Field("compiler", "gcc " __VERSION__);
#endif
  json.Field("hardware_concurrency", std::thread::hardware_concurrency());
  json.Field("seed", flags.seed);
  json.Field("smoke", flags.smoke);
  json.BeginObject("sizes");
  for (const auto& [name, value] : sizes) json.Field(name, value);
  json.EndObject();
  json.EndObject();
  return json;
}

}  // namespace spa::bench

#endif  // SPA_BENCH_JSON_WRITER_H_
