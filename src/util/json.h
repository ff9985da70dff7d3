// Minimal JSON value + parser + writer.
//
// The repo emits JSON in several places (Chrome traces, metrics exposition,
// BENCH_*.json telemetry) but until now nothing could *read* it back —
// `jps_bench_diff` needs to load two BENCH files, and the format tests need
// to round-trip the exporters' output.  This is a deliberately small
// recursive-descent implementation of RFC 8259: no comments, no trailing
// commas, objects keep insertion order, numbers are doubles.
//
// Depth is bounded (kMaxDepth) so malformed input cannot blow the stack.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace jps::util {

/// Error thrown by Json::parse with a byte offset into the input.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& message, std::size_t offset)
      : std::runtime_error(message + " at offset " + std::to_string(offset)),
        offset_(offset) {}
  [[nodiscard]] std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// One JSON value.  Copyable; an object's members keep insertion order so
/// dump() round-trips files byte-stably modulo whitespace.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Nesting depth accepted by parse().
  static constexpr std::size_t kMaxDepth = 64;

  Json() = default;  // null
  Json(bool value) : value_(value) {}                   // NOLINT(runtime/explicit)
  Json(double value) : value_(value) {}                 // NOLINT
  Json(int value) : Json(static_cast<double>(value)) {}  // NOLINT
  Json(const char* value) : Json(std::string(value)) {}  // NOLINT
  Json(std::string value)                                // NOLINT
      : value_(std::make_unique<std::string>(std::move(value))) {}

  Json(const Json& other);
  Json& operator=(const Json& other);
  /// A moved-from value is null.
  Json(Json&& other) noexcept : value_(std::exchange(other.value_, {})) {}
  Json& operator=(Json&& other) noexcept {
    value_ = std::exchange(other.value_, {});
    return *this;
  }
  ~Json() = default;

  [[nodiscard]] static Json array() {
    Json j;
    j.value_ = std::make_unique<std::vector<Json>>();
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.value_ = std::make_unique<Members>();
    return j;
  }

  /// Parse `text` (the complete input must be one JSON value; trailing
  /// non-whitespace throws).  Throws JsonParseError on malformed input.
  [[nodiscard]] static Json parse(const std::string& text);

  [[nodiscard]] Type type() const { return static_cast<Type>(value_.index()); }
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw std::runtime_error on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  /// Array access.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const Json& at(std::size_t index) const;
  void push_back(Json value);

  /// Object access.  `contains`/`get` never throw; `at` throws on a
  /// missing key.
  [[nodiscard]] bool contains(const std::string& key) const;
  [[nodiscard]] const Json* get(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;
  void set(const std::string& key, Json value);
  /// Object members in insertion order.
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const;

  /// Serialize.  `indent` == 0 gives one compact line; > 0 pretty-prints
  /// with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 0) const;

 private:
  using Members = std::vector<std::pair<std::string, Json>>;

  void dump_to(std::string& out, int indent, int depth) const;
  void require(Type type, const char* what) const;
  [[nodiscard]] const std::vector<Json>& elements() const;
  [[nodiscard]] const Members& fields() const;

  // One alternative per Type, in Type's order.  Bools and numbers sit
  // inline and everything else behind one pointer, so a value is 16 bytes
  // and a long array of numbers (per-pass benchmark timings) stays small.
  std::variant<std::monostate, bool, double, std::unique_ptr<std::string>,
               std::unique_ptr<std::vector<Json>>, std::unique_ptr<Members>>
      value_;
};

}  // namespace jps::util
