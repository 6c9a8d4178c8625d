// Minimal JSON document model + recursive-descent parser, and the one
// JSON string writer every emitter in the tree uses.
//
// Exists so the JSON exporter's output is verifiable in-tree (the obs
// test suite round-trips every export through this parser) and so
// tooling can consume metric dumps without an external dependency. It
// parses the full JSON grammar the exporter emits: objects, arrays,
// strings (with \uXXXX escapes decoded to UTF-8), numbers, booleans,
// null. Not a streaming parser; documents are metric-dump sized.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace soteria::obs::json {

/// One JSON value. Objects use ordered maps so iteration (and
/// re-serialization in tests) is deterministic.
class Value {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Value() = default;  // null

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept {
    return type_ == Type::kNull;
  }

  /// Typed accessors; each throws std::runtime_error on a type
  /// mismatch so tests fail with a message instead of UB.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& as_array() const;
  [[nodiscard]] const std::map<std::string, Value>& as_object() const;

  /// Object member access; throws std::runtime_error if this is not an
  /// object or the key is absent.
  [[nodiscard]] const Value& at(const std::string& key) const;

  /// True if this is an object containing `key`.
  [[nodiscard]] bool contains(const std::string& key) const;

  static Value make_bool(bool v);
  static Value make_number(double v);
  static Value make_string(std::string v);
  static Value make_array(std::vector<Value> v);
  static Value make_object(std::map<std::string, Value> v);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::map<std::string, Value> object_;
};

/// Appends `text` to `out` as a quoted JSON string: `"` and `\`
/// escaped, \n \r \t by name and every other byte below 0x20 as
/// \u00XX, so any input yields valid JSON that parse() reads back
/// unchanged. Bytes from 0x20 up pass through as they are.
void append_string(std::string& out, std::string_view text);

/// Parses one JSON document. Throws std::runtime_error (with a byte
/// offset in the message) on malformed input or trailing garbage.
[[nodiscard]] Value parse(std::string_view text);

}  // namespace soteria::obs::json
