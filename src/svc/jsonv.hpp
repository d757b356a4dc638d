#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/result.hpp"

/// \file jsonv.hpp
/// A minimal JSON *value* parser for the svc request protocol, and the
/// repo's one JSON reader. The obs layer only ever emits JSON
/// (obs/json.hpp); the batch service must also *accept* JSON requests
/// from untrusted stdin, so this adds the smallest strict reader that
/// covers the JSON-lines protocol: objects, arrays, strings (with escapes), numbers,
/// booleans and null, bounded nesting depth, and structured errors instead
/// of exceptions — a malformed request must never unwind the service.

namespace rota::svc {

/// One parsed JSON value. Object members preserve source order (the
/// protocol never relies on it, but error messages and tests do).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Members = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() = default;  // null

  /// Strict parse of a complete document (no trailing garbage). Nesting
  /// deeper than `max_depth` is rejected — stdin is untrusted and the
  /// parser is recursive.
  [[nodiscard]] static util::Result<JsonValue> parse(std::string_view text,
                                                     int max_depth = 32);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }

  /// \pre is_bool()
  [[nodiscard]] bool boolean() const;
  /// \pre is_number()
  [[nodiscard]] double number() const;
  /// \pre is_string()
  [[nodiscard]] const std::string& str() const;
  /// \pre is_array()
  [[nodiscard]] const std::vector<JsonValue>& array() const;
  /// \pre is_object()
  [[nodiscard]] const Members& members() const;

  /// Member lookup by key; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(std::string_view key) const;

  /// The number as int64 if it is integral and in range, else no value.
  [[nodiscard]] util::Result<std::int64_t> as_int64() const;
  /// The number as uint64 if it is integral and non-negative.
  [[nodiscard]] util::Result<std::uint64_t> as_uint64() const;

 private:
  friend class JsonParser;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  Members members_;
};

}  // namespace rota::svc
