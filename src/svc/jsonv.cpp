#include "svc/jsonv.hpp"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/check.hpp"

namespace rota::svc {

using util::ErrorCode;

bool JsonValue::boolean() const {
  ROTA_REQUIRE(is_bool(), "JsonValue::boolean() on a non-bool");
  return bool_;
}

double JsonValue::number() const {
  ROTA_REQUIRE(is_number(), "JsonValue::number() on a non-number");
  return number_;
}

const std::string& JsonValue::str() const {
  ROTA_REQUIRE(is_string(), "JsonValue::str() on a non-string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::array() const {
  ROTA_REQUIRE(is_array(), "JsonValue::array() on a non-array");
  return array_;
}

const JsonValue::Members& JsonValue::members() const {
  ROTA_REQUIRE(is_object(), "JsonValue::members() on a non-object");
  return members_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

util::Result<std::int64_t> JsonValue::as_int64() const {
  if (!is_number()) {
    return {ErrorCode::kInvalidArgument, "expected a number"};
  }
  // Exact-integer check: 2^53 bounds the doubles that can hold every
  // integer losslessly, and covers every field in the request protocol.
  if (std::floor(number_) != number_ || std::abs(number_) > 9007199254740992.0)
    return {ErrorCode::kInvalidArgument, "expected an integral number"};
  return static_cast<std::int64_t>(number_);
}

util::Result<std::uint64_t> JsonValue::as_uint64() const {
  auto v = as_int64();
  if (!v.ok()) return v.error();
  if (v.value() < 0)
    return {ErrorCode::kInvalidArgument, "expected a non-negative number"};
  return static_cast<std::uint64_t>(v.value());
}

/// Recursive-descent parser building values (RFC 8259 grammar, strict).
/// Positions are tracked for error messages.
class JsonParser {
 public:
  JsonParser(std::string_view text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  util::Result<JsonValue> run() {
    skip_ws();
    JsonValue value;
    if (!parse_value(value, 0)) return take_error();
    skip_ws();
    if (pos_ != text_.size()) {
      return fail("trailing characters after JSON document");
    }
    return value;
  }

 private:
  util::Error error_{ErrorCode::kInvalidArgument, ""};
  bool failed_ = false;

  util::Result<JsonValue> take_error() { return error_; }

  bool fail_at(const std::string& message) {
    if (!failed_) {
      failed_ = true;
      error_.message =
          message + " at byte " + std::to_string(pos_) + " of JSON input";
    }
    return false;
  }

  util::Result<JsonValue> fail(const std::string& message) {
    fail_at(message);
    return error_;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  bool consume(char c) {
    if (at_end() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > max_depth_) return fail_at("nesting too deep");
    if (at_end()) return fail_at("unexpected end of input");
    switch (peek()) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return parse_string(out.string_);
      case 't':
        return parse_literal("true", out, JsonValue::Kind::kBool, true);
      case 'f':
        return parse_literal("false", out, JsonValue::Kind::kBool, false);
      case 'n':
        return parse_literal("null", out, JsonValue::Kind::kNull, false);
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(std::string_view word, JsonValue& out,
                     JsonValue::Kind kind, bool value) {
    if (text_.substr(pos_, word.size()) != word)
      return fail_at("invalid literal");
    pos_ += word.size();
    out.kind_ = kind;
    out.bool_ = value;
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') ++pos_;
    if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
      return fail_at("invalid number");
    // RFC 8259: no leading zeros ("01" is two tokens, i.e. an error).
    const bool leading_zero = peek() == '0';
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
      ++pos_;
    if (leading_zero && pos_ - start > (text_[start] == '-' ? 2u : 1u))
      return fail_at("invalid number: leading zero");
    if (!at_end() && peek() == '.') {
      ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail_at("invalid number: digit required after '.'");
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || !std::isdigit(static_cast<unsigned char>(peek())))
        return fail_at("invalid number: digit required in exponent");
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek())))
        ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    out.kind_ = JsonValue::Kind::kNumber;
    out.number_ = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(out.number_))
      return fail_at("number out of range");
    return true;
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return fail_at("expected '\"'");
    out.clear();
    while (true) {
      if (at_end()) return fail_at("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20)
        return fail_at("raw control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (at_end()) return fail_at("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          if (!parse_hex4(code)) return false;
          // Surrogate pair: a high half must be followed by \uDC00..DFFF.
          if (code >= 0xD800 && code <= 0xDBFF) {
            unsigned low = 0;
            if (!(consume('\\') && consume('u') && parse_hex4(low)) ||
                low < 0xDC00 || low > 0xDFFF)
              return fail_at("invalid surrogate pair");
            append_utf8(out, 0x10000 + ((code - 0xD800) << 10) +
                                 (low - 0xDC00));
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return fail_at("stray low surrogate");
          } else {
            append_utf8(out, code);
          }
          break;
        }
        default:
          return fail_at("invalid escape character");
      }
    }
  }

  bool parse_hex4(unsigned& code) {
    code = 0;
    for (int i = 0; i < 4; ++i) {
      if (at_end()) return fail_at("truncated \\u escape");
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail_at("invalid \\u escape digit");
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    consume('[');
    out.kind_ = JsonValue::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      JsonValue element;
      skip_ws();
      if (!parse_value(element, depth + 1)) return false;
      out.array_.push_back(std::move(element));
      skip_ws();
      if (consume(']')) return true;
      if (!consume(',')) return fail_at("expected ',' or ']' in array");
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    consume('{');
    out.kind_ = JsonValue::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (at_end() || peek() != '"')
        return fail_at("expected string key in object");
      if (!parse_string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail_at("expected ':' after object key");
      skip_ws();
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members_.emplace_back(std::move(key), std::move(value));
      skip_ws();
      if (consume('}')) return true;
      if (!consume(',')) return fail_at("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int max_depth_;
};

util::Result<JsonValue> JsonValue::parse(std::string_view text,
                                         int max_depth) {
  return JsonParser(text, max_depth).run();
}

}  // namespace rota::svc
