#include "io/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/error.h"

namespace semsim {

// ---- writer ----------------------------------------------------------------

void JsonWriter::prepare_value() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!has_item_.empty()) {
    if (has_item_.back()) out_ += ',';
    has_item_.back() = true;
  }
}

void JsonWriter::escape_into(std::string_view s) {
  out_ += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out_ += buf;
        } else {
          out_ += c;
        }
    }
  }
  out_ += '"';
}

JsonWriter& JsonWriter::begin_object() {
  prepare_value();
  out_ += '{';
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  require(!has_item_.empty() && !after_key_, "JsonWriter: unbalanced end_object");
  has_item_.pop_back();
  out_ += '}';
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  prepare_value();
  out_ += '[';
  has_item_.push_back(false);
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  require(!has_item_.empty() && !after_key_, "JsonWriter: unbalanced end_array");
  has_item_.pop_back();
  out_ += ']';
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  require(!after_key_, "JsonWriter: key after key");
  prepare_value();
  escape_into(name);
  out_ += ':';
  after_key_ = true;
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view s) {
  prepare_value();
  escape_into(s);
  return *this;
}

JsonWriter& JsonWriter::value(double v) {
  if (!std::isfinite(v)) return null();
  prepare_value();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out_ += buf;
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t v) {
  prepare_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t v) {
  prepare_value();
  out_ += std::to_string(v);
  return *this;
}

JsonWriter& JsonWriter::value(bool v) {
  prepare_value();
  out_ += v ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::null() {
  prepare_value();
  out_ += "null";
  return *this;
}

// ---- parser ----------------------------------------------------------------

class JsonParser {
 public:
  JsonParser(std::string_view text, const JsonParseLimits& limits)
      : text_(text), limits_(limits) {}

  JsonValue parse_document() {
    if (limits_.max_bytes > 0 && text_.size() > limits_.max_bytes) {
      throw ParseError(ErrorCode::kParseJsonTooLarge,
                       "json: document of " + std::to_string(text_.size()) +
                           " bytes exceeds the " +
                           std::to_string(limits_.max_bytes) + "-byte limit");
    }
    JsonValue v = parse_value();
    skip_ws();
    require(pos_ == text_.size(), "json: trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw Error(std::string("json: ") + what + " at offset " +
                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail("unexpected character");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    switch (c) {
      case '{': parse_object(v); return v;
      case '[': parse_array(v); return v;
      case '"':
        v.kind_ = JsonValue::Kind::kString;
        v.string_ = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("invalid literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("invalid literal");
        v.kind_ = JsonValue::Kind::kBool;
        v.bool_ = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("invalid literal");
        v.kind_ = JsonValue::Kind::kNull;
        return v;
      default:
        v.kind_ = JsonValue::Kind::kNumber;
        v.number_ = parse_number();
        return v;
    }
  }

  /// RAII depth guard for the two recursive productions. Containers are the
  /// only recursion in this grammar, so bounding them bounds the parser
  /// stack; strings and numbers are iterative.
  struct DepthGuard {
    JsonParser* p;
    explicit DepthGuard(JsonParser* parser) : p(parser) {
      if (++p->depth_ > p->limits_.max_depth) {
        throw ParseError(ErrorCode::kParseJsonTooDeep,
                         "json: nesting deeper than " +
                             std::to_string(p->limits_.max_depth) +
                             " levels at offset " + std::to_string(p->pos_));
      }
    }
    ~DepthGuard() { --p->depth_; }
  };

  void parse_object(JsonValue& v) {
    const DepthGuard guard(this);
    v.kind_ = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      v.object_.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  void parse_array(JsonValue& v) {
    const DepthGuard guard(this);
    v.kind_ = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return;
    }
    for (;;) {
      v.array_.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("invalid hex digit in \\u escape");
          }
          // Surrogate pairs are not needed by our schemas; reject rather
          // than emit invalid UTF-8.
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape unsupported");
          append_utf8(out, cp);
          break;
        }
        default: fail("invalid escape character");
      }
    }
  }

  double parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
          c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  std::string_view text_;
  JsonParseLimits limits_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

JsonValue JsonValue::parse(std::string_view text) {
  return JsonParser(text, JsonParseLimits{}).parse_document();
}

JsonValue JsonValue::parse(std::string_view text,
                           const JsonParseLimits& limits) {
  return JsonParser(text, limits).parse_document();
}

bool JsonValue::as_bool() const {
  require(kind_ == Kind::kBool, "json: value is not a bool");
  return bool_;
}

double JsonValue::as_number() const {
  require(kind_ == Kind::kNumber, "json: value is not a number");
  return number_;
}

const std::string& JsonValue::as_string() const {
  require(kind_ == Kind::kString, "json: value is not a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  require(kind_ == Kind::kArray, "json: value is not an array");
  return array_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members() const {
  require(kind_ == Kind::kObject, "json: value is not an object");
  return object_;
}

const JsonValue* JsonValue::find(std::string_view key) const {
  require(kind_ == Kind::kObject, "json: value is not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    throw Error("json: missing member '" + std::string(key) + "'");
  }
  return *v;
}

}  // namespace semsim
