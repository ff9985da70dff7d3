#include "util/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>

#include "util/strings.h"

namespace jps::util {

namespace {

// Recursive-descent parser over a borrowed string.  Position is tracked for
// error offsets; depth is tracked to enforce Json::kMaxDepth.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    Json value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonParseError(message, pos_);
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_whitespace() {
    while (!eof()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect_literal(const char* literal) {
    for (const char* p = literal; *p != '\0'; ++p) {
      if (eof() || peek() != *p)
        fail(std::string("expected literal '") + literal + "'");
      ++pos_;
    }
  }

  Json parse_value(std::size_t depth) {
    if (depth > Json::kMaxDepth) fail("nesting too deep");
    skip_whitespace();
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't': expect_literal("true"); return Json(true);
      case 'f': expect_literal("false"); return Json(false);
      case 'n': expect_literal("null"); return Json();
      default: return parse_number();
    }
  }

  Json parse_object(std::size_t depth) {
    next();  // '{'
    Json object = Json::object();
    skip_whitespace();
    if (!eof() && peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skip_whitespace();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_whitespace();
      if (next() != ':') fail("expected ':' after object key");
      object.set(key, parse_value(depth + 1));
      skip_whitespace();
      const char c = next();
      if (c == '}') return object;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(std::size_t depth) {
    next();  // '['
    Json array = Json::array();
    skip_whitespace();
    if (!eof() && peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = next();
      if (c == ']') return array;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    next();  // '"'
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("unescaped control character in string");
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      const char esc = next();
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_codepoint(out); break;
        default: fail("invalid escape sequence");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    return value;
  }

  void append_codepoint(std::string& out) {
    unsigned cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      // High surrogate: a low surrogate must follow.
      if (eof() || next() != '\\' || eof() || next() != 'u')
        fail("unpaired surrogate");
      const unsigned lo = parse_hex4();
      if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired surrogate");
    }
    // UTF-8 encode.
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

  Json parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
      fail("invalid number");
    // Leading zero may not be followed by more digits.
    if (peek() == '0') {
      ++pos_;
      if (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
        fail("leading zero in number");
    } else {
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        fail("digit required after decimal point");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || !std::isdigit(static_cast<unsigned char>(peek())))
        fail("digit required in exponent");
      while (!eof() && std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    // parse_double is locale-independent; strtod would read the token under
    // the global locale, where a comma-decimal environment (de_DE) rejects
    // the '.' this grammar just validated.
    const std::optional<double> value = parse_double(token);
    if (!value) fail("invalid number");
    return Json(*value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    // JSON has no Inf/NaN; null is the conventional lossy stand-in.
    out += "null";
    return;
  }
#if defined(__cpp_lib_to_chars)
  // to_chars emits the shortest round-tripping form and, unlike snprintf's
  // %g, never consults LC_NUMERIC — a comma-decimal locale would otherwise
  // serialize 3.5 as "3,5", which is not JSON.
  char buf[40];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec == std::errc()) {
    out.append(buf, ptr);
    return;
  }
#endif
  char fallback[40];
  std::snprintf(fallback, sizeof(fallback), "%.17g", value);
  out += fallback;
}

void append_indent(std::string& out, int indent, int depth) {
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).run(); }

Json::Json(const Json& other) {
  switch (other.type()) {
    case Type::kNull: break;
    case Type::kBool: value_ = std::get<bool>(other.value_); break;
    case Type::kNumber: value_ = std::get<double>(other.value_); break;
    case Type::kString:
      value_ = std::make_unique<std::string>(other.as_string());
      break;
    case Type::kArray:
      value_ = std::make_unique<std::vector<Json>>(other.elements());
      break;
    case Type::kObject:
      value_ = std::make_unique<Members>(other.fields());
      break;
  }
}

Json& Json::operator=(const Json& other) {
  if (this != &other) *this = Json(other);
  return *this;
}

void Json::require(Type type, const char* what) const {
  if (this->type() != type)
    throw std::runtime_error(std::string("Json: not a ") + what);
}

const std::vector<Json>& Json::elements() const {
  return *std::get<std::unique_ptr<std::vector<Json>>>(value_);
}

const Json::Members& Json::fields() const {
  return *std::get<std::unique_ptr<Members>>(value_);
}

bool Json::as_bool() const {
  require(Type::kBool, "bool");
  return std::get<bool>(value_);
}

double Json::as_double() const {
  require(Type::kNumber, "number");
  return std::get<double>(value_);
}

const std::string& Json::as_string() const {
  require(Type::kString, "string");
  return *std::get<std::unique_ptr<std::string>>(value_);
}

std::size_t Json::size() const {
  if (type() == Type::kObject) return fields().size();
  require(Type::kArray, "array");
  return elements().size();
}

const Json& Json::at(std::size_t index) const {
  require(Type::kArray, "array");
  if (index >= elements().size())
    throw std::out_of_range("Json: array index");
  return elements()[index];
}

void Json::push_back(Json value) {
  if (type() == Type::kNull) *this = array();
  require(Type::kArray, "array");
  std::get<std::unique_ptr<std::vector<Json>>>(value_)->push_back(
      std::move(value));
}

bool Json::contains(const std::string& key) const {
  return get(key) != nullptr;
}

const Json* Json::get(const std::string& key) const {
  if (type() != Type::kObject) return nullptr;
  for (const auto& [k, v] : fields()) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  require(Type::kObject, "object");
  const Json* found = get(key);
  if (found == nullptr) throw std::out_of_range("Json: missing key '" + key + "'");
  return *found;
}

void Json::set(const std::string& key, Json value) {
  if (type() == Type::kNull) *this = object();
  require(Type::kObject, "object");
  Members& members = *std::get<std::unique_ptr<Members>>(value_);
  for (auto& [k, v] : members) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  members.emplace_back(key, std::move(value));
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  require(Type::kObject, "object");
  return fields();
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  if (indent > 0) out.push_back('\n');
  return out;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull: out += "null"; return;
    case Type::kBool: out += as_bool() ? "true" : "false"; return;
    case Type::kNumber: append_number(out, as_double()); return;
    case Type::kString: append_escaped(out, as_string()); return;
    case Type::kArray: {
      const std::vector<Json>& items = elements();
      if (items.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (indent > 0) append_indent(out, indent, depth + 1);
        items[i].dump_to(out, indent, depth + 1);
      }
      if (indent > 0) append_indent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      const Members& members = fields();
      if (members.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out.push_back(',');
        if (indent > 0) append_indent(out, indent, depth + 1);
        append_escaped(out, members[i].first);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        members[i].second.dump_to(out, indent, depth + 1);
      }
      if (indent > 0) append_indent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

}  // namespace jps::util
