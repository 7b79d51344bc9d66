#include "util/json_writer.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace pivotscale {

namespace {

std::string FormatDouble(double d) {
  if (!std::isfinite(d)) return "null";  // JSON has no Inf/NaN
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
  if (ec != std::errc{}) return "0";
  std::string s(buf, ptr);
  // Bare shortest-form integers ("3") are valid JSON numbers; keep them.
  return s;
}

}  // namespace

std::string JsonWriter::Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
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
  return out;
}

void JsonWriter::Comma() {
  if (stack_.empty()) return;
  if (first_.back()) {
    first_.back() = false;
  } else {
    out_.push_back(',');
  }
}

void JsonWriter::OnValue() {
  if (key_pending_) {
    key_pending_ = false;
    return;
  }
  if (!stack_.empty() && stack_.back() == Frame::kObject)
    throw std::logic_error("JsonWriter: value inside object requires Key()");
  Comma();
}

void JsonWriter::BeginObject() {
  OnValue();
  out_.push_back('{');
  stack_.push_back(Frame::kObject);
  first_.push_back(true);
}

void JsonWriter::EndObject() {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_)
    throw std::logic_error("JsonWriter: mismatched EndObject");
  out_.push_back('}');
  stack_.pop_back();
  first_.pop_back();
}

void JsonWriter::BeginArray() {
  OnValue();
  out_.push_back('[');
  stack_.push_back(Frame::kArray);
  first_.push_back(true);
}

void JsonWriter::EndArray() {
  if (stack_.empty() || stack_.back() != Frame::kArray)
    throw std::logic_error("JsonWriter: mismatched EndArray");
  out_.push_back(']');
  stack_.pop_back();
  first_.pop_back();
}

void JsonWriter::Key(const std::string& name) {
  if (stack_.empty() || stack_.back() != Frame::kObject || key_pending_)
    throw std::logic_error("JsonWriter: Key() outside object");
  Comma();
  out_ += Escape(name);
  out_.push_back(':');
  key_pending_ = true;
}

void JsonWriter::Value(const std::string& s) {
  OnValue();
  out_ += Escape(s);
}

void JsonWriter::Value(const char* s) { Value(std::string(s)); }

void JsonWriter::Value(double d) {
  OnValue();
  out_ += FormatDouble(d);
}

void JsonWriter::Value(std::uint64_t u) {
  OnValue();
  out_ += std::to_string(u);
}

void JsonWriter::Value(std::int64_t i) {
  OnValue();
  out_ += std::to_string(i);
}

void JsonWriter::Value(bool b) {
  OnValue();
  out_ += b ? "true" : "false";
}

void JsonWriter::Null() {
  OnValue();
  out_ += "null";
}

std::string JsonWriter::str() const {
  if (!stack_.empty() || key_pending_)
    throw std::logic_error("JsonWriter: document not closed");
  return out_;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

namespace {

// Deepest array/object nesting ParseJson accepts. The parser recurses once
// per level, and it reads lines from network clients, so an unbounded
// depth would let one line overflow the stack. Run reports nest 3 deep.
constexpr int kMaxDepth = 64;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue Parse() {
    JsonValue v = ParseValue(0);
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void Fail(const std::string& what) const {
    throw std::runtime_error("ParseJson: " + what + " at byte " +
                             std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) Fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool Literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  // `depth` counts the arrays and objects that enclose the value.
  JsonValue ParseValue(int depth) {
    SkipWhitespace();
    const char c = Peek();
    JsonValue v;
    switch (c) {
      case '{':
      case '[':
        if (depth == kMaxDepth)
          Fail("nesting deeper than " + std::to_string(kMaxDepth));
        return c == '{' ? ParseObject(depth + 1) : ParseArray(depth + 1);
      case '"':
        v.type = JsonValue::Type::kString;
        v.string_value = ParseString();
        return v;
      case 't':
        if (!Literal("true")) Fail("bad literal");
        v.type = JsonValue::Type::kBool;
        v.bool_value = true;
        return v;
      case 'f':
        if (!Literal("false")) Fail("bad literal");
        v.type = JsonValue::Type::kBool;
        v.bool_value = false;
        return v;
      case 'n':
        if (!Literal("null")) Fail("bad literal");
        v.type = JsonValue::Type::kNull;
        return v;
      default:
        return ParseNumber();
    }
  }

  JsonValue ParseObject(int depth) {
    Expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      v.object.emplace(std::move(key), ParseValue(depth));
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == '}') return v;
      if (c != ',') Fail("expected ',' or '}' in object");
    }
  }

  JsonValue ParseArray(int depth) {
    Expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(ParseValue(depth));
      SkipWhitespace();
      const char c = Peek();
      ++pos_;
      if (c == ']') return v;
      if (c != ',') Fail("expected ',' or ']' in array");
    }
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) Fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) Fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              Fail("bad \\u escape");
          }
          // Telemetry strings are ASCII; encode BMP code points as UTF-8.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("unknown escape");
      }
    }
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) Fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, v.number);
    if (ec != std::errc{} || ptr != last) Fail("malformed number");
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

JsonValue ParseJson(const std::string& text) { return Parser(text).Parse(); }

}  // namespace pivotscale
