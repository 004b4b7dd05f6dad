#include "adm/json.h"

#include <cmath>
#include <cstdlib>

#include "adm/temporal.h"

namespace asterix::adm {

namespace {

class Parser {
 public:
  Parser(const std::string& text, size_t pos, size_t max_depth)
      : s_(text), pos_(pos), depth_left_(max_depth) {}

  Result<Value> ParseValue() {
    SkipWs();
    if (pos_ >= s_.size()) return Err("unexpected end of input");
    char c = s_[pos_];
    switch (c) {
      case '{':
      case '[': {
        if (depth_left_ == 0) return Err("value nested too deeply");
        depth_left_--;
        auto v = c == '{' ? ParseObjectOrMultiset() : ParseArray();
        depth_left_++;
        return v;
      }
      case '"': {
        AX_ASSIGN_OR_RETURN(std::string str, ParseStringLiteral());
        return Value::String(std::move(str));
      }
      case 't': case 'f': return ParseBool();
      case 'n': return ParseKeyword("null", Value::Null());
      case 'm': return ParseKeyword("missing", Value::Missing());
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
        if (std::isalpha(c)) return ParseTypedConstructor();
        return Err(std::string("unexpected character '") + c + "'");
    }
  }

  size_t pos() const { return pos_; }
  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])))
      pos_++;
  }

 private:
  Status Err(const std::string& msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  Result<Value> ParseKeyword(const std::string& kw, Value v) {
    if (s_.compare(pos_, kw.size(), kw) == 0) {
      pos_ += kw.size();
      return v;
    }
    return Err("bad literal");
  }

  Result<Value> ParseBool() {
    if (s_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return Value::Boolean(true);
    }
    if (s_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return Value::Boolean(false);
    }
    return Err("bad boolean literal");
  }

  Result<Value> ParseNumber() {
    size_t start = pos_;
    if (pos_ < s_.size() && s_[pos_] == '-') pos_++;
    bool is_double = false;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c >= '0' && c <= '9') {
        pos_++;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        // '-'/'+' only valid inside exponent; accept loosely, strtod checks.
        if (c == '-' || c == '+') {
          char prev = s_[pos_ - 1];
          if (prev != 'e' && prev != 'E') break;
        }
        is_double = is_double || c == '.' || c == 'e' || c == 'E';
        pos_++;
      } else {
        break;
      }
    }
    std::string num = s_.substr(start, pos_ - start);
    if (num.empty() || num == "-") return Err("bad number");
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(num.c_str(), &end, 10);
      if (errno == 0 && end && *end == '\0') return Value::Int(v);
      // fall through to double on int64 overflow
    }
    return Value::Double(std::strtod(num.c_str(), nullptr));
  }

  Result<std::string> ParseStringLiteral() {
    if (s_[pos_] != '"') return Err("expected '\"'");
    pos_++;
    std::string out;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) return Err("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return Err("bad \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; i++) {
              char h = s_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= h - '0';
              else if (h >= 'a' && h <= 'f') code |= h - 'a' + 10;
              else if (h >= 'A' && h <= 'F') code |= h - 'A' + 10;
              else return Err("bad hex digit in \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3F));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
              out += static_cast<char>(0x80 | (code & 0x3F));
            }
            break;
          }
          default: return Err("bad escape character");
        }
      } else {
        out += c;
      }
    }
    return Err("unterminated string");
  }

  Result<Value> ParseArray() {
    pos_++;  // '['
    std::vector<Value> items;
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      pos_++;
      return Value::Array(std::move(items));
    }
    while (true) {
      AX_ASSIGN_OR_RETURN(Value v, ParseValue());
      items.push_back(std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return Err("unterminated array");
      if (s_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (s_[pos_] == ']') {
        pos_++;
        return Value::Array(std::move(items));
      }
      return Err("expected ',' or ']' in array");
    }
  }

  Result<Value> ParseObjectOrMultiset() {
    pos_++;  // '{'
    if (pos_ < s_.size() && s_[pos_] == '{') return ParseMultiset();
    FieldVec fields;
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      pos_++;
      return Value::Object(std::move(fields));
    }
    while (true) {
      SkipWs();
      AX_ASSIGN_OR_RETURN(std::string name, ParseStringLiteral());
      SkipWs();
      if (pos_ >= s_.size() || s_[pos_] != ':') return Err("expected ':'");
      pos_++;
      AX_ASSIGN_OR_RETURN(Value v, ParseValue());
      fields.emplace_back(std::move(name), std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return Err("unterminated object");
      if (s_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (s_[pos_] == '}') {
        pos_++;
        return Value::Object(std::move(fields));
      }
      return Err("expected ',' or '}' in object");
    }
  }

  Result<Value> ParseMultiset() {
    pos_++;  // second '{'
    std::vector<Value> items;
    SkipWs();
    if (s_.compare(pos_, 2, "}}") == 0) {
      pos_ += 2;
      return Value::Multiset(std::move(items));
    }
    while (true) {
      AX_ASSIGN_OR_RETURN(Value v, ParseValue());
      items.push_back(std::move(v));
      SkipWs();
      if (pos_ >= s_.size()) return Err("unterminated multiset");
      if (s_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (s_.compare(pos_, 2, "}}") == 0) {
        pos_ += 2;
        return Value::Multiset(std::move(items));
      }
      return Err("expected ',' or '}}' in multiset");
    }
  }

  Result<Value> ParseTypedConstructor() {
    size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isalnum(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '_'))
      pos_++;
    std::string name = s_.substr(start, pos_ - start);
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != '(') return Err("expected '('");
    pos_++;
    SkipWs();
    AX_ASSIGN_OR_RETURN(std::string arg, ParseStringLiteral());
    SkipWs();
    if (pos_ >= s_.size() || s_[pos_] != ')') return Err("expected ')'");
    pos_++;
    if (name == "datetime") {
      AX_ASSIGN_OR_RETURN(int64_t ms, temporal::ParseDatetime(arg));
      return Value::Datetime(ms);
    }
    if (name == "date") {
      AX_ASSIGN_OR_RETURN(int64_t d, temporal::ParseDate(arg));
      return Value::Date(d);
    }
    if (name == "time") {
      AX_ASSIGN_OR_RETURN(int64_t ms, temporal::ParseTime(arg));
      return Value::Time(ms);
    }
    if (name == "duration") {
      AX_ASSIGN_OR_RETURN(int64_t ms, temporal::ParseDuration(arg));
      return Value::Duration(ms);
    }
    if (name == "point") {
      double x, y;
      if (std::sscanf(arg.c_str(), "%lf,%lf", &x, &y) != 2) {
        return Err("bad point literal '" + arg + "'");
      }
      return Value::MakePoint(x, y);
    }
    if (name == "rectangle") {
      double x1, y1, x2, y2;
      if (std::sscanf(arg.c_str(), "%lf,%lf %lf,%lf", &x1, &y1, &x2, &y2) != 4) {
        return Err("bad rectangle literal '" + arg + "'");
      }
      return Value::MakeRectangle({x1, y1}, {x2, y2});
    }
    return Err("unknown constructor '" + name + "'");
  }

  const std::string& s_;
  size_t pos_;
  size_t depth_left_;  // containers that may still open around the cursor
};

}  // namespace

Result<Value> ParseAdmPrefix(const std::string& text, size_t* pos) {
  Parser p(text, *pos, kMaxInputDepth);
  AX_ASSIGN_OR_RETURN(Value v, p.ParseValue());
  *pos = p.pos();
  return v;
}

Result<Value> ParseAdm(const std::string& text, size_t max_depth) {
  Parser p(text, 0, max_depth);
  AX_ASSIGN_OR_RETURN(Value v, p.ParseValue());
  p.SkipWs();
  if (p.pos() != text.size()) {
    return Status::ParseError("trailing content after value at offset " +
                              std::to_string(p.pos()));
  }
  return v;
}

}  // namespace asterix::adm
