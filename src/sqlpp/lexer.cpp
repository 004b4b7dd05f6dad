#include "sqlpp/lexer.h"

#include <cctype>
#include <charconv>
#include <cstdlib>

namespace asterix::sqlpp {

Result<std::vector<Token>> Lex(const std::string& input) {
  std::vector<Token> out;
  size_t pos = 0;
  auto err = [&](const std::string& msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(pos));
  };
  while (pos < input.size()) {
    char c = input[pos];
    if (std::isspace(static_cast<unsigned char>(c))) {
      pos++;
      continue;
    }
    // Comments: -- to end of line, /* ... */
    if (c == '-' && pos + 1 < input.size() && input[pos + 1] == '-') {
      while (pos < input.size() && input[pos] != '\n') pos++;
      continue;
    }
    if (c == '/' && pos + 1 < input.size() && input[pos + 1] == '*') {
      size_t end = input.find("*/", pos + 2);
      if (end == std::string::npos) return err("unterminated comment");
      pos = end + 2;
      continue;
    }
    Token tok;
    tok.offset = pos;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '$') {
      size_t start = pos;
      while (pos < input.size() &&
             (std::isalnum(static_cast<unsigned char>(input[pos])) ||
              input[pos] == '_' || input[pos] == '$')) {
        pos++;
      }
      tok.kind = TokenKind::kIdent;
      tok.text = input.substr(start, pos - start);
      tok.upper = tok.text;
      for (auto& ch : tok.upper) ch = static_cast<char>(std::toupper(ch));
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '`') {
      pos++;
      size_t start = pos;
      while (pos < input.size() && input[pos] != '`') pos++;
      if (pos >= input.size()) return err("unterminated quoted identifier");
      tok.kind = TokenKind::kQuotedIdent;
      tok.text = input.substr(start, pos - start);
      tok.upper = tok.text;
      pos++;
      out.push_back(std::move(tok));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos + 1 < input.size() &&
         std::isdigit(static_cast<unsigned char>(input[pos + 1])))) {
      size_t start = pos;
      bool is_double = false;
      while (pos < input.size() &&
             (std::isdigit(static_cast<unsigned char>(input[pos])) ||
              input[pos] == '.' || input[pos] == 'e' || input[pos] == 'E' ||
              ((input[pos] == '+' || input[pos] == '-') && pos > start &&
               (input[pos - 1] == 'e' || input[pos - 1] == 'E')))) {
        if (input[pos] == '.' || input[pos] == 'e' || input[pos] == 'E') {
          is_double = true;
        }
        pos++;
      }
      std::string num = input.substr(start, pos - start);
      if (is_double) {
        tok.kind = TokenKind::kDouble;
        tok.double_value = std::atof(num.c_str());
      } else {
        tok.kind = TokenKind::kInt;
        auto [end, ec] =
            std::from_chars(num.data(), num.data() + num.size(), tok.int_value);
        if (ec != std::errc() || end != num.data() + num.size()) {
          pos = start;
          return err("integer literal " + num + " is out of range");
        }
      }
      tok.text = std::move(num);
      out.push_back(std::move(tok));
      continue;
    }
    if (c == '"' || c == '\'') {
      char quote = c;
      pos++;
      std::string s;
      while (pos < input.size() && input[pos] != quote) {
        if (input[pos] == '\\' && pos + 1 < input.size()) {
          pos++;
          char e = input[pos];
          switch (e) {
            case 'n': s += '\n'; break;
            case 't': s += '\t'; break;
            case 'r': s += '\r'; break;
            default: s += e;
          }
        } else {
          s += input[pos];
        }
        pos++;
      }
      if (pos >= input.size()) return err("unterminated string literal");
      pos++;
      tok.kind = TokenKind::kString;
      tok.text = std::move(s);
      out.push_back(std::move(tok));
      continue;
    }
    // Multi-char symbols first.
    static const char* kTwoChar[] = {"<=", ">=", "!=", "<>", "||", "::",
                                     "{{", "}}"};
    bool matched = false;
    for (const char* sym : kTwoChar) {
      if (input.compare(pos, 2, sym) == 0) {
        tok.kind = TokenKind::kSymbol;
        tok.text = sym;
        pos += 2;
        out.push_back(std::move(tok));
        matched = true;
        break;
      }
    }
    if (matched) continue;
    static const std::string kOneChar = "()[]{},.;:*/%+-<>=?@";
    if (kOneChar.find(c) != std::string::npos) {
      tok.kind = TokenKind::kSymbol;
      tok.text = std::string(1, c);
      pos++;
      out.push_back(std::move(tok));
      continue;
    }
    return err(std::string("unexpected character '") + c + "'");
  }
  Token end;
  end.kind = TokenKind::kEnd;
  end.offset = input.size();
  out.push_back(end);
  return out;
}

}  // namespace asterix::sqlpp
