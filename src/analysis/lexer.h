// Offset-preserving C++ lexing for the analock-verify engine.
//
// strip_source() blanks comments and string/char literals while keeping
// the text the same length, so offsets and line numbers in the stripped
// image map 1:1 onto the original file. It understands raw string
// literals (R"delim(...)delim", including the u8R/uR/LR prefixes),
// which regex-level stripping cannot handle.
//
// tokenize() then produces a flat token stream over the stripped text:
// identifiers, numbers (with C++14 digit separators), and punctuation,
// with multi-character operators the analyses care about (::, ->, <<,
// >>, ==, !=, +=, -=, &&, ||, <=, >=) kept as single tokens.
#pragma once

#include <cctype>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace analock::analysis {

/// Blanks comments and string/char literals; preserves length and
/// newlines so offsets stay aligned with the original text.
[[nodiscard]] std::string strip_source(std::string_view text);

enum class TokKind : std::uint8_t {
  kIdentifier,  ///< [A-Za-z_][A-Za-z0-9_]*
  kNumber,      ///< integer/float literal (digit separators folded in)
  kPunct,       ///< single punctuation char or multi-char operator
};

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string_view text;     ///< view into the stripped buffer
  std::size_t offset = 0;    ///< byte offset in the (stripped) file

  [[nodiscard]] bool is(std::string_view s) const { return text == s; }
  [[nodiscard]] bool is_ident() const { return kind == TokKind::kIdentifier; }
};

/// Tokenizes stripped text. The returned tokens view into `stripped`,
/// which must outlive them.
[[nodiscard]] std::vector<Token> tokenize(std::string_view stripped);

/// Offsets of each line start ("\n"-delimited), always starting with 0.
[[nodiscard]] std::vector<std::size_t> compute_line_starts(
    std::string_view text);

/// True for the characters of an identifier: [A-Za-z0-9_].
[[nodiscard]] inline bool is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// First offset at or after `pos` that is not whitespace.
[[nodiscard]] inline std::size_t skip_space(std::string_view text,
                                            std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
    ++pos;
  }
  return pos;
}

/// True when `text[pos, pos + len)` is a whole word: no identifier
/// character directly before or after it.
[[nodiscard]] inline bool whole_word_at(std::string_view text,
                                        std::size_t pos, std::size_t len) {
  const std::size_t end = pos + len;
  return (pos == 0 || !is_word_char(text[pos - 1])) &&
         (end >= text.size() || !is_word_char(text[end]));
}

/// Whole-word containment of `word` in `text`.
[[nodiscard]] inline bool contains_word(std::string_view text,
                                        std::string_view word) {
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string_view::npos) {
    if (whole_word_at(text, pos, word.size())) return true;
    ++pos;
  }
  return false;
}

/// Applies `fn` to each identifier run in `text`, stopping early when
/// `fn` returns false.
template <typename Fn>
void for_each_identifier(std::string_view text, Fn fn) {
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    const char c = text[i];
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t j = i + 1;
      while (j < n && is_word_char(text[j])) ++j;
      if (!fn(text.substr(i, j - i))) return;
      i = j;
    } else {
      ++i;
    }
  }
}

}  // namespace analock::analysis
