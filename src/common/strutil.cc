#include "common/strutil.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace qatk {

std::vector<std::string> Split(std::string_view input, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == sep) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view input) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < input.size()) {
    while (i < input.size() &&
           std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    size_t start = i;
    while (i < input.size() &&
           !std::isspace(static_cast<unsigned char>(input[i]))) {
      ++i;
    }
    if (i > start) out.emplace_back(input.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string AsciiLower(std::string_view input) {
  std::string out(input);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

std::string_view Trim(std::string_view input) {
  size_t b = 0;
  size_t e = input.size();
  while (b < e && std::isspace(static_cast<unsigned char>(input[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(input[e - 1]))) --e;
  return input.substr(b, e - b);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

std::string FoldGerman(std::string_view input) {
  std::string out;
  out.reserve(input.size());
  FoldGermanAppend(input, &out);
  return out;
}

void FoldGermanAppend(std::string_view input, std::string* out) {
  for (size_t i = 0; i < input.size(); ++i) {
    unsigned char c = static_cast<unsigned char>(input[i]);
    // UTF-8 two-byte sequences for ä ö ü Ä Ö Ü ß start with 0xC3.
    if (c == 0xC3 && i + 1 < input.size()) {
      unsigned char d = static_cast<unsigned char>(input[i + 1]);
      const char* repl = nullptr;
      switch (d) {
        case 0xA4:            // ä
        case 0x84: repl = "ae"; break;  // Ä
        case 0xB6:            // ö
        case 0x96: repl = "oe"; break;  // Ö
        case 0xBC:            // ü
        case 0x9C: repl = "ue"; break;  // Ü
        case 0x9F: repl = "ss"; break;  // ß
        default: break;
      }
      if (repl != nullptr) {
        out->append(repl, 2);
        ++i;
        continue;
      }
    }
    // ASCII-only lower-casing: what std::tolower does in the "C" locale,
    // without a locale call per byte.
    out->push_back(static_cast<char>(c >= 'A' && c <= 'Z' ? c + ('a' - 'A')
                                                          : c));
  }
}

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  std::vector<size_t> row(a.size() + 1);
  for (size_t i = 0; i <= a.size(); ++i) row[i] = i;
  for (size_t j = 1; j <= b.size(); ++j) {
    size_t prev_diag = row[0];
    row[0] = j;
    for (size_t i = 1; i <= a.size(); ++i) {
      size_t cur = row[i];
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[i] = std::min({row[i] + 1, row[i - 1] + 1, prev_diag + cost});
      prev_diag = cur;
    }
  }
  return row[a.size()];
}

std::string FormatDouble(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return std::string(buf);
}

}  // namespace qatk
