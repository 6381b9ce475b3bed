#ifndef QATK_COMMON_STRUTIL_H_
#define QATK_COMMON_STRUTIL_H_

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace qatk {

/// Splits `input` on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view input, char sep);

/// Splits on any whitespace run; drops empty fields.
std::vector<std::string> SplitWhitespace(std::string_view input);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// ASCII lower-casing; bytes outside A-Z pass through unchanged.
std::string AsciiLower(std::string_view input);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

/// Lower-cases and folds German letters to ASCII equivalents
/// (ä→ae, ö→oe, ü→ue, ß→ss), leaving other UTF-8 bytes intact.
/// Normalizing both the taxonomy and the reports through this function makes
/// concept matching robust to the "Lüfter"/"Luefter" spelling variation that
/// is pervasive in the messy source data.
std::string FoldGerman(std::string_view input);

/// FoldGerman appending to `out`. The folded form is never longer than
/// `input` (every two-byte umlaut folds to two ASCII bytes).
void FoldGermanAppend(std::string_view input, std::string* out);

/// Transparent hash for string-keyed unordered containers: together with
/// `std::equal_to<>` it lets find/count take a `std::string_view` without
/// building a `std::string` per lookup.
struct StringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};

/// Levenshtein edit distance over bytes.
size_t EditDistance(std::string_view a, std::string_view b);

/// Formats a double with `digits` decimal places.
std::string FormatDouble(double value, int digits);

}  // namespace qatk

#endif  // QATK_COMMON_STRUTIL_H_
