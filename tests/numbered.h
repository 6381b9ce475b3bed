// Numbered test names ("P7", "E12") built by appending. GCC 12 flags the
// inlined `"P" + std::to_string(n)`, which inserts at the front of the
// temporary, with a false -Wrestrict, and the warning gate builds tests/
// with -Werror.

#ifndef QATK_TESTS_NUMBERED_H_
#define QATK_TESTS_NUMBERED_H_

#include <string>

namespace qatk {

/// `prefix` followed by the decimal digits of `n`.
template <typename Int>
std::string Numbered(std::string prefix, Int n) {
  prefix += std::to_string(n);
  return prefix;
}

}  // namespace qatk

#endif  // QATK_TESTS_NUMBERED_H_
