// Hostile report text shared by the extraction fuzz test and the wire
// tests: fixed edge cases (invalid UTF-8, NULs, lone umlaut lead bytes,
// mixed-language noise, every folded character in both cases),
// synonym-prefix runs, seeded byte soup and one 1 MiB report. Seeds are
// fixed, so every run sends the same documents.

#ifndef QATK_TESTS_HOSTILE_TEXT_H_
#define QATK_TESTS_HOSTILE_TEXT_H_

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "taxonomy/taxonomy.h"
#include "text/tokenizer.h"

namespace qatk::hostile {

/// Folded words of the taxonomy's first multiword synonym.
inline std::vector<std::string> FirstMultiwordSynonym(
    const tax::Taxonomy& taxonomy) {
  const text::Tokenizer tokenizer;
  for (const tax::Concept* concept_entry : taxonomy.All()) {
    for (const auto& [language, surfaces] : concept_entry->synonyms) {
      for (const std::string& surface : surfaces) {
        std::vector<std::string> words = tokenizer.WordsNormalized(surface);
        if (words.size() >= 2) return words;
      }
    }
  }
  return {};
}

/// The hostile documents: fixed cases plus seeded byte-level soup over an
/// alphabet biased toward the bytes that break text code (NULs, lone
/// UTF-8 lead bytes, 0xC3 pairs, punctuation) and real synonym words.
inline std::vector<std::string> HostileDocuments(
    const tax::Taxonomy& taxonomy) {
  using namespace std::string_literals;
  std::vector<std::string> docs = {
      "",
      "   \t\n\r\v\f  ",
      "...!!!,,;;--()[]{}<>/\\|?*&^%$#@~`'\"+=_",
      // Invalid UTF-8: stray continuation bytes, overlong and truncated
      // sequences, bytes that never occur in UTF-8.
      "\xff\xfe L\xc3\xbc" "fter \xc3\x28 \xa0\xa1 \xe2\x82 \xf0\x28\x8c\x28 "
      "\xc0\xaf \xed\xa0\x80 defekt",
      // A trailing lone 0xC3 (the umlaut lead byte), alone and after words.
      "L\xc3\xbc" "fter defekt \xc3",
      "\xc3",
      "abc\xc3 \xc3\xc3\xc3 \xc3.\xc3",
      // Embedded NULs.
      "fan\0broken\0\0L\xc3\xbc" "fter\0 \0the\0"s,
      std::string(64, '\0'),
      // Mixed German/English with umlauts, case and compound noise.
      "Kunde says L\xc3\xbc" "fter funktioniert NICHT, fan is broken. "
      "Die Bremse quietscht when braking; GER\xc3\x84USCH beim Bremsen, "
      "the hose ist undicht. Stra\xc3\x9f" "e / street, \xc3\x96l leak.",
      // Every folded character, upper and lower case, at word starts,
      // inside words and at word ends.
      "\xc3\x84rger \xc3\xa4rger \xc3\x96L \xc3\xb6l \xc3\x9c" "BERHITZT "
      "\xc3\xbc" "berhitzt SCHL\xc3\x84GE Schl\xc3\xa4ge GER\xc3\x96LL "
      "Ger\xc3\xb6ll L\xc3\x9c" "FTER L\xc3\xbc" "fter GR\xc3\x9f" "E "
      "Gr\xc3\xb6\xc3\x9f" "e FU\xc3\x9f fu\xc3\x9f K\xc3\x9c" "HL\xc3\x9c "
      "k\xc3\xbchl\xc3\xbc \xc3\xa4\xc3\xb6\xc3\xbc\xc3\x84\xc3\x96\xc3\x9c\xc3\x9f",
  };

  // Long runs of a multiword synonym's first word, then the synonym
  // itself: the longest match probes a prefix at every position.
  const std::vector<std::string> multiword = FirstMultiwordSynonym(taxonomy);
  EXPECT_FALSE(multiword.empty()) << "demo taxonomy has no multiword synonym";
  if (!multiword.empty()) {
    std::string run;
    for (int i = 0; i < 20000; ++i) run += multiword[0] + " ";
    for (const std::string& word : multiword) run += word + " ";
    docs.push_back(run);
    std::string stutter;
    for (int i = 0; i < 5000; ++i) {
      stutter += multiword[0] + " " + multiword[0] + ", " + multiword[1] + " ";
    }
    docs.push_back(stutter);
  }

  // Seeded byte soup.
  std::vector<std::string> words;
  for (const tax::Concept* concept_entry : taxonomy.All()) {
    for (const auto& [language, surfaces] : concept_entry->synonyms) {
      words.insert(words.end(), surfaces.begin(), surfaces.end());
    }
  }
  words.push_back("der");
  words.push_back("the");
  const char kHostileBytes[] = {'\0', '\xc3', '\xbc', '\x9f', '\xff', '\x80',
                                '.',  '-',    ' ',    '\n',   ',',    'A'};
  Rng rng(4242);
  for (int trial = 0; trial < 200; ++trial) {
    std::string doc;
    const size_t pieces = rng.NextBounded(60);
    for (size_t i = 0; i < pieces; ++i) {
      switch (rng.NextBounded(4)) {
        case 0:
          doc.push_back(static_cast<char>(rng.NextBounded(256)));
          break;
        case 1:
          doc.push_back(kHostileBytes[rng.NextBounded(sizeof(kHostileBytes))]);
          break;
        default:
          doc += words[rng.NextBounded(words.size())];
          doc.push_back(rng.NextBernoulli(0.8) ? ' ' : '.');
          break;
      }
    }
    docs.push_back(std::move(doc));
  }

  // A 1 MiB report: synonym words and noise until the size is reached.
  std::string big;
  while (big.size() < (size_t{1} << 20)) {
    big += words[rng.NextBounded(words.size())];
    big.push_back(rng.NextBernoulli(0.1)
                      ? kHostileBytes[rng.NextBounded(sizeof(kHostileBytes))]
                      : ' ');
  }
  docs.push_back(std::move(big));
  return docs;
}

}  // namespace qatk::hostile

#endif  // QATK_TESTS_HOSTILE_TEXT_H_
