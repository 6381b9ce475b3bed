#include "text/stopwords.h"

namespace qatk::text {

namespace {

// Folded forms only (see FoldGerman).
constexpr const char* kGermanStopwords[] = {
    // Articles.
    "der", "die", "das", "den", "dem", "des", "ein", "eine", "einer",
    "eines", "einem", "einen",
    // Personal pronouns.
    "ich", "du", "er", "sie", "es", "wir", "ihr", "mich", "dich", "ihn",
    "uns", "euch", "mir", "dir", "ihm", "ihnen", "man",
    // Frequent function words.
    "und", "oder", "aber", "nicht", "kein", "keine", "ist", "sind", "war",
    "waren", "wird", "wurde", "wurden", "hat", "haben", "hatte", "bei",
    "mit", "von", "vom", "zu", "zum", "zur", "im", "in", "am", "an", "auf",
    "aus", "fuer", "nach", "ueber", "unter", "vor", "wenn", "dass", "da",
    "auch", "noch", "nur", "schon", "sich", "so", "wie", "als", "bitte",
};

constexpr const char* kEnglishStopwords[] = {
    // Articles.
    "the", "a", "an",
    // Personal pronouns.
    "i", "you", "he", "she", "it", "we", "they", "me", "him", "her", "us",
    "them",
    // Frequent function words.
    "and", "or", "but", "not", "no", "is", "are", "was", "were", "be",
    "been", "being", "has", "have", "had", "do", "does", "did", "at", "by",
    "for", "from", "in", "into", "of", "on", "to", "with", "without",
    "when", "that", "this", "these", "those", "there", "also", "only",
    "its", "it's", "as", "if", "so", "than", "then", "please",
};

}  // namespace

StopwordFilter::StopwordFilter() {
  for (const char* w : kGermanStopwords) words_.insert(w);
  for (const char* w : kEnglishStopwords) words_.insert(w);
}

bool StopwordFilter::IsStopword(std::string_view folded_word) const {
  return words_.find(folded_word) != words_.end();
}

}  // namespace qatk::text
