#include "text/language.h"

#include <algorithm>
#include <map>

#include "common/strutil.h"
#include "text/tokenizer.h"

namespace qatk::text {

namespace {

// Seed corpora: generic + automotive-register text. The detector only needs
// coarse trigram statistics, not coverage of the whole language.
constexpr std::string_view kGermanSeed =
    "der kunde meldet dass das fahrzeug beim bremsen ein lautes geraeusch "
    "macht die werkstatt hat den schlauch geprueft und einen riss im "
    "gehaeuse gefunden das steuergeraet wurde getauscht und die leitung "
    "erneuert der fehler tritt nicht mehr auf die pumpe foerdert kein "
    "wasser mehr und der luefter funktioniert nicht kontakt defekt "
    "durchgeschmort bitte pruefen ob die dichtung undicht ist das teil "
    "wurde zur untersuchung an den lieferanten geschickt keine eindeutige "
    "ursache feststellbar weitere pruefung erforderlich mit freundlichen "
    "gruessen die elektrik faellt sporadisch aus wackelkontakt am stecker "
    "vermutet das radio schaltet sich von selbst ein und aus es riecht "
    "verbrannt und knistert beim einschalten der scheibenwischer bleibt "
    "stehen wenn es regnet der motor ruckelt im leerlauf und geht aus "
    "oelverlust am ventildeckel festgestellt dichtung ersetzt probefahrt "
    "ohne befund kunde beanstandet klappern von hinten rechts daempfer "
    "ausgeschlagen ersetzt funktion wieder in ordnung";

constexpr std::string_view kEnglishSeed =
    "the customer states that the vehicle makes a loud noise when braking "
    "the workshop inspected the hose and found a crack in the housing the "
    "control unit was replaced and the wiring repaired the fault does not "
    "occur any more the pump does not deliver water and the fan is not "
    "working contact defective burned through please check whether the "
    "seal is leaking the part was sent to the supplier for investigation "
    "no clear root cause found further testing required best regards the "
    "electrical system fails intermittently loose contact at the connector "
    "suspected the radio turns itself on and off there is a burning smell "
    "and a crackling sound when switching on the wiper stops when it rains "
    "the engine stumbles at idle and stalls oil leak found at the valve "
    "cover gasket replaced test drive without findings customer complains "
    "about rattling from the rear right shock absorber worn out replaced "
    "function restored to normal";

constexpr size_t kMaxProfileNgrams = 400;

/// Calls `fn` on every word-internal trigram of the folded `words`, with
/// '_' boundary markers, in order.
template <typename Fn>
void ForEachTrigram(const std::vector<std::string_view>& words, Fn&& fn) {
  std::string padded;
  for (std::string_view word : words) {
    padded.clear();
    padded.push_back('_');
    padded.append(word);
    padded.push_back('_');
    const std::string_view view = padded;
    for (size_t i = 0; i + 3 <= view.size(); ++i) fn(view.substr(i, 3));
  }
}

}  // namespace

const char* LanguageToString(Language lang) {
  switch (lang) {
    case Language::kGerman: return "de";
    case Language::kEnglish: return "en";
    case Language::kUnknown: return "unknown";
  }
  return "?";
}

LanguageDetector::Profile LanguageDetector::BuildProfile(
    std::string_view corpus, size_t max_ngrams) {
  FoldedWords folded;
  Tokenizer().WordsNormalized(corpus, &folded);
  std::map<std::string, size_t, std::less<>> counts;
  ForEachTrigram(folded.words(), [&](std::string_view ngram) {
    auto it = counts.find(ngram);
    if (it == counts.end()) it = counts.emplace(ngram, 0).first;
    ++it->second;
  });
  std::vector<std::pair<std::string, size_t>> sorted(counts.begin(),
                                                     counts.end());
  // Sort by count desc, then lexicographically for determinism.
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  Profile profile;
  for (size_t rank = 0; rank < sorted.size() && rank < max_ngrams; ++rank) {
    profile[sorted[rank].first] = rank;
  }
  return profile;
}

std::shared_ptr<const LanguageDetector::Profiles>
LanguageDetector::SeedProfiles() {
  static const std::shared_ptr<const Profiles> seed =
      std::make_shared<const Profiles>(
          Profiles{BuildProfile(kGermanSeed, kMaxProfileNgrams),
                   BuildProfile(kEnglishSeed, kMaxProfileNgrams)});
  return seed;
}

LanguageDetector::LanguageDetector()
    : profiles_(SeedProfiles()), profile_size_(kMaxProfileNgrams) {}

LanguageDetector::LanguageDetector(std::string_view german_corpus,
                                   std::string_view english_corpus)
    : profiles_(std::make_shared<const Profiles>(
          Profiles{BuildProfile(german_corpus, kMaxProfileNgrams),
                   BuildProfile(english_corpus, kMaxProfileNgrams)})),
      profile_size_(kMaxProfileNgrams) {}

LanguageDetector::Scores LanguageDetector::Distances(
    const std::vector<std::string_view>& words, size_t* ngrams) const {
  // Cavnar–Trenkle out-of-place measure, normalized per n-gram.
  const double missing = static_cast<double>(profile_size_);
  Scores totals;
  size_t count = 0;
  ForEachTrigram(words, [&](std::string_view ngram) {
    auto de = profiles_->german.find(ngram);
    totals.german += de == profiles_->german.end()
                         ? missing
                         : static_cast<double>(de->second);
    auto en = profiles_->english.find(ngram);
    totals.english += en == profiles_->english.end()
                          ? missing
                          : static_cast<double>(en->second);
    ++count;
  });
  *ngrams = count;
  if (count == 0) return {missing, missing};
  return {totals.german / static_cast<double>(count),
          totals.english / static_cast<double>(count)};
}

LanguageDetector::Scores LanguageDetector::Score(
    std::string_view input) const {
  FoldedWords folded;
  Tokenizer().WordsNormalized(input, &folded);
  size_t ngrams = 0;
  return Distances(folded.words(), &ngrams);
}

Language LanguageDetector::Detect(std::string_view input) const {
  FoldedWords folded;
  Tokenizer().WordsNormalized(input, &folded);
  return DetectFolded(folded.words());
}

Language LanguageDetector::DetectFolded(
    const std::vector<std::string_view>& words) const {
  size_t ngrams = 0;
  const Scores scores = Distances(words, &ngrams);
  if (ngrams < 3) return Language::kUnknown;
  // Both profiles far away: likely a third language or code/IDs.
  double floor = 0.9 * static_cast<double>(profile_size_);
  if (scores.german >= floor && scores.english >= floor) {
    return Language::kUnknown;
  }
  return scores.german <= scores.english ? Language::kGerman
                                         : Language::kEnglish;
}

}  // namespace qatk::text
