#ifndef QATK_KB_DATA_BUNDLE_H_
#define QATK_KB_DATA_BUNDLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace qatk::kb {

/// Bitmask of text sources composed into one classification document
/// (paper §3.2): training uses everything available; testing uses only the
/// sources that exist before an error code has been assigned.
enum ReportSource : unsigned {
  kMechanicReport = 1u << 0,
  kInitialReport = 1u << 1,   // Optional initial OEM report.
  kSupplierReport = 1u << 2,
  kFinalReport = 1u << 3,     // Final OEM report (train-time only).
  kPartDescription = 1u << 4,
  kErrorDescription = 1u << 5,  // Error-code description (train-time only).
};

/// All sources available during the training phase.
inline constexpr unsigned kTrainSources =
    kMechanicReport | kInitialReport | kSupplierReport | kFinalReport |
    kPartDescription | kErrorDescription;

/// Sources available when classifying a not-yet-coded bundle (§3.2: "In the
/// testing phase, we use only the mechanic report, the optional initial
/// report, the supplier report and the part id description").
inline constexpr unsigned kTestSources =
    kMechanicReport | kInitialReport | kSupplierReport | kPartDescription;

/// Experiment-2 restrictions (§5.3).
inline constexpr unsigned kMechanicOnly = kMechanicReport;
inline constexpr unsigned kSupplierOnly = kSupplierReport;

/// \brief One "data bundle": all data pertaining to an individual damaged
/// car part (paper §3.2, Fig. 3).
struct DataBundle {
  /// Unique reference number of the component.
  std::string reference_number;
  /// Fine-grained article code (831 distinct values in the paper's data).
  std::string article_code;
  /// Coarse part id (31 distinct values); classification is scoped to it.
  std::string part_id;
  /// Final error code (the class label); empty when not yet assigned.
  std::string error_code;
  /// Damage responsibility code assigned by the supplier.
  std::string responsibility_code;

  /// Textual reports in process order (Fig. 2).
  std::string mechanic_report;
  std::string initial_oem_report;  ///< Optional; empty when absent.
  std::string supplier_report;
  std::string final_oem_report;    ///< Empty before final classification.
};

/// \brief A full data set: bundles plus the standardized description texts
/// for part ids and error codes (in the paper these exist in German and
/// English; we store one combined text per key).
struct Corpus {
  std::vector<DataBundle> bundles;
  std::map<std::string, std::string> part_descriptions;
  std::map<std::string, std::string> error_descriptions;

  /// Number of distinct error codes over all bundles.
  size_t CountDistinctErrorCodes() const;

  /// Error codes appearing exactly once (unlearnable; removed for the
  /// classification experiments, §3.2).
  size_t CountSingletonErrorCodes() const;

  /// Bundles whose error code appears more than once (the experiment
  /// population: 6,782 of 7,500 in the paper).
  std::vector<const DataBundle*> LearnableBundles() const;
};

/// \brief Immutable part and error-code description texts behind one
/// shared pointer: copying a catalog copies the pointer, not the texts.
class DescriptionCatalog {
 public:
  using Texts = std::map<std::string, std::string>;

  /// An empty catalog.
  DescriptionCatalog();
  DescriptionCatalog(Texts part_descriptions, Texts error_descriptions);

  const Texts& part_descriptions() const { return tables_->parts; }
  const Texts& error_descriptions() const { return tables_->errors; }

  /// A catalog that also describes `code`; an existing description of
  /// `code` is kept (first registration wins).
  DescriptionCatalog WithErrorDescription(const std::string& code,
                                          const std::string& text) const;

 private:
  struct Tables {
    Texts parts;
    Texts errors;
  };
  std::shared_ptr<const Tables> tables_;
};

/// Concatenates the selected text sources of `bundle` into one document
/// (paper §4.4 step 1: "combine related reports into one document").
/// Description texts are looked up in `corpus`; missing sources are
/// skipped silently.
std::string ComposeDocument(const DataBundle& bundle, unsigned sources,
                            const Corpus& corpus);

/// ComposeDocument with the description texts looked up in `catalog`.
std::string ComposeDocument(const DataBundle& bundle, unsigned sources,
                            const DescriptionCatalog& catalog);

/// ComposeDocument into `*out`, replacing its contents and reusing its
/// capacity (the serving path composes into a per-thread buffer).
void ComposeDocumentInto(const DataBundle& bundle, unsigned sources,
                         const DescriptionCatalog& catalog, std::string* out);

}  // namespace qatk::kb

#endif  // QATK_KB_DATA_BUNDLE_H_
