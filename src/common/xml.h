#ifndef QATK_COMMON_XML_H_
#define QATK_COMMON_XML_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"

namespace qatk {

/// \brief Minimal XML element tree (tags, attributes, text; entities
/// &amp; &lt; &gt; &quot; &apos;). Enough for the repository's custom
/// format (the taxonomy resource); not a general-purpose XML
/// library (no namespaces, CDATA, or DTDs).
struct XmlElement {
  std::string tag;
  std::map<std::string, std::string> attributes;
  std::string text;  // Concatenated character data directly inside the tag.
  std::vector<std::unique_ptr<XmlElement>> children;

  /// First child with the given tag, or nullptr.
  const XmlElement* FirstChild(const std::string& child_tag) const;

  /// Attribute value or Invalid when absent.
  Result<std::string> RequiredAttribute(const std::string& name) const;
};

/// Parses one XML document into its root element.
Result<std::unique_ptr<XmlElement>> ParseXml(const std::string& input);

/// Serializes an element tree (2-space indentation, escaped entities).
std::string WriteXml(const XmlElement& root);

}  // namespace qatk

#endif  // QATK_COMMON_XML_H_
