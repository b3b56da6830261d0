// A minimal, non-validating XML parser sufficient for Pegasus DAX files.
//
// Supports: element trees with attributes, character data, comments,
// processing instructions / XML declarations (skipped), CDATA sections, the
// five predefined entities, and numeric character references (decimal, or
// hex after 'x', naming a Unicode scalar value). Namespaces are not interpreted; prefixed
// names are kept verbatim. DTDs are not supported.

#ifndef HIWAY_COMMON_XML_H_
#define HIWAY_COMMON_XML_H_

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/result.h"

namespace hiway {

/// One XML element. Children are held in place, in document order; text
/// content is the concatenation of all character data directly inside the
/// element.
struct XmlElement {
  std::string name;
  std::vector<std::pair<std::string, std::string>> attributes;
  std::vector<XmlElement> children;
  std::string text;

  /// Attribute lookup; returns `def` when absent. The view points into this
  /// element (or is `def`), so it lives as long as the element.
  std::string_view Attr(std::string_view key, std::string_view def = {}) const;
  bool HasAttr(std::string_view key) const;

  /// First direct child with the given element name, or nullptr.
  const XmlElement* FirstChild(std::string_view name) const;
};

/// Parses a complete XML document and returns its root element.
/// Inputs larger than kXmlMaxInputBytes or nested deeper than kXmlMaxDepth
/// are rejected with a ParseError naming the limit and offending offset.
Result<std::unique_ptr<XmlElement>> ParseXml(std::string_view text);

/// Hard limits enforced by ParseXml.
inline constexpr size_t kXmlMaxInputBytes = 64u << 20;
inline constexpr int kXmlMaxDepth = 256;

/// Serialises an element tree back to markup. Canonical form: attributes in
/// stored order, element text (if any) before child elements. Feeding the
/// output back through ParseXml yields an equal tree (round-trip fixpoint).
std::string XmlSerialize(const XmlElement& root);

/// Escapes text for inclusion in XML character data / attribute values.
std::string XmlEscape(std::string_view s);

}  // namespace hiway

#endif  // HIWAY_COMMON_XML_H_
