// Test-only reference for the XML parser: the DOM parser ParseXml
// replaced. It allocates every name, decodes every attribute value and
// character-data run into a fresh string, and gives each element its own
// heap node. The production parser (src/common/xml.cc) builds elements in
// place; the two must agree on every document: the same tree (compared
// through XmlSerialize), or the same error message, offset included
// (tests/parser_differential_test.cc).
//
// Numeric character references follow the production rule: one or more
// decimal digits, or hex digits after 'x', naming a Unicode scalar value
// (no surrogates).

#ifndef HIWAY_TESTS_ORACLES_XML_ORACLE_H_
#define HIWAY_TESTS_ORACLES_XML_ORACLE_H_

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>

#include "src/common/strings.h"
#include "src/common/xml.h"

namespace hiway {

inline bool XmlOracleIsNameStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

inline bool XmlOracleIsNameChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == ':' ||
         c == '-' || c == '.';
}

class XmlOracleParser {
 public:
  explicit XmlOracleParser(std::string_view text) : text_(text) {}

  Result<std::unique_ptr<XmlElement>> ParseDocument() {
    if (text_.size() > kXmlMaxInputBytes) {
      return Status::ParseError(
          StrFormat("XML input of %zu bytes exceeds the %zu-byte limit "
                    "(kXmlMaxInputBytes)",
                    text_.size(), kXmlMaxInputBytes));
    }
    HIWAY_RETURN_IF_ERROR(SkipProlog());
    HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> root, ParseElement(0));
    SkipMisc();
    if (pos_ != text_.size()) {
      return Error("trailing content after root element");
    }
    return root;
  }

 private:
  Status Error(const std::string& msg) const {
    int line = 1;
    for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') ++line;
    }
    return Status::ParseError(StrFormat("XML error at line %d (offset %zu): %s",
                                        line, pos_, msg.c_str()));
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool LookingAt(std::string_view prefix) const {
    return text_.substr(pos_, prefix.size()) == prefix;
  }

  Status SkipUntil(std::string_view terminator) {
    size_t p = text_.find(terminator, pos_);
    if (p == std::string_view::npos) {
      return Error(std::string("unterminated construct, expected ") +
                   std::string(terminator));
    }
    pos_ = p + terminator.size();
    return Status::OK();
  }

  /// Skips the XML declaration, comments, PIs, and a DOCTYPE if present.
  Status SkipProlog() {
    while (true) {
      SkipWs();
      if (LookingAt("<?")) {
        HIWAY_RETURN_IF_ERROR(SkipUntil("?>"));
      } else if (LookingAt("<!--")) {
        HIWAY_RETURN_IF_ERROR(SkipUntil("-->"));
      } else if (LookingAt("<!DOCTYPE")) {
        HIWAY_RETURN_IF_ERROR(SkipUntil(">"));
      } else {
        return Status::OK();
      }
    }
  }

  void SkipMisc() {
    while (true) {
      SkipWs();
      if (LookingAt("<!--")) {
        if (!SkipUntil("-->").ok()) return;
      } else if (LookingAt("<?")) {
        if (!SkipUntil("?>").ok()) return;
      } else {
        return;
      }
    }
  }

  Result<std::string> ParseName() {
    if (pos_ >= text_.size() || !XmlOracleIsNameStart(text_[pos_])) {
      return Error("name expected");
    }
    size_t start = pos_;
    while (pos_ < text_.size() && XmlOracleIsNameChar(text_[pos_])) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<std::string> DecodeEntities(std::string_view raw) {
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size();) {
      if (raw[i] != '&') {
        out += raw[i++];
        continue;
      }
      size_t semi = raw.find(';', i);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view ent = raw.substr(i + 1, semi - i - 1);
      if (ent == "amp") {
        out += '&';
      } else if (ent == "lt") {
        out += '<';
      } else if (ent == "gt") {
        out += '>';
      } else if (ent == "quot") {
        out += '"';
      } else if (ent == "apos") {
        out += '\'';
      } else if (!ent.empty() && ent[0] == '#') {
        bool hex = ent.size() > 1 && (ent[1] == 'x' || ent[1] == 'X');
        std::string digits(ent.substr(hex ? 2 : 1));
        bool well_formed =
            !digits.empty() &&
            std::all_of(digits.begin(), digits.end(), [hex](char d) {
              auto u = static_cast<unsigned char>(d);
              return hex ? std::isxdigit(u) != 0 : std::isdigit(u) != 0;
            });
        long cp = well_formed
                      ? std::strtol(digits.c_str(), nullptr, hex ? 16 : 10)
                      : 0;
        if (cp <= 0 || cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
          return Error("invalid character ref");
        }
        // Encode as UTF-8.
        uint32_t u = static_cast<uint32_t>(cp);
        if (u < 0x80) {
          out += static_cast<char>(u);
        } else if (u < 0x800) {
          out += static_cast<char>(0xC0 | (u >> 6));
          out += static_cast<char>(0x80 | (u & 0x3F));
        } else if (u < 0x10000) {
          out += static_cast<char>(0xE0 | (u >> 12));
          out += static_cast<char>(0x80 | ((u >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (u & 0x3F));
        } else {
          out += static_cast<char>(0xF0 | (u >> 18));
          out += static_cast<char>(0x80 | ((u >> 12) & 0x3F));
          out += static_cast<char>(0x80 | ((u >> 6) & 0x3F));
          out += static_cast<char>(0x80 | (u & 0x3F));
        }
      } else {
        return Error("unknown entity &" + std::string(ent) + ";");
      }
      i = semi + 1;
    }
    return out;
  }

  Result<std::unique_ptr<XmlElement>> ParseElement(int depth) {
    if (depth > kXmlMaxDepth) {
      return Error(StrFormat("nesting depth %d exceeds the limit of %d (kXmlMaxDepth)",
                             depth, kXmlMaxDepth));
    }
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return Error("'<' expected");
    }
    ++pos_;
    auto elem = std::make_unique<XmlElement>();
    HIWAY_ASSIGN_OR_RETURN(elem->name, ParseName());
    // Attributes.
    while (true) {
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated start tag");
      if (LookingAt("/>")) {
        pos_ += 2;
        return elem;
      }
      if (text_[pos_] == '>') {
        ++pos_;
        break;
      }
      HIWAY_ASSIGN_OR_RETURN(std::string attr_name, ParseName());
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '=') {
        return Error("'=' expected after attribute name");
      }
      ++pos_;
      SkipWs();
      if (pos_ >= text_.size() || (text_[pos_] != '"' && text_[pos_] != '\'')) {
        return Error("quoted attribute value expected");
      }
      char quote = text_[pos_++];
      size_t start = pos_;
      size_t end = text_.find(quote, start);
      if (end == std::string_view::npos) {
        return Error("unterminated attribute value");
      }
      pos_ = end + 1;
      HIWAY_ASSIGN_OR_RETURN(
          std::string value, DecodeEntities(text_.substr(start, end - start)));
      elem->attributes.emplace_back(std::move(attr_name), std::move(value));
    }
    // Content.
    while (true) {
      if (pos_ >= text_.size()) {
        return Error("unterminated element <" + elem->name + ">");
      }
      if (LookingAt("</")) {
        pos_ += 2;
        HIWAY_ASSIGN_OR_RETURN(std::string close_name, ParseName());
        if (close_name != elem->name) {
          return Error("mismatched closing tag </" + close_name +
                       "> for <" + elem->name + ">");
        }
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != '>') {
          return Error("'>' expected in closing tag");
        }
        ++pos_;
        return elem;
      }
      if (LookingAt("<!--")) {
        HIWAY_RETURN_IF_ERROR(SkipUntil("-->"));
        continue;
      }
      if (LookingAt("<![CDATA[")) {
        size_t start = pos_ + 9;
        size_t end = text_.find("]]>", start);
        if (end == std::string_view::npos) return Error("unterminated CDATA");
        elem->text.append(text_.substr(start, end - start));
        pos_ = end + 3;
        continue;
      }
      if (LookingAt("<?")) {
        HIWAY_RETURN_IF_ERROR(SkipUntil("?>"));
        continue;
      }
      if (text_[pos_] == '<') {
        HIWAY_ASSIGN_OR_RETURN(std::unique_ptr<XmlElement> child,
                               ParseElement(depth + 1));
        elem->children.push_back(std::move(*child));
        continue;
      }
      // Character data up to the next markup.
      size_t start = pos_;
      size_t end = text_.find('<', start);
      if (end == std::string_view::npos) end = text_.size();
      HIWAY_ASSIGN_OR_RETURN(
          std::string data, DecodeEntities(text_.substr(start, end - start)));
      elem->text += data;
      pos_ = end;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

inline Result<std::unique_ptr<XmlElement>> ParseXmlOracle(
    std::string_view text) {
  return XmlOracleParser(text).ParseDocument();
}

}  // namespace hiway

#endif  // HIWAY_TESTS_ORACLES_XML_ORACLE_H_
