#include "src/common/xml.h"

#include <charconv>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>

#include "src/common/strings.h"

namespace hiway {

std::string_view XmlElement::Attr(std::string_view key,
                                  std::string_view def) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) return v;
  }
  return def;
}

bool XmlElement::HasAttr(std::string_view key) const {
  for (const auto& [k, v] : attributes) {
    if (k == key) return true;
  }
  return false;
}

const XmlElement* XmlElement::FirstChild(std::string_view name) const {
  for (const XmlElement& c : children) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

namespace {

void SerializeTo(const XmlElement& e, std::string* out) {
  *out += '<';
  *out += e.name;
  for (const auto& [k, v] : e.attributes) {
    *out += ' ';
    *out += k;
    *out += "=\"";
    *out += XmlEscape(v);
    *out += '"';
  }
  if (e.text.empty() && e.children.empty()) {
    *out += "/>";
    return;
  }
  *out += '>';
  *out += XmlEscape(e.text);
  for (const XmlElement& c : e.children) SerializeTo(c, out);
  *out += "</";
  *out += e.name;
  *out += '>';
}

}  // namespace

std::string XmlSerialize(const XmlElement& root) {
  std::string out;
  SerializeTo(root, &out);
  return out;
}

namespace {

// The character classes of the "C" locale, which the program never leaves,
// tested inline: the <cctype> calls took a quarter of ParseXml's time on
// a Montage DAX.
bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

bool IsAsciiSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

bool IsNameStart(char c) { return IsAsciiAlpha(c) || c == '_' || c == ':'; }

bool IsNameChar(char c) {
  return IsNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

/// The code point of a numeric character reference's body ("65", "x41"):
/// one or more digits of its base, naming a Unicode scalar value (not 0,
/// not a surrogate, at most U+10FFFF).
std::optional<uint32_t> CharRef(std::string_view ref) {
  bool hex = !ref.empty() && (ref[0] == 'x' || ref[0] == 'X');
  std::string_view digits = ref.substr(hex ? 1 : 0);
  uint32_t cp = 0;
  auto [end, ec] = std::from_chars(digits.data(), digits.data() + digits.size(),
                                   cp, hex ? 16 : 10);
  if (ec != std::errc() || end != digits.data() + digits.size() || cp == 0 ||
      cp > 0x10FFFF || (cp >= 0xD800 && cp <= 0xDFFF)) {
    return std::nullopt;
  }
  return cp;
}

/// Recursive-descent parser that fills each element it is handed: names
/// are scanned as views and copied once, and character data and attribute
/// values are appended straight from the input, decoding only where an
/// entity reference occurs. An element's attributes are gathered in a
/// scratch list and its children on a scratch stack (the children of the
/// elements still open, innermost last), so each element gets exactly
/// sized vectors.
class XmlParser {
 public:
  explicit XmlParser(std::string_view text) : text_(text) {}

  Result<std::unique_ptr<XmlElement>> ParseDocument() {
    if (text_.size() > kXmlMaxInputBytes) {
      return Status::ParseError(
          StrFormat("XML input of %zu bytes exceeds the %zu-byte limit "
                    "(kXmlMaxInputBytes)",
                    text_.size(), kXmlMaxInputBytes));
    }
    HIWAY_RETURN_IF_ERROR(SkipProlog());
    auto root = std::make_unique<XmlElement>();
    HIWAY_RETURN_IF_ERROR(ParseElement(0, root.get()));
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
    while (pos_ < text_.size() && IsAsciiSpace(text_[pos_])) {
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

  Status ParseName(std::string_view* name) {
    if (pos_ >= text_.size() || !IsNameStart(text_[pos_])) {
      return Error("name expected");
    }
    size_t start = pos_;
    while (pos_ < text_.size() && IsNameChar(text_[pos_])) ++pos_;
    *name = text_.substr(start, pos_ - start);
    return Status::OK();
  }

  /// Appends `raw` to `out`, replacing each entity reference by its text.
  Status DecodeEntities(std::string_view raw, std::string* out) {
    for (size_t i = 0;;) {
      size_t amp = raw.find('&', i);
      out->append(raw.substr(i, amp - i));
      if (amp == std::string_view::npos) return Status::OK();
      size_t semi = raw.find(';', amp);
      if (semi == std::string_view::npos) {
        return Error("unterminated entity reference");
      }
      std::string_view ent = raw.substr(amp + 1, semi - amp - 1);
      if (ent == "amp") {
        *out += '&';
      } else if (ent == "lt") {
        *out += '<';
      } else if (ent == "gt") {
        *out += '>';
      } else if (ent == "quot") {
        *out += '"';
      } else if (ent == "apos") {
        *out += '\'';
      } else if (!ent.empty() && ent[0] == '#') {
        std::optional<uint32_t> cp = CharRef(ent.substr(1));
        if (!cp.has_value()) return Error("invalid character ref");
        AppendUtf8(*cp, out);
      } else {
        return Error("unknown entity &" + std::string(ent) + ";");
      }
      i = semi + 1;
    }
  }

  Status ParseElement(int depth, XmlElement* elem) {
    if (depth > kXmlMaxDepth) {
      return Error(StrFormat("nesting depth %d exceeds the limit of %d (kXmlMaxDepth)",
                             depth, kXmlMaxDepth));
    }
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return Error("'<' expected");
    }
    ++pos_;
    std::string_view name;
    HIWAY_RETURN_IF_ERROR(ParseName(&name));
    elem->name = name;
    // Attributes, decoded into the reused strings of attrs_[0, n).
    size_t n = 0;
    while (true) {
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated start tag");
      bool empty = LookingAt("/>");
      if (empty || text_[pos_] == '>') {
        pos_ += empty ? 2 : 1;
        elem->attributes.assign(attrs_.begin(), attrs_.begin() + n);
        if (empty) return Status::OK();
        break;
      }
      std::string_view attr_name;
      HIWAY_RETURN_IF_ERROR(ParseName(&attr_name));
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
      if (n == attrs_.size()) attrs_.emplace_back();
      auto& [key, value] = attrs_[n++];
      key = attr_name;
      value.clear();
      HIWAY_RETURN_IF_ERROR(
          DecodeEntities(text_.substr(start, end - start), &value));
    }
    // Content: children gather on children_ above `base`.
    const size_t base = children_.size();
    while (true) {
      if (pos_ >= text_.size()) {
        return Error("unterminated element <" + elem->name + ">");
      }
      if (LookingAt("</")) {
        pos_ += 2;
        std::string_view close_name;
        HIWAY_RETURN_IF_ERROR(ParseName(&close_name));
        if (close_name != elem->name) {
          return Error("mismatched closing tag </" + std::string(close_name) +
                       "> for <" + elem->name + ">");
        }
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != '>') {
          return Error("'>' expected in closing tag");
        }
        ++pos_;
        elem->children.assign(std::make_move_iterator(children_.begin() + base),
                              std::make_move_iterator(children_.end()));
        children_.resize(base);
        return Status::OK();
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
        XmlElement child;
        HIWAY_RETURN_IF_ERROR(ParseElement(depth + 1, &child));
        children_.push_back(std::move(child));
        continue;
      }
      // Character data up to the next markup.
      size_t start = pos_;
      size_t end = text_.find('<', start);
      if (end == std::string_view::npos) end = text_.size();
      HIWAY_RETURN_IF_ERROR(
          DecodeEntities(text_.substr(start, end - start), &elem->text));
      pos_ = end;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
  std::vector<std::pair<std::string, std::string>> attrs_;
  std::vector<XmlElement> children_;
};

}  // namespace

Result<std::unique_ptr<XmlElement>> ParseXml(std::string_view text) {
  XmlParser parser(text);
  return parser.ParseDocument();
}

}  // namespace hiway
