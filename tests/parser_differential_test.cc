// Differential test of the production JSON and XML parsers against their
// references in tests/oracles/ (the DOM parsers they replaced).
//
// Every file of the JSON-based fuzz corpora (json, galaxy, cwl, trace; trace
// files also line by line) and of the XML-based ones (xml, dax), plus
// kMutationsPerFile deterministic mutations of each, goes through both
// parsers. They must build equal trees (Json operator== and Dump; for XML
// the canonical XmlSerialize form), or fail with the same message, offset
// included. Labelled `fuzz`, so it also runs under ASan/UBSan wherever the
// fuzz corpora do.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/json.h"
#include "src/common/random.h"
#include "src/common/strings.h"
#include "src/common/xml.h"
#include "tests/oracles/json_oracle.h"
#include "tests/oracles/xml_oracle.h"

namespace hiway {
namespace {

constexpr int kMutationsPerFile = 256;

struct CorpusFile {
  std::string name;
  std::string bytes;
};

std::vector<CorpusFile> Corpus(const std::string& target) {
  std::vector<CorpusFile> files;
  std::filesystem::path dir =
      std::filesystem::path(HIWAY_FUZZ_CORPUS_DIR) / target;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    files.push_back({target + "/" + entry.path().filename().string(),
                     bytes.str()});
  }
  std::sort(files.begin(), files.end(),
            [](const CorpusFile& a, const CorpusFile& b) {
              return a.name < b.name;
            });
  return files;
}

/// Byte-level mutations, plus insertions of grammar tokens that steer the
/// mutants into escapes, entities, numbers and unbalanced structure.
std::string Mutate(const std::string& seed, Rng* rng) {
  static const char* const kTokens[] = {
      "\\",   "\"",     "\\u",     "\\ud83d\\ude00", "\\u00e9", "1e999",
      "-0",   "1e-999", "0.5e+3",  "{",              "}",       "[",
      "]",    ",",      ":",       "null",           "&",       "&#",
      "&#x",  ";",      "&amp;",   "&#x41;",         "&#xD800;", "<",
      ">",    "</",     "/>",      "<![CDATA[",      "]]>",     "<!--",
      "-->",  "<?",     "?>",      "='",             "\n",      "\x01",
  };
  std::string out = seed;
  int ops = 1 + static_cast<int>(rng->UniformInt(4));
  for (int op = 0; op < ops; ++op) {
    size_t pos = rng->UniformInt(out.size() + 1);
    size_t len = 1 + rng->UniformInt(16);
    switch (rng->UniformInt(5)) {
      case 0:  // flip a bit
        if (pos < out.size()) {
          out[pos] = static_cast<char>(out[pos] ^ (1 << rng->UniformInt(8)));
        }
        break;
      case 1:  // delete a span
        out.erase(std::min(pos, out.size()), len);
        break;
      case 2:  // duplicate a span
        out.insert(pos, out.substr(std::min(pos, out.size()), len));
        break;
      case 3:  // truncate
        out.resize(pos);
        break;
      default:  // insert a grammar token
        out.insert(pos, kTokens[rng->UniformInt(std::size(kTokens))]);
        break;
    }
  }
  return out;
}

::testing::AssertionResult SameJson(std::string_view doc) {
  Result<Json> got = Json::Parse(doc);
  Result<Json> want = ParseJsonOracle(doc);
  if (got.ok() != want.ok()) {
    return ::testing::AssertionFailure()
           << "parser " << got.status().ToString() << " vs oracle "
           << want.status().ToString();
  }
  if (!want.ok()) {
    if (got.status().ToString() == want.status().ToString()) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "parser " << got.status().ToString() << " vs oracle "
           << want.status().ToString();
  }
  if (!(*got == *want) || got->Dump() != want->Dump()) {
    return ::testing::AssertionFailure()
           << "parser " << got->Dump() << " vs oracle " << want->Dump();
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameXml(std::string_view doc) {
  auto got = ParseXml(doc);
  auto want = ParseXmlOracle(doc);
  if (got.ok() != want.ok() ||
      (!want.ok() && got.status().ToString() != want.status().ToString())) {
    return ::testing::AssertionFailure()
           << "parser " << got.status().ToString() << " vs oracle "
           << want.status().ToString();
  }
  if (want.ok() && XmlSerialize(**got) != XmlSerialize(**want)) {
    return ::testing::AssertionFailure()
           << "parser " << XmlSerialize(**got) << " vs oracle "
           << XmlSerialize(**want);
  }
  return ::testing::AssertionSuccess();
}

/// Runs `same` on each corpus file of `target`, on each line of it when
/// `by_line`, and on kMutationsPerFile mutants seeded by the file name.
/// Returns the number of documents checked.
template <typename Same>
int CheckCorpus(const std::string& target, bool by_line, Same same) {
  int checked = 0;
  std::vector<CorpusFile> files = Corpus(target);
  EXPECT_FALSE(files.empty()) << target;
  for (const CorpusFile& file : files) {
    std::vector<std::pair<std::string, std::string>> docs = {
        {file.name, file.bytes}};
    if (by_line) {
      std::vector<std::string> lines = StrSplit(file.bytes, '\n');
      for (size_t i = 0; i < lines.size(); ++i) {
        docs.emplace_back(StrFormat("%s line %zu", file.name.c_str(), i + 1),
                          lines[i]);
      }
    }
    Rng rng(Fnv1a64(file.name));
    for (int m = 0; m < kMutationsPerFile; ++m) {
      docs.emplace_back(StrFormat("%s mutant %d", file.name.c_str(), m),
                        Mutate(file.bytes, &rng));
    }
    for (const auto& [origin, doc] : docs) {
      // Stop at the first mismatch: one mutant usually stands for many.
      if (::testing::AssertionResult r = same(doc); !r) {
        ADD_FAILURE() << origin << ": " << r.message() << "\ninput: " << doc;
        return checked;
      }
      ++checked;
    }
  }
  return checked;
}

TEST(ParserDifferentialTest, JsonCorporaMatchTheOracle) {
  for (const char* target : {"json", "galaxy", "cwl", "trace"}) {
    int checked =
        CheckCorpus(target, std::string_view(target) == "trace", SameJson);
    EXPECT_GE(checked, kMutationsPerFile) << target;
  }
}

TEST(ParserDifferentialTest, XmlCorporaMatchTheOracle) {
  for (const char* target : {"xml", "dax"}) {
    int checked = CheckCorpus(target, false, SameXml);
    EXPECT_GE(checked, kMutationsPerFile) << target;
  }
}

TEST(ParserDifferentialTest, SlowPathsMatchTheOracle) {
  // Escapes, entities and numbers the corpora reach only by mutation.
  const char* json[] = {
      R"("a\"b\\c\/\b\f\n\r\t\u00e9\ud83d\ude00")",
      "[1e-400, -1e-400, 0.00001e-330, 1e308, -0, 4.9e-324, 2.5e-324]",
      "1e999", "-1e999", "100000000000000000000000000000000000000e300",
      "\"\\ud83d\"", "\"\\ude00\"", "\"\\ud83d\\u0041\"", "\"\\u12g4\"",
      "\"tab\tin string\"", "{\"a\":1,\"a\":2}", "[[[[]]]]", "{\"k\" : }",
  };
  for (const char* doc : json) EXPECT_TRUE(SameJson(doc)) << doc;
  const char* xml[] = {
      "<a b=\"&amp;&lt;&gt;&quot;&apos;&#65;&#x42;\">x&amp;y<![CDATA[&z]]></a>",
      "<a>&#x1F600;&#128512;</a>", "<a>&#xD800;</a>", "<a>&#65xyz;</a>",
      "<a>& amp;</a>", "<a>&amp</a>", "<a b='&bogus;'/>", "<a></a >",
      "<a><b></a>", "<a>text<!-- c --><?pi x?>more</a>", "<a/><!-- x -->",
  };
  for (const char* doc : xml) EXPECT_TRUE(SameXml(doc)) << doc;
}

}  // namespace
}  // namespace hiway
