// Fuzz-style smoke tests for support/json: adversarial input must surface
// as a structured fgpar::Error (with a byte offset in the message), never
// as a crash, a raw std:: exception, unbounded recursion, or a silent
// mis-parse.  Mirrors frontend_fuzz_test.cpp: the corpus is derived
// deterministically from valid documents — truncated prefixes plus
// single-byte mutations — and from handwritten pathological cases.
//
// The parser reads files other processes wrote — repro-bundle manifests
// (fgpar-repro) and tune artifacts (fgparc --apply-tune) — so "malformed
// input cannot take the process down" is a load-bearing property, not a
// nicety.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "support/json.hpp"

namespace fgpar {
namespace {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    state_ += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }

 private:
  std::uint64_t state_;
};

/// A representative document exercising every value kind, produced by the
/// project's own writer so the corpus tracks the wire format.
std::string SeedDocument() {
  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("fgpar-rpc-v1");
  w.Key("id");
  w.UInt(18446744073709551615ull);
  w.Key("neg");
  w.Int(-42);
  w.Key("pi");
  w.Double(3.14159);
  w.Key("flag");
  w.Bool(true);
  w.Key("nothing");
  w.BeginArray();
  w.Bool(false);
  w.Int(1);
  w.EndArray();
  w.EndObject();
  return w.Take();
}

void ExpectStructuredOutcome(const std::string& text, const std::string& what) {
  try {
    (void)ParseJson(text);
  } catch (const Error& e) {
    EXPECT_FALSE(std::string(e.what()).empty()) << what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": escaped non-fgpar exception: " << e.what();
  } catch (...) {
    ADD_FAILURE() << what << ": escaped unknown exception";
  }
}

TEST(JsonFuzz, TruncatedDocumentsAreStructuredErrors) {
  const std::string doc =
      "{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\",\"id\":7,"
      "\"config\":{\"cores\":4,\"speculate\":true,\"trip\":-1,"
      "\"values\":[1,2.5,null,\"x\\n\"]}}";
  for (std::size_t len = 0; len <= doc.size(); ++len) {
    ExpectStructuredOutcome(doc.substr(0, len),
                            "truncated to " + std::to_string(len) + " bytes");
  }
}

TEST(JsonFuzz, ByteMutatedDocumentsAreStructuredErrors) {
  std::string alphabet = "{}[]\":,.-+eE0123456789tfn\\u \n";
  alphabet.push_back('\0');
  alphabet.push_back('\x01');
  alphabet.push_back('\x7f');
  alphabet.push_back('\xff');
  const std::string doc =
      "{\"schema\":\"fgpar-rpc-v1\",\"op\":\"compile_run\",\"id\":7,"
      "\"kernel\":\"kernel k(n: i64) { }\",\"config\":{\"cores\":4}}";
  Rng rng(0xF72Dull);
  for (int round = 0; round < 512; ++round) {
    std::string mutated = doc;
    const std::size_t pos = rng.Below(mutated.size());
    mutated[pos] = alphabet[rng.Below(alphabet.size())];
    ExpectStructuredOutcome(mutated, "mutation round " + std::to_string(round));
  }
}

TEST(JsonFuzz, DeepNestingIsBoundedNotAStackOverflow) {
  // Beyond the parser's depth cap: structured error, no recursion blowup.
  const std::string deep_array(10000, '[');
  EXPECT_THROW((void)ParseJson(deep_array), Error);
  std::string deep_objects;
  for (int i = 0; i < 5000; ++i) {
    deep_objects += "{\"k\":";
  }
  EXPECT_THROW((void)ParseJson(deep_objects), Error);
  // Just inside the cap still parses.
  std::string ok = std::string(60, '[') + "1" + std::string(60, ']');
  EXPECT_EQ(ParseJson(ok).AsArray().size(), 1u);
}

TEST(JsonFuzz, PathologicalNumbersAreStructuredErrors) {
  EXPECT_THROW((void)ParseJson("1e999999"), Error);      // overflow
  EXPECT_THROW((void)ParseJson("-"), Error);
  EXPECT_THROW((void)ParseJson("1.2.3"), Error);
  EXPECT_THROW((void)ParseJson("0x10"), Error);          // trailing chars
  EXPECT_THROW((void)ParseJson("+1"), Error);            // leading plus
  EXPECT_THROW((void)ParseJson("1e+-2"), Error);
  // Precise integers round-trip through the textual representation.
  EXPECT_EQ(ParseJson("18446744073709551615").AsU64(),
            18446744073709551615ull);
  EXPECT_EQ(ParseJson("-9223372036854775808").AsI64(),
            std::int64_t(-9223372036854775807ll - 1));
}

TEST(JsonFuzz, HostileStringsAreStructuredErrors) {
  // Raw control bytes inside strings are rejected (the writer always
  // escapes them), so framing bytes cannot be smuggled through round-trips.
  std::string raw_control = "\"a";
  raw_control.push_back('\x01');
  raw_control += "b\"";
  EXPECT_THROW((void)ParseJson(raw_control), Error);
  std::string raw_nul = "\"a";
  raw_nul.push_back('\0');
  raw_nul += "b\"";
  EXPECT_THROW((void)ParseJson(raw_nul), Error);
  EXPECT_THROW((void)ParseJson("\"unterminated"), Error);
  EXPECT_THROW((void)ParseJson("\"bad escape \\q\""), Error);
  EXPECT_THROW((void)ParseJson("\"truncated \\u00"), Error);
  EXPECT_THROW((void)ParseJson("\"not hex \\uZZZZ\""), Error);
  EXPECT_THROW((void)ParseJson("\"beyond ascii \\u00ff\""), Error);
  // Escaped control characters are fine — that is the writer's encoding.
  EXPECT_EQ(ParseJson("\"a\\u0001b\"").AsString(), std::string("a\x01") + "b");
}

TEST(JsonFuzz, TrailingGarbageIsRejected) {
  EXPECT_THROW((void)ParseJson("{} extra"), Error);
  EXPECT_THROW((void)ParseJson("1 2"), Error);
  EXPECT_THROW((void)ParseJson("[1],"), Error);
  EXPECT_THROW((void)ParseJson(""), Error);
  EXPECT_THROW((void)ParseJson("   "), Error);
}

TEST(JsonFuzz, WriterOutputAlwaysReparses) {
  const std::string doc = SeedDocument();
  const JsonValue parsed = ParseJson(doc);
  EXPECT_EQ(parsed.Get("schema").AsString(), "fgpar-rpc-v1");
  EXPECT_EQ(parsed.Get("id").AsU64(), 18446744073709551615ull);
  EXPECT_EQ(parsed.Get("neg").AsI64(), -42);
  EXPECT_TRUE(parsed.Get("flag").AsBool());
  // Every escapable byte survives a writer → parser round-trip.
  std::string nasty;
  for (int c = 1; c < 128; ++c) {
    nasty.push_back(static_cast<char>(c));
  }
  JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String(nasty);
  w.EndObject();
  EXPECT_EQ(ParseJson(w.Take()).Get("s").AsString(), nasty);
}

TEST(JsonFuzz, ErrorMessagesCarryAByteOffset) {
  try {
    (void)ParseJson("{\"a\": }");
    FAIL() << "expected a parse error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

}  // namespace
}  // namespace fgpar
