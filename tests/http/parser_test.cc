#include "src/http/parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/rng.h"

namespace mfc {
namespace {

constexpr const char* kSimpleRequest =
    "GET /index.html HTTP/1.1\r\nHost: example.com\r\nUser-Agent: t\r\n\r\n";

TEST(RequestParserTest, ParsesSimpleGet) {
  RequestParser parser;
  size_t consumed = parser.Feed(kSimpleRequest);
  EXPECT_EQ(consumed, std::string(kSimpleRequest).size());
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.Message().method, HttpMethod::kGet);
  EXPECT_EQ(parser.Message().target, "/index.html");
  EXPECT_EQ(parser.Message().headers.Get("Host").value(), "example.com");
}

TEST(RequestParserTest, ParsesHead) {
  RequestParser parser;
  parser.Feed("HEAD / HTTP/1.1\r\nHost: h\r\n\r\n");
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.Message().method, HttpMethod::kHead);
}

TEST(RequestParserTest, ParsesBodyByContentLength) {
  RequestParser parser;
  parser.Feed("POST /s HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.Message().body, "hello");
}

TEST(RequestParserTest, IncrementalBody) {
  RequestParser parser;
  parser.Feed("POST /s HTTP/1.1\r\nContent-Length: 10\r\n\r\n");
  EXPECT_FALSE(parser.Done());
  EXPECT_EQ(parser.Phase(), ParsePhase::kBody);
  parser.Feed("01234");
  EXPECT_FALSE(parser.Done());
  parser.Feed("56789");
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.Message().body, "0123456789");
}

TEST(RequestParserTest, ExcessBytesNotConsumed) {
  RequestParser parser;
  std::string two = std::string(kSimpleRequest) + "GET /other HTTP/1.1\r\n\r\n";
  size_t consumed = parser.Feed(two);
  EXPECT_EQ(consumed, std::string(kSimpleRequest).size());
  EXPECT_TRUE(parser.Done());
}

TEST(RequestParserTest, ToleratesLeadingBlankLines) {
  RequestParser parser;
  parser.Feed("\r\n\r\nGET / HTTP/1.1\r\nHost: h\r\n\r\n");
  EXPECT_TRUE(parser.Done());
}

TEST(RequestParserTest, BareLfAccepted) {
  RequestParser parser;
  parser.Feed("GET / HTTP/1.1\nHost: h\n\n");
  EXPECT_TRUE(parser.Done());
  EXPECT_EQ(parser.Message().headers.Get("Host").value(), "h");
}

TEST(RequestParserTest, HeaderValueOwsTrimmed) {
  RequestParser parser;
  parser.Feed("GET / HTTP/1.1\r\nX-Pad:   spaced value \t\r\n\r\n");
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.Message().headers.Get("X-Pad").value(), "spaced value");
}

TEST(RequestParserTest, RejectsUnknownMethod) {
  RequestParser parser;
  parser.Feed("BREW /coffee HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

TEST(RequestParserTest, RejectsBadVersion) {
  RequestParser parser;
  parser.Feed("GET / HTTP/2.0\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

TEST(RequestParserTest, RejectsTargetWithoutSlash) {
  RequestParser parser;
  parser.Feed("GET index.html HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

TEST(RequestParserTest, RejectsHeaderWithoutColon) {
  RequestParser parser;
  parser.Feed("GET / HTTP/1.1\r\nBadHeader\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

TEST(RequestParserTest, RejectsEmptyHeaderName) {
  RequestParser parser;
  parser.Feed("GET / HTTP/1.1\r\n: value\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

TEST(RequestParserTest, RejectsHeaderNameWithSpace) {
  RequestParser parser;
  parser.Feed("GET / HTTP/1.1\r\nBad Name: v\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

TEST(RequestParserTest, RejectsMalformedContentLength) {
  RequestParser parser;
  parser.Feed("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

// Content-Length values that disagree are invalid framing (RFC 9112 §6.3);
// reading the first would leave the rest of the body as the next message.
TEST(RequestParserTest, RejectsDisagreeingContentLengths) {
  RequestParser parser;
  parser.Feed("POST /s HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 7\r\n\r\nabcdefg");
  ASSERT_TRUE(parser.Failed());
  EXPECT_EQ(parser.ErrorText(), "malformed Content-Length");
}

TEST(RequestParserTest, AcceptsEqualDuplicateContentLengths) {
  RequestParser parser;
  const std::string message =
      "POST /s HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc";
  EXPECT_EQ(parser.Feed(message), message.size());
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.Message().body, "abc");
}

TEST(RequestParserTest, StaysFailedAfterError) {
  RequestParser parser;
  parser.Feed("BREW / HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(parser.Failed());
  parser.Feed("GET / HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

TEST(ResponseParserTest, ParsesSimpleResponse) {
  ResponseParser parser;
  parser.Feed("HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabc");
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.Message().status, HttpStatus::kOk);
  EXPECT_EQ(parser.Message().body, "abc");
}

TEST(ResponseParserTest, RejectsDisagreeingContentLengths) {
  ResponseParser parser;
  parser.Feed("HTTP/1.1 200 OK\r\nContent-Length: 3\r\ncontent-length: 7\r\n\r\nabcdefg");
  ASSERT_TRUE(parser.Failed());
  EXPECT_EQ(parser.ErrorText(), "malformed Content-Length");
}

TEST(ResponseParserTest, HeadResponseSkipsBody) {
  ResponseParser parser;
  parser.set_expect_body(false);
  parser.Feed("HTTP/1.1 200 OK\r\nContent-Length: 102400\r\n\r\n");
  ASSERT_TRUE(parser.Done());
  EXPECT_TRUE(parser.Message().body.empty());
  EXPECT_EQ(parser.Message().headers.ContentLength().value(), 102400u);
}

TEST(ResponseParserTest, StatusWithoutReasonPhrase) {
  ResponseParser parser;
  parser.Feed("HTTP/1.1 204\r\n\r\n");
  ASSERT_TRUE(parser.Done());
  EXPECT_EQ(parser.Message().status, HttpStatus::kNoContent);
}

TEST(ResponseParserTest, RejectsBadStatusCode) {
  ResponseParser parser;
  parser.Feed("HTTP/1.1 9000 Huge\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

TEST(ResponseParserTest, RejectsNonNumericStatus) {
  ResponseParser parser;
  parser.Feed("HTTP/1.1 OK 200\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

TEST(ResponseParserTest, RejectsBadVersion) {
  ResponseParser parser;
  parser.Feed("SIP/2.0 200 OK\r\n\r\n");
  EXPECT_TRUE(parser.Failed());
}

// Round-trip property: serialize then parse yields the same message, for any
// chunking of the wire bytes.
class ParserChunkingTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParserChunkingTest, RequestRoundTripUnderChunking) {
  size_t chunk = GetParam();
  HttpRequest req;
  req.method = HttpMethod::kPost;
  req.target = "/cgi/search.php?q=xyz&mfc=17";
  req.headers.Set("Host", "target.example.com");
  req.headers.Set("User-Agent", "mfc-client/1.0");
  req.body = "payload-data-0123456789";
  std::string wire = req.Serialize();

  RequestParser parser;
  size_t pos = 0;
  while (pos < wire.size()) {
    size_t n = std::min(chunk, wire.size() - pos);
    size_t consumed = parser.Feed(std::string_view(wire).substr(pos, n));
    EXPECT_EQ(consumed, n);
    pos += n;
  }
  ASSERT_TRUE(parser.Done()) << "chunk=" << chunk;
  EXPECT_EQ(parser.Message().method, req.method);
  EXPECT_EQ(parser.Message().target, req.target);
  EXPECT_EQ(parser.Message().body, req.body);
  EXPECT_EQ(parser.Message().headers.Get("Host").value(), "target.example.com");
}

TEST_P(ParserChunkingTest, ResponseRoundTripUnderChunking) {
  size_t chunk = GetParam();
  HttpResponse resp = HttpResponse::Make(HttpStatus::kOk, "text/html",
                                         "<html><body>hello world</body></html>");
  std::string wire = resp.Serialize();

  ResponseParser parser;
  size_t pos = 0;
  while (pos < wire.size()) {
    size_t n = std::min(chunk, wire.size() - pos);
    parser.Feed(std::string_view(wire).substr(pos, n));
    pos += n;
  }
  ASSERT_TRUE(parser.Done()) << "chunk=" << chunk;
  EXPECT_EQ(parser.Message().status, HttpStatus::kOk);
  EXPECT_EQ(parser.Message().body, resp.body);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ParserChunkingTest,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 64, 1024));

// ---- seeded mutation corpus --------------------------------------------------

// Parses |wire| whole and byte by byte: both must end in the same phase with
// the same error text and the same message. An accepted message must survive
// the canonical round trip: its serialization parses back, whole, to a
// message that serializes to the same bytes. Counts accepted messages in
// |accepted|.
template <typename Parser>
void ExpectConsistentOrRejected(std::string_view wire, bool expect_body, size_t* accepted) {
  Parser whole;
  whole.set_expect_body(expect_body);
  whole.Feed(wire);
  Parser bytewise;
  bytewise.set_expect_body(expect_body);
  for (size_t pos = 0; pos < wire.size() && !bytewise.Done() && !bytewise.Failed(); ++pos) {
    bytewise.Feed(wire.substr(pos, 1));
  }
  ASSERT_EQ(whole.Phase(), bytewise.Phase()) << testing::PrintToString(std::string(wire));
  ASSERT_EQ(whole.ErrorText(), bytewise.ErrorText()) << testing::PrintToString(std::string(wire));
  ASSERT_EQ(whole.Message().Serialize(), bytewise.Message().Serialize())
      << testing::PrintToString(std::string(wire));
  if (!whole.Done()) {
    return;
  }
  ++*accepted;
  const std::string canonical = whole.Message().Serialize();
  Parser again;
  again.set_expect_body(expect_body);
  ASSERT_EQ(again.Feed(canonical), canonical.size()) << testing::PrintToString(canonical);
  ASSERT_TRUE(again.Done()) << testing::PrintToString(canonical);
  EXPECT_EQ(again.Message().Serialize(), canonical);
}

// Applies one to four random edits to |mutant|: flip, delete or insert a
// byte from |alphabet|, or truncate.
std::string Mutate(Rng& rng, std::string mutant, const std::string& alphabet) {
  const size_t edits = 1 + rng.NextBelow(4);
  for (size_t e = 0; e < edits && !mutant.empty(); ++e) {
    const size_t at = rng.NextBelow(mutant.size());
    switch (rng.NextBelow(4)) {
      case 0:  // flip
        mutant[at] = alphabet[rng.NextBelow(alphabet.size())];
        break;
      case 1:  // delete
        mutant.erase(at, 1);
        break;
      case 2:  // insert
        mutant.insert(at, 1, alphabet[rng.NextBelow(alphabet.size())]);
        break;
      default:  // truncate
        mutant.resize(at);
        break;
    }
  }
  return mutant;
}

// Seeded random mutations of serialized requests and responses (the
// parsers read bytes from real sockets in the live runtime): no mutant may
// crash either parser, feeding it whole or byte by byte must agree, and every
// accepted mutant must satisfy the canonical round trip.
TEST(HttpParserCorpusTest, SeededMutationCorpusNeverCrashesOrMisparses) {
  std::vector<std::string> requests;
  requests.push_back(
      HttpRequest::For(HttpMethod::kGet, *ParseUrl("http://target.example.com/index.html"))
          .Serialize());
  requests.push_back(
      HttpRequest::For(HttpMethod::kHead, *ParseUrl("http://h.example:8080/a/b.jpg"))
          .Serialize());
  HttpRequest post = HttpRequest::For(HttpMethod::kPost,
                                      *ParseUrl("http://target.example.com/cgi/q.php?q=x&mfc=7"));
  post.body = "payload-0123456789";
  requests.push_back(post.Serialize());
  requests.push_back("\r\nGET / HTTP/1.0\nX-Pad:  v \t\nContent-Length: 3\n\nabc");

  std::vector<std::string> responses;
  responses.push_back(
      HttpResponse::Make(HttpStatus::kOk, "text/html", "<html><body>hi</body></html>")
          .Serialize());
  responses.push_back(HttpResponse::Make(HttpStatus::kNotFound, "text/plain", "").Serialize());
  responses.push_back("HTTP/1.1 204\r\nServer: s\r\n\r\n");
  responses.push_back("HTTP/1.0 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n");

  const std::string alphabet = " \t\r\n:/?0123456789ABCZaz-+.\x01\x7f\xff";
  Rng rng(20261019);
  size_t mutants = 0;
  size_t accepted = 0;
  for (int round = 0; round < 1000; ++round) {
    for (const std::string& seedling : requests) {
      ++mutants;
      ExpectConsistentOrRejected<RequestParser>(Mutate(rng, seedling, alphabet), true,
                                                &accepted);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
    for (const std::string& seedling : responses) {
      for (bool expect_body : {true, false}) {
        ++mutants;
        ExpectConsistentOrRejected<ResponseParser>(Mutate(rng, seedling, alphabet), expect_body,
                                                   &accepted);
        if (::testing::Test::HasFatalFailure()) {
          return;
        }
      }
    }
  }
  // The corpus reaches both outcomes: mutants the parsers accept and
  // mutants they reject or leave incomplete.
  EXPECT_GT(accepted, mutants / 10);
  EXPECT_LT(accepted, mutants - mutants / 10);
}

}  // namespace
}  // namespace mfc
