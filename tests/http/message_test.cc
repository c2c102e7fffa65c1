#include "src/http/message.h"

#include <gtest/gtest.h>

#include "src/http/header_map.h"
#include "src/http/status.h"

namespace mfc {
namespace {

TEST(HeaderMapTest, CaseInsensitiveGet) {
  HeaderMap h;
  h.Add("Content-Type", "text/html");
  EXPECT_EQ(h.Get("content-type").value(), "text/html");
  EXPECT_EQ(h.Get("CONTENT-TYPE").value(), "text/html");
  EXPECT_FALSE(h.Get("Content-Length").has_value());
}

TEST(HeaderMapTest, AddAllowsDuplicatesGetReturnsFirst) {
  HeaderMap h;
  h.Add("X-A", "1");
  h.Add("X-A", "2");
  EXPECT_EQ(h.Size(), 2u);
  EXPECT_EQ(h.Get("x-a").value(), "1");
}

TEST(HeaderMapTest, SetReplacesAll) {
  HeaderMap h;
  h.Add("X-A", "1");
  h.Add("X-A", "2");
  h.Set("x-a", "3");
  EXPECT_EQ(h.Size(), 1u);
  EXPECT_EQ(h.Get("X-A").value(), "3");
}

TEST(HeaderMapTest, RemoveCountsRemoved) {
  HeaderMap h;
  h.Add("A", "1");
  h.Add("a", "2");
  h.Add("B", "3");
  EXPECT_EQ(h.Remove("A"), 2u);
  EXPECT_EQ(h.Size(), 1u);
}

TEST(HeaderMapTest, ContentLengthParsing) {
  HeaderMap h;
  h.Set("Content-Length", "12345");
  EXPECT_EQ(h.ContentLength().value(), 12345u);
  h.Set("Content-Length", "nope");
  EXPECT_FALSE(h.ContentLength().has_value());
  h.Set("Content-Length", "12x");
  EXPECT_FALSE(h.ContentLength().has_value());
  h.Set("Content-Length", "7");
  h.Add("content-length", "7");
  EXPECT_EQ(h.ContentLength().value(), 7u);
  h.Add("Content-Length", "8");
  EXPECT_FALSE(h.ContentLength().has_value());
  h.Remove("Content-Length");
  EXPECT_FALSE(h.ContentLength().has_value());
}

TEST(HttpRequestTest, ForSetsHostAndTarget) {
  Url url = *ParseUrl("http://example.com:8080/a/b?x=1");
  HttpRequest req = HttpRequest::For(HttpMethod::kGet, url);
  EXPECT_EQ(req.target, "/a/b?x=1");
  EXPECT_EQ(req.headers.Get("Host").value(), "example.com:8080");
}

TEST(HttpRequestTest, PathAndQuerySplit) {
  HttpRequest req;
  req.target = "/cgi/s.php?q=1&u=2";
  EXPECT_EQ(req.Path(), "/cgi/s.php");
  EXPECT_EQ(req.Query(), "q=1&u=2");
  EXPECT_TRUE(req.HasQuery());
  req.target = "/plain.html";
  EXPECT_EQ(req.Path(), "/plain.html");
  EXPECT_FALSE(req.HasQuery());
}

TEST(HttpRequestTest, SerializeBasic) {
  Url url = *ParseUrl("http://h/x");
  HttpRequest req = HttpRequest::For(HttpMethod::kHead, url);
  std::string wire = req.Serialize();
  EXPECT_EQ(wire.substr(0, wire.find("\r\n")), "HEAD /x HTTP/1.1");
  EXPECT_NE(wire.find("Host: h\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n"), std::string::npos);
}

TEST(HttpRequestTest, SerializeAddsContentLengthForBody) {
  HttpRequest req;
  req.method = HttpMethod::kPost;
  req.target = "/submit";
  req.body = "hello";
  std::string wire = req.Serialize();
  EXPECT_NE(wire.find("Content-Length: 5\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 5), "hello");
}

TEST(HttpResponseTest, MakeSetsHeaders) {
  HttpResponse resp = HttpResponse::Make(HttpStatus::kOk, "text/html", "<html></html>");
  EXPECT_EQ(resp.headers.Get("Content-Type").value(), "text/html");
  EXPECT_EQ(resp.headers.ContentLength().value(), resp.body.size());
}

TEST(HttpResponseTest, SerializeStatusLine) {
  HttpResponse resp = HttpResponse::Make(HttpStatus::kNotFound, "text/plain", "gone");
  std::string wire = resp.Serialize();
  EXPECT_EQ(wire.substr(0, wire.find("\r\n")), "HTTP/1.1 404 Not Found");
}

TEST(StatusTest, ReasonPhrases) {
  EXPECT_EQ(ReasonPhrase(HttpStatus::kOk), "OK");
  EXPECT_EQ(ReasonPhrase(HttpStatus::kServiceUnavailable), "Service Unavailable");
  EXPECT_EQ(ReasonPhrase(HttpStatus::kClientTimeout), "Client Timeout");
}

TEST(StatusTest, Classification) {
  EXPECT_TRUE(IsSuccess(HttpStatus::kOk));
  EXPECT_FALSE(IsSuccess(HttpStatus::kNotFound));
  EXPECT_TRUE(IsServerError(HttpStatus::kServiceUnavailable));
  EXPECT_FALSE(IsServerError(HttpStatus::kOk));
  EXPECT_FALSE(IsSuccess(HttpStatus::kClientTimeout));
}

TEST(MethodTest, Names) {
  EXPECT_EQ(MethodName(HttpMethod::kGet), "GET");
  EXPECT_EQ(MethodName(HttpMethod::kHead), "HEAD");
  EXPECT_EQ(MethodName(HttpMethod::kPost), "POST");
}

}  // namespace
}  // namespace mfc
