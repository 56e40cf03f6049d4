// Tests for the ksym_serve stack (DESIGN.md §12): wire framing (round
// trips, malformed input, a deterministic fuzz pass), the checksum-keyed
// GraphCache (hits, eviction, pinning), the request-level API (CLI/daemon
// equivalence, concurrent sharded requests on one cached shard set, the
// dynamic-session ops), the ArgParser the tools share, and the Server end
// to end over a real unix socket — including admission rejection,
// queued-deadline expiry, strict framing keys, budget tokens, concurrent
// samples, and the request-line cap.

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

#include "common/rng.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "serve/api.h"
#include "serve/cache.h"
#include "serve/dynamic.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "shard/partitioner.h"
#include "serve_test_util.h"
#include "tool_common.h"

namespace ksym {
namespace serve {
namespace {

using serve_test::ReadFileBytes;
using serve_test::TempPath;
using serve_test::TestClient;
using serve_test::WriteFileBytes;

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

TEST(WireTest, RoundTripAllKinds) {
  WireObject object;
  object.Set("s", WireValue::String("hello"));
  object.Set("u", WireValue::Uint(UINT64_MAX));
  object.Set("i", WireValue::Int(-42));
  object.Set("d", WireValue::Double(1.5));
  object.Set("b", WireValue::Bool(true));
  object.Set("f", WireValue::Bool(false));

  const std::string line = SerializeWireLine(object);
  const auto parsed = ParseWireLine(line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("s"), "hello");
  EXPECT_EQ(parsed->GetUint("u"), UINT64_MAX);
  ASSERT_NE(parsed->Find("i"), nullptr);
  EXPECT_EQ(parsed->Find("i")->kind, WireValue::Kind::kInt);
  EXPECT_EQ(parsed->Find("i")->i, -42);
  EXPECT_EQ(parsed->GetDouble("d"), 1.5);
  EXPECT_TRUE(parsed->GetBool("b"));
  EXPECT_FALSE(parsed->GetBool("f", true));
  // Deterministic: re-serializing reproduces the exact line.
  EXPECT_EQ(SerializeWireLine(parsed.value()), line);
}

TEST(WireTest, StringEscapesRoundTrip) {
  const std::string nasty = "quote\" back\\slash\nnew\ttab\rret\x01ctl";
  WireObject object;
  object.Set("k", WireValue::String(nasty));
  const auto parsed = ParseWireLine(SerializeWireLine(object));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("k"), nasty);
}

TEST(WireTest, UnicodeEscapeDecodesToUtf8) {
  const auto parsed = ParseWireLine("{\"k\":\"\\u00e9\\u20ac\"}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetString("k"), "\xc3\xa9\xe2\x82\xac");  // é €
}

TEST(WireTest, ToleratesWhitespaceAndTrailingNewline) {
  const auto parsed = ParseWireLine("{ \"a\" : 1 , \"b\" : true }\r\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->GetUint("a"), 1u);
  EXPECT_TRUE(parsed->GetBool("b"));
}

TEST(WireTest, EmptyObjectParses) {
  const auto parsed = ParseWireLine("{}");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(parsed->fields.empty());
}

TEST(WireTest, MalformedInputsRejected) {
  const char* bad[] = {
      "",                          // no object
      "{",                         // unterminated
      "{\"a\":}",                  // missing value
      "{\"a\":1",                  // no closing brace
      "{\"a\":1}x",                // trailing bytes
      "{\"a\":1,\"a\":2}",         // duplicate key
      "{\"a\":nul}",               // bad literal
      "{\"a\":null}",              // null is not a wire kind
      "{\"a\":[1]}",               // arrays unsupported
      "{\"a\":{\"b\":1}}",         // nesting unsupported
      "{\"a\":\"unterminated",     // unterminated string
      "{\"a\":\"\\q\"}",           // unknown escape
      "{\"a\":\"\\ud800\"}",       // surrogate escape
      "{\"a\":1e}",                // bad exponent
      "{\"a\":--3}",               // bad number
      "{a:1}",                     // unquoted key
      "plain text",                // not an object
  };
  for (const char* line : bad) {
    const auto parsed = ParseWireLine(line);
    EXPECT_FALSE(parsed.ok()) << "accepted: " << line;
  }
}

TEST(WireTest, GetUintAcceptsNonNegativeInt) {
  WireObject object;
  object.Set("a", WireValue::Int(7));
  object.Set("b", WireValue::Int(-7));
  EXPECT_EQ(object.GetUint("a"), 7u);
  EXPECT_EQ(object.GetUint("b", 99), 99u);  // Negative: fallback.
  EXPECT_EQ(object.GetDouble("b"), -7.0);
}

// The parser must be total: arbitrary bytes and mutations of a valid line
// either parse or return a status — never crash. Deterministic xorshift so
// failures replay.
TEST(WireTest, FuzzNeverCrashes) {
  uint64_t state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  // Random byte soup.
  for (int trial = 0; trial < 500; ++trial) {
    std::string line;
    const size_t len = next() % 64;
    for (size_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(next() % 256));
    }
    const auto parsed = ParseWireLine(line);
    if (parsed.ok()) {
      // Whatever parsed must re-serialize and re-parse.
      const auto again = ParseWireLine(SerializeWireLine(parsed.value()));
      EXPECT_TRUE(again.ok());
    }
  }

  // Single-byte mutations of a valid request line.
  const std::string valid =
      "{\"op\":\"sample\",\"release\":\"r.ksymcsr\",\"samples\":4,"
      "\"seed\":42,\"exact\":true,\"rate\":-1.5e2}";
  for (size_t pos = 0; pos < valid.size(); ++pos) {
    for (int m = 0; m < 4; ++m) {
      std::string line = valid;
      line[pos] = static_cast<char>(next() % 256);
      (void)ParseWireLine(line);  // Must not crash; status content is free.
    }
  }
}

// ---------------------------------------------------------------------------
// Fixtures: small graphs on disk
// ---------------------------------------------------------------------------

std::string WriteTestCsr(const std::string& name, const Graph& graph) {
  const std::string path = TempPath(name);
  std::vector<uint64_t> labels(graph.NumVertices());
  std::iota(labels.begin(), labels.end(), uint64_t{0});
  const Status status = WriteCsrFile(graph, labels, path);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return path;
}

std::string WriteTestEdges(const std::string& name) {
  const std::string path = TempPath(name);
  WriteFileBytes(path, "0 1\n0 2\n0 3\n1 2\n3 4\n4 5\n4 6\n5 6\n");
  return path;
}

/// Anonymizes the 8-vertex test graph into a binary release file.
std::string WriteTestRelease(const std::string& name) {
  AnonymizeRequest request;
  request.input = WriteTestEdges(name + ".edges");
  request.output = TempPath(name + ".ksymcsr");
  request.k = 2;
  request.binary = true;
  const auto response = RunAnonymize(request);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
  return request.output;
}

// ---------------------------------------------------------------------------
// GraphCache
// ---------------------------------------------------------------------------

TEST(GraphCacheTest, SecondLookupHits) {
  const std::string path = WriteTestCsr("cache_hit.ksymcsr", MakeCycle(8));
  GraphCache cache(size_t{1} << 20);

  bool hit = true;
  const auto first = cache.GetGraph(path, &hit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(hit);
  EXPECT_EQ((*first)->graph.NumVertices(), 8u);

  const auto second = cache.GetGraph(path, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get());  // Same mapping, not a reload.

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
}

TEST(GraphCacheTest, KeyedByChecksumNotPath) {
  const std::string path = WriteTestCsr("cache_key_a.ksymcsr", MakeCycle(8));
  const std::string copy = TempPath("cache_key_b.ksymcsr");
  WriteFileBytes(copy, ReadFileBytes(path));

  GraphCache cache(size_t{1} << 20);
  bool hit = true;
  ASSERT_TRUE(cache.GetGraph(path, &hit).ok());
  EXPECT_FALSE(hit);
  // Different path, same bytes: the header checksum matches, so it hits.
  ASSERT_TRUE(cache.GetGraph(copy, &hit).ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(GraphCacheTest, EvictsPastCapButNeverUnmapsPins) {
  const std::string path_a = WriteTestCsr("evict_a.ksymcsr", MakeCycle(8));
  const std::string path_b = WriteTestCsr("evict_b.ksymcsr", MakePath(9));

  GraphCache cache(1);  // Every entry alone exceeds the cap.
  const auto a = cache.GetGraph(path_a);
  ASSERT_TRUE(a.ok());
  // The just-inserted entry is always admitted, even over the cap.
  EXPECT_EQ(cache.stats().entries, 1u);

  const auto b = cache.GetGraph(path_b);
  ASSERT_TRUE(b.ok());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);  // A was evicted to admit B.
  EXPECT_GE(stats.evictions, 1u);

  // The pinned mapping survives its eviction.
  EXPECT_EQ((*a)->graph.NumVertices(), 8u);
  EXPECT_EQ((*b)->graph.NumVertices(), 9u);

  // A is genuinely gone: looking it up again is a miss.
  bool hit = true;
  ASSERT_TRUE(cache.GetGraph(path_a, &hit).ok());
  EXPECT_FALSE(hit);
}

TEST(GraphCacheTest, ReleaseLookupHitsAndBypassCounts) {
  const std::string release = WriteTestRelease("cache_release");
  GraphCache cache(size_t{1} << 20);

  bool hit = true;
  const auto first = cache.GetRelease(release, &hit);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(hit);
  const auto second = cache.GetRelease(release, &hit);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(hit);
  EXPECT_EQ(first->get(), second->get());

  cache.RecordBypass();
  EXPECT_EQ(cache.stats().bypasses, 1u);
}

TEST(GraphCacheTest, MissingFileIsAnErrorNotAnEntry) {
  GraphCache cache(size_t{1} << 20);
  EXPECT_FALSE(cache.GetGraph(TempPath("no_such.ksymcsr")).ok());
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Request wire decoding
// ---------------------------------------------------------------------------

TEST(RequestDecodeTest, AuditDefaultsAndFields) {
  const auto minimal = AuditRequestFromWire(
      ParseWireLine("{\"op\":\"audit\",\"input\":\"g.ksymcsr\"}").value());
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_EQ(minimal->input, "g.ksymcsr");
  EXPECT_EQ(minimal->k, 5u);
  EXPECT_FALSE(minimal->tdv);

  // `threads` is still accepted (and ignored): an audit runs one thread.
  const auto full = AuditRequestFromWire(
      ParseWireLine("{\"op\":\"audit\",\"id\":\"x\",\"deadline_ms\":5,"
                    "\"input\":\"g\",\"k\":3,\"tdv\":true,\"threads\":2}")
          .value());
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_EQ(full->k, 3u);
  EXPECT_TRUE(full->tdv);
}

TEST(RequestDecodeTest, UnknownFieldRejected) {
  const auto decoded = AuditRequestFromWire(
      ParseWireLine("{\"op\":\"audit\",\"input\":\"g\",\"kk\":3}").value());
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.status().ToString().find("kk"), std::string::npos);

  // The mutate op has no tuning fields.
  const auto mutate = MutateRequestFromWire(
      ParseWireLine("{\"op\":\"mutate\",\"session\":\"s\","
                    "\"edits\":\"add 0 1\",\"compact_ratio\":0.5}")
          .value());
  ASSERT_FALSE(mutate.ok());
  EXPECT_NE(mutate.status().ToString().find("compact_ratio"),
            std::string::npos);
}

TEST(RequestDecodeTest, SampleDefaults) {
  const auto decoded = SampleRequestFromWire(
      ParseWireLine("{\"op\":\"sample\",\"release\":\"r\","
                    "\"output_prefix\":\"s\"}")
          .value());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->samples, 10u);
  EXPECT_EQ(decoded->seed, 42u);
  EXPECT_FALSE(decoded->exact);
  EXPECT_FALSE(decoded->binary);
}

// A present field of the wrong kind or outside its type's range is one
// InvalidArgument naming the field and the value, never a default or a
// wrapped value.
TEST(RequestDecodeTest, MistypedOrOutOfRangeFieldsRejected) {
  struct Case {
    const char* line;
    const char* field;
    const char* value;
  };
  const Case cases[] = {
      {R"({"op":"anonymize","input":"g","output":"o","k":"10"})", "k",
       "\"10\""},
      {R"({"op":"anonymize","input":"g","output":"o","k":10.0})", "k", "10"},
      {R"({"op":"anonymize","input":"g","output":"o","k":-10})", "k", "-10"},
      {R"({"op":"anonymize","input":"g","output":"o","k":4294967301})", "k",
       "4294967301"},
      {R"({"op":"anonymize","input":"g","output":"o","tdv":"true"})", "tdv",
       "\"true\""},
      {R"({"op":"anonymize","input":"g","output":"o","threads":4294967296})",
       "threads", "4294967296"},
      {R"({"op":"anonymize","input":7,"output":"o"})", "input", "7"},
      {R"({"op":"anonymize","input":"g","output":"o","exclude_hubs":"0.1"})",
       "exclude_hubs", "\"0.1\""},
      {R"({"op":"audit","input":"g","k":-5})", "k", "-5"},
      {R"({"op":"audit","input":"g","tdv":1})", "tdv", "1"},
      {R"({"op":"audit","input":"g","threads":"2"})", "threads", "\"2\""},
      {R"({"op":"sample","release":"r","output_prefix":"s","samples":-1})",
       "samples", "-1"},
      {R"({"op":"sample","release":"r","output_prefix":"s","seed":1.5})",
       "seed", "1.5"},
      {R"({"op":"sample","release":"r","output_prefix":"s","exact":"yes"})",
       "exact", "\"yes\""},
      {R"({"op":"attack","input":"g","sybils":4294967300})", "sybils",
       "4294967300"},
      {R"({"op":"attack","input":"g","max_ell":false})", "max_ell", "false"},
      {R"({"op":"reanonymize","session":"s","k":4294967298})", "k",
       "4294967298"},
      {R"({"op":"reanonymize","session":"s","binary":"false"})", "binary",
       "\"false\""},
      {R"({"op":"reanonymize","session":"s","threads":-1})", "threads",
       "-1"},
      {R"({"op":"mutate","session":3,"edits":"add 0 1"})", "session", "3"},
  };
  for (const Case& c : cases) {
    const WireObject object = ParseWireLine(c.line).value();
    const std::string op = object.GetString("op");
    Status status;
    if (op == "anonymize") {
      status = AnonymizeRequestFromWire(object).status();
    } else if (op == "audit") {
      status = AuditRequestFromWire(object).status();
    } else if (op == "sample") {
      status = SampleRequestFromWire(object).status();
    } else if (op == "attack") {
      status = AttackRequestFromWire(object).status();
    } else if (op == "reanonymize") {
      status = ReanonymizeRequestFromWire(object).status();
    } else {
      status = MutateRequestFromWire(object).status();
    }
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.line;
    const std::string message = status.message();
    EXPECT_NE(message.find(std::string("\"") + c.field + "\""),
              std::string::npos)
        << c.line << ": " << message;
    EXPECT_NE(message.find(std::string("got ")), std::string::npos)
        << c.line << ": " << message;
    EXPECT_NE(message.find(c.value, message.find("got ")), std::string::npos)
        << c.line << ": " << message;
  }
}

TEST(RequestDecodeTest, InRangeFieldsDecode) {
  const auto anonymize = AnonymizeRequestFromWire(
      ParseWireLine(R"({"op":"anonymize","input":"g","output":"o",)"
                    R"("k":4294967295,"exclude_hubs":0,"threads":4,)"
                    R"("output_shards":3,"minimal":true})")
          .value());
  ASSERT_TRUE(anonymize.ok()) << anonymize.status().ToString();
  EXPECT_EQ(anonymize->k, 4294967295u);
  EXPECT_EQ(anonymize->exclude_hubs, 0.0);
  EXPECT_EQ(anonymize->threads, 4u);
  EXPECT_EQ(anonymize->output_shards, 3u);
  EXPECT_TRUE(anonymize->minimal);
  EXPECT_FALSE(anonymize->tdv);

  const auto sample = SampleRequestFromWire(
      ParseWireLine(R"({"op":"sample","release":"r","output_prefix":"s",)"
                    R"("seed":18446744073709551615})")
          .value());
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  EXPECT_EQ(sample->seed, 18446744073709551615u);

  const auto reanonymize = ReanonymizeRequestFromWire(
      ParseWireLine(R"({"op":"reanonymize","session":"s","k":7,)"
                    R"("binary":true,"threads":4})")
          .value());
  ASSERT_TRUE(reanonymize.ok()) << reanonymize.status().ToString();
  EXPECT_EQ(reanonymize->k, 7u);
  EXPECT_TRUE(reanonymize->binary);
}

// ---------------------------------------------------------------------------
// Request API: cache transparency and the dynamic ops
// ---------------------------------------------------------------------------

TEST(ApiTest, AuditReportIdenticalWithAndWithoutCache) {
  AuditRequest request;
  request.input = WriteTestCsr("api_audit.ksymcsr", MakePetersen());
  request.k = 3;

  const auto uncached = RunAudit(request, nullptr);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();

  GraphCache cache(size_t{1} << 20);
  const auto cold = RunAudit(request, &cache);
  ASSERT_TRUE(cold.ok());
  const auto warm = RunAudit(request, &cache);
  ASSERT_TRUE(warm.ok());

  // The report channel is byte-stable across load paths; only the log
  // (timings, cache state) may differ.
  EXPECT_EQ(uncached->report, cold->report);
  EXPECT_EQ(uncached->report, warm->report);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(ApiTest, TextInputBypassesCache) {
  AuditRequest request;
  request.input = WriteTestEdges("api_text.edges");
  request.k = 2;
  GraphCache cache(size_t{1} << 20);
  const auto response = RunAudit(request, &cache);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(cache.stats().bypasses, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(ApiTest, ErrorsSurfaceAsStatuses) {
  AuditRequest audit;
  audit.input = TempPath("missing_input.edges");
  EXPECT_FALSE(RunAudit(audit).ok());

  SampleRequest sample;  // Missing release/prefix.
  EXPECT_FALSE(RunSample(sample).ok());
}

TEST(ApiTest, FailedCreatingMutateRegistersNoSession) {
  const std::string input = WriteTestCsr("dyn_create.ksymcsr", MakePetersen());
  DynamicState state;
  MutateRequest request;
  request.session = "s";
  request.input = input;

  request.edits = "add 0 0";  // Parses, but a self-loop fails validation.
  const auto invalid = RunMutate(request, &state);
  ASSERT_FALSE(invalid.ok());
  EXPECT_NE(invalid.status().ToString().find("self-loop"), std::string::npos);
  EXPECT_EQ(state.registry.num_sessions(), 0u);

  request.edits = "add 0";  // Does not parse.
  EXPECT_FALSE(RunMutate(request, &state).ok());
  EXPECT_EQ(state.registry.num_sessions(), 0u);

  request.edits = "add 0 2";  // Not a Petersen edge.
  const auto retry = RunMutate(request, &state);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->report,
            "created session s: 10 vertices, 15 edges\n"
            "staged 1 edits (total staged 1)\n");
  EXPECT_EQ(state.registry.num_sessions(), 1u);
}

TEST(ApiTest, OutOfRangeExcludeHubsIsRejectedAndWritesNothing) {
  // A fraction outside [0, 1) would exclude every orbit (>= 1) or be
  // ignored (< 0, non-finite), and the release would go out unprotected.
  Rng rng(60);
  const Graph graph = BarabasiAlbert(60, 2, rng);
  const std::string edges = TempPath("hubs_in.edges");
  ASSERT_TRUE(WriteEdgeListFile(graph, edges).ok());
  PartitionOptions split;
  split.num_shards = 2;
  const std::string prefix = TempPath("hubs_sharded_in");
  ASSERT_TRUE(Partitioner::Split(graph, {}, split, prefix).ok());

  for (const std::string& input : {edges, prefix + ".manifest"}) {
    AnonymizeRequest request;
    request.input = input;
    request.k = 3;
    request.tdv = true;
    request.output = TempPath("hubs_rejected");
    const std::string written[] = {request.output,
                                   request.output + ".manifest",
                                   request.output + ".0.ksymcsr"};
    for (const double bad : {1.5, 1.0, -0.5, 1e300, std::nan("")}) {
      for (const std::string& path : written) std::filesystem::remove(path);
      request.exclude_hubs = bad;
      const auto response = RunAnonymize(request);
      ASSERT_FALSE(response.ok()) << input << " exclude_hubs=" << bad;
      EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
          << response.status().ToString();
      EXPECT_NE(response.status().ToString().find("exclude"),
                std::string::npos)
          << response.status().ToString();
      for (const std::string& path : written) {
        EXPECT_FALSE(std::filesystem::exists(path)) << path;
      }
    }
    for (const double good : {0.0, 0.05}) {
      request.exclude_hubs = good;
      request.output = TempPath("hubs_accepted");
      const auto response = RunAnonymize(request);
      EXPECT_TRUE(response.ok())
          << input << " exclude_hubs=" << good << ": "
          << response.status().ToString();
    }
  }
}

TEST(ApiTest, OversizedCountsAreRejectedAndWriteNothing) {
  // Each count would size the work with no bound: a trillion sample graphs,
  // four billion adjacency measures, four billion label-propagation rounds.
  SampleRequest sample;
  sample.release = WriteTestRelease("api_counts_rel");
  sample.output_prefix = TempPath("api_counts_s");
  sample.samples = 1000000000000;
  const std::string first = sample.output_prefix + ".0.edges";
  std::filesystem::remove(first);
  const auto sampled = RunSample(sample);
  ASSERT_FALSE(sampled.ok());
  EXPECT_EQ(sampled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sampled.status().message(),
            "--samples 1000000000000 exceeds the cap of 1000");
  EXPECT_FALSE(std::filesystem::exists(first));

  AttackRequest attack;
  attack.input = WriteTestEdges("api_counts.edges");
  attack.max_ell = 4000000000;
  const auto ell = RunAttack(attack);
  ASSERT_FALSE(ell.ok());
  EXPECT_EQ(ell.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ell.status().message(),
            "--max-ell 4000000000 exceeds the cap of 64");
  attack.max_ell = 3;
  attack.community_iters = 4000000000;
  const auto rounds = RunAttack(attack);
  ASSERT_FALSE(rounds.ok());
  EXPECT_EQ(rounds.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rounds.status().message(),
            "--community-iters 4000000000 exceeds the cap of 100");
  attack.max_ell = 64;  // The caps themselves are accepted.
  attack.community_iters = 100;
  const auto capped = RunAttack(attack);
  EXPECT_TRUE(capped.ok()) << capped.status().ToString();
}

TEST(ApiTest, ConcurrentShardedRequestsShareOneCachedSet) {
  Rng rng(17);
  const Graph graph = BarabasiAlbert(300, 3, rng);
  PartitionOptions split;
  split.num_shards = 3;
  const std::string prefix = TempPath("api_sharded_in");
  ASSERT_TRUE(Partitioner::Split(graph, {}, split, prefix).ok());

  // The in-memory --binary release both sharded runs must reproduce.
  AnonymizeRequest reference;
  reference.input = WriteTestCsr("api_sharded.ksymcsr", graph);
  reference.output = TempPath("api_sharded_ref.ksymcsr");
  reference.k = 3;
  reference.tdv = true;
  reference.binary = true;
  const auto reference_response = RunAnonymize(reference);
  ASSERT_TRUE(reference_response.ok())
      << reference_response.status().ToString();
  const std::string expected = ReadFileBytes(reference.output);

  // Two requests on one manifest through one cache, at the same time: the
  // cached set is immutable, so neither waits for the other.
  GraphCache cache(size_t{1} << 30);
  const std::string outputs[2] = {TempPath("api_sharded_out0"),
                                  TempPath("api_sharded_out1")};
  Status statuses[2];
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      AnonymizeRequest request = reference;
      request.input = prefix + ".manifest";
      request.output = outputs[i];
      statuses[i] = RunAnonymize(request, &cache).status();
    });
  }
  for (std::thread& thread : threads) thread.join();

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.hits + stats.misses, 2u);
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(statuses[i].ok()) << statuses[i].ToString();
    const auto merged = MergeShards(outputs[i] + ".manifest");
    ASSERT_TRUE(merged.ok()) << merged.status().ToString();
    const std::string merged_path = outputs[i] + ".merged.ksymcsr";
    ASSERT_TRUE(WriteCsrFile(*merged, merged_path).ok());
    EXPECT_EQ(ReadFileBytes(merged_path), expected) << "request " << i;
  }
}

// ---------------------------------------------------------------------------
// ArgParser
// ---------------------------------------------------------------------------

std::vector<char*> Argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  return argv;
}

TEST(ArgParserTest, ParsesTypedFlags) {
  std::string input;
  uint32_t k = 5;
  uint64_t seed = 0;
  size_t bytes = 0;
  double rate = 0.0;
  bool tdv = false;
  ksym_tools::ArgParser parser("usage: test");
  parser.String("--input", &input, "in");
  parser.U32("--k", &k, "k");
  parser.U64("--seed", &seed, "seed");
  parser.Size("--bytes", &bytes, "bytes");
  parser.F64("--rate", &rate, "rate");
  parser.Flag("--tdv", &tdv, "tdv");

  std::vector<std::string> args = {"tool",   "--input", "g.edges", "--k",
                                   "3",      "--seed",  "99",      "--bytes",
                                   "4096",   "--rate",  "0.25",    "--tdv"};
  auto argv = Argv(args);
  parser.ParseOrExit(static_cast<int>(argv.size()), argv.data());
  EXPECT_EQ(input, "g.edges");
  EXPECT_EQ(k, 3u);
  EXPECT_EQ(seed, 99u);
  EXPECT_EQ(bytes, 4096u);
  EXPECT_EQ(rate, 0.25);
  EXPECT_TRUE(tdv);
}

TEST(ArgParserDeathTest, UnknownFlagExitsTwo) {
  std::vector<std::string> args = {"tool", "--bogus"};
  auto argv = Argv(args);
  ksym_tools::ArgParser parser("usage: test");
  EXPECT_EXIT(parser.ParseOrExit(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "unknown flag '--bogus'");
}

TEST(ArgParserDeathTest, MissingValueExitsTwo) {
  std::vector<std::string> args = {"tool", "--k"};
  auto argv = Argv(args);
  uint32_t k = 0;
  ksym_tools::ArgParser parser("usage: test");
  parser.U32("--k", &k, "k");
  EXPECT_EXIT(parser.ParseOrExit(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "expects a value");
}

TEST(ArgParserDeathTest, BadValueExitsTwo) {
  std::vector<std::string> args = {"tool", "--k", "banana"};
  auto argv = Argv(args);
  uint32_t k = 0;
  ksym_tools::ArgParser parser("usage: test");
  parser.U32("--k", &k, "k");
  EXPECT_EXIT(parser.ParseOrExit(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(2), "bad value 'banana'");
}

TEST(ArgParserDeathTest, HelpExitsZero) {
  std::vector<std::string> args = {"tool", "--help"};
  auto argv = Argv(args);
  ksym_tools::ArgParser parser("usage: test");
  EXPECT_EXIT(parser.ParseOrExit(static_cast<int>(argv.size()), argv.data()),
              testing::ExitedWithCode(0), "");
}

TEST(ArgParserDeathTest, FailUsageExitsTwo) {
  ksym_tools::ArgParser parser("usage: test");
  EXPECT_EXIT(parser.FailUsage("--input is required"),
              testing::ExitedWithCode(2), "--input is required");
}
TEST(ApiTest, ThreadCountsPastTheCapAreRejectedBeforeAnyWork) {
  // Each --threads worker is an OS thread. The check runs before the
  // release or graph is loaded, so this test starts no threads.
  SampleRequest sample;
  sample.release = WriteTestRelease("api_threads_rel");
  sample.output_prefix = TempPath("api_threads_s");
  sample.threads = 257;
  const std::string first = sample.output_prefix + ".0.edges";
  std::filesystem::remove(first);
  const auto sampled = RunSample(sample);
  ASSERT_FALSE(sampled.ok());
  EXPECT_EQ(sampled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(sampled.status().message(),
            "--threads 257 exceeds the cap of 256");
  EXPECT_FALSE(std::filesystem::exists(first));

  AttackRequest attack;
  attack.input = WriteTestEdges("api_threads.edges");
  attack.threads = 257;
  const auto attacked = RunAttack(attack);
  ASSERT_FALSE(attacked.ok());
  EXPECT_EQ(attacked.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(attacked.status().message(),
            "--threads 257 exceeds the cap of 256");
}

// ---------------------------------------------------------------------------
// Server end to end
// ---------------------------------------------------------------------------

ServerOptions BaseOptions(const std::string& socket_name) {
  ServerOptions options;
  options.socket_path = TempPath(socket_name);
  options.thread_budget = 2;
  return options;
}

TEST(ServerTest, ReleaseBeyondVertexIdsIsRejectedAndWritesNothing) {
  // k = 2^31 on a 3-vertex path: 2^32 released vertices. The CLI and the
  // daemon both run RunAnonymize.
  const Graph path = MakePath(3);
  const std::string edges = TempPath("ids_in.edges");
  ASSERT_TRUE(WriteEdgeListFile(path, edges).ok());
  PartitionOptions split;
  split.num_shards = 2;
  const std::string prefix = TempPath("ids_sharded_in");
  ASSERT_TRUE(Partitioner::Split(path, {}, split, prefix).ok());
  const std::pair<std::string, bool> runs[] = {
      {edges, false}, {edges, true}, {prefix + ".manifest", false}};
  for (const auto& [input, minimal] : runs) {
    AnonymizeRequest request;
    request.input = input;
    request.output = TempPath("ids_rejected");
    request.k = 1u << 31;
    request.tdv = true;
    request.minimal = minimal;
    std::filesystem::remove(request.output);
    std::filesystem::remove(request.output + ".manifest");
    const auto response = RunAnonymize(request);
    ASSERT_FALSE(response.ok()) << input;
    EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument)
        << response.status().ToString();
    EXPECT_NE(response.status().message().find("4294967296"),
              std::string::npos)
        << response.status().ToString();
    EXPECT_FALSE(std::filesystem::exists(request.output));
    EXPECT_FALSE(std::filesystem::exists(request.output + ".manifest"));
  }

  Server server(BaseOptions("srv_ids.sock"));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());
  const auto response = ParseWireLine(client.RoundTrip(
      "{\"op\":\"anonymize\",\"input\":\"" + edges +
      "\",\"output\":\"" + TempPath("ids_daemon") +
      "\",\"k\":2147483648}"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status"), "error");
  EXPECT_NE(response->GetString("error").find("4294967296"),
            std::string::npos)
      << response->GetString("error");
  server.Stop();
}

TEST(ServerTest, OversizedCountsAnswerErrorsAndTheDaemonServesOn) {
  // Each would abort the daemon on an uncaught bad_alloc or hold a worker
  // for hours; the deadline only covers the queue.
  const std::string release = WriteTestRelease("srv_counts_rel");
  const std::string input = WriteTestEdges("srv_counts.edges");
  const std::pair<std::string, std::string> requests[] = {
      {"{\"op\":\"sample\",\"release\":\"" + release +
           "\",\"output_prefix\":\"" + TempPath("srv_counts_s") +
           "\",\"samples\":1000000000000}",
       "--samples 1000000000000 exceeds the cap of 1000"},
      {"{\"op\":\"attack\",\"input\":\"" + input +
           "\",\"max_ell\":4000000000}",
       "--max-ell 4000000000 exceeds the cap of 64"},
      {"{\"op\":\"attack\",\"input\":\"" + input +
           "\",\"community_iters\":4000000000}",
       "--community-iters 4000000000 exceeds the cap of 100"},
  };
  Server server(BaseOptions("srv_counts.sock"));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());
  for (const auto& [line, error] : requests) {
    const auto response = ParseWireLine(client.RoundTrip(line));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->GetString("status"), "error") << line;
    EXPECT_NE(response->GetString("error").find(error), std::string::npos)
        << response->GetString("error");
  }
  EXPECT_FALSE(
      std::filesystem::exists(TempPath("srv_counts_s") + ".0.edges"));
  const auto stats = ParseWireLine(client.RoundTrip("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetString("status"), "ok");
  EXPECT_EQ(server.stats().failed, 3u);
  server.Stop();
}

TEST(ServerTest, OversizedTextReleaseAnswersAnErrorAndTheDaemonServesOn) {
  // A text release is read on the request's path (a cache bypass). Its
  // declared vertex count must be bounded before anything is allocated
  // for it: a bad_alloc on a worker would end the daemon.
  const std::string release = TempPath("srv_oversized.ksym");
  WriteFileBytes(release,
                 "# ksym-release 1\noriginal 2\nvertices 1000000000000000\n"
                 "edge 0 1\ncell 0 1\n");
  Server server(BaseOptions("srv_oversized.sock"));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());
  const auto response = ParseWireLine(client.RoundTrip(
      "{\"op\":\"sample\",\"release\":\"" + release +
      "\",\"output_prefix\":\"" + TempPath("srv_oversized_s") + "\"}"));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->GetString("status"), "error");
  EXPECT_NE(response->GetString("error").find(
                "line 3: bad vertices (at most 4294967295)"),
            std::string::npos)
      << response->GetString("error");
  const auto stats = ParseWireLine(client.RoundTrip("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetString("status"), "ok");
  server.Stop();
}

TEST(ServerTest, AuditMatchesCliByteForByteAndCaches) {
  AuditRequest request;
  request.input = WriteTestCsr("srv_audit.ksymcsr", MakePetersen());
  request.k = 3;
  const auto cli = RunAudit(request, nullptr);
  ASSERT_TRUE(cli.ok()) << cli.status().ToString();

  Server server(BaseOptions("srv_audit.sock"));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());

  const std::string line = "{\"op\":\"audit\",\"input\":\"" + request.input +
                           "\",\"k\":3}";
  for (int round = 0; round < 2; ++round) {
    const auto response = ParseWireLine(client.RoundTrip(line));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->GetString("status"), "ok");
    // The daemon's report is the CLI's stdout, byte for byte.
    EXPECT_EQ(response->GetString("report"), cli->report);
  }
  EXPECT_EQ(server.cache().stats().hits, 1u);
  EXPECT_EQ(server.cache().stats().misses, 1u);

  // Stats op reports the same through the wire.
  const auto stats = ParseWireLine(client.RoundTrip("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  const std::string report = stats->GetString("report");
  EXPECT_NE(report.find("completed: 2\n"), std::string::npos) << report;
  EXPECT_NE(report.find("graph_cache_hits: 1\n"), std::string::npos)
      << report;
  EXPECT_NE(report.find("dynamic_sessions: 0\n"), std::string::npos)
      << report;
  server.Stop();
}

TEST(ServerTest, BadLinesAnswerErrorsAndCountParseErrors) {
  Server server(BaseOptions("srv_err.sock"));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());

  const auto garbage = ParseWireLine(client.RoundTrip("not json at all"));
  ASSERT_TRUE(garbage.ok());
  EXPECT_EQ(garbage->GetString("status"), "error");

  const auto unknown_op =
      ParseWireLine(client.RoundTrip("{\"op\":\"explode\"}"));
  ASSERT_TRUE(unknown_op.ok());
  EXPECT_EQ(unknown_op->GetString("status"), "error");
  EXPECT_NE(unknown_op->GetString("error").find("unknown op"),
            std::string::npos);

  const auto bad_field = ParseWireLine(
      client.RoundTrip("{\"op\":\"audit\",\"input\":\"g\",\"zz\":1}"));
  ASSERT_TRUE(bad_field.ok());
  EXPECT_EQ(bad_field->GetString("status"), "error");

  // A request naming a missing file is accepted, then fails in execution.
  const auto missing = ParseWireLine(client.RoundTrip(
      "{\"op\":\"audit\",\"input\":\"" + TempPath("gone.ksymcsr") + "\"}"));
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->GetString("status"), "error");

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.parse_errors, 3u);
  EXPECT_EQ(stats.failed, 1u);
  server.Stop();
}

// A client that never sends a newline gets one error once its pending
// line passes the cap, then EOF; the daemon keeps serving everyone else.
TEST(ServerTest, OverlongLineIsRejectedAndTheConnectionClosed) {
  Server server(BaseOptions("srv_overlong.sock"));
  ASSERT_TRUE(server.Start().ok());
  {
    TestClient client(server.options().socket_path);
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.SendRaw(std::string(kMaxRequestLineBytes + 1, 'x')));
    const auto response = ParseWireLine(client.RecvLine());
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->GetString("status"), "error");
    EXPECT_NE(response->GetString("error").find("without a newline"),
              std::string::npos)
        << response->GetString("error");
    EXPECT_EQ(client.RecvLine(), "");  // Closed.
  }
  TestClient second(server.options().socket_path);
  ASSERT_TRUE(second.connected());
  const auto stats = ParseWireLine(second.RoundTrip("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->GetString("status"), "ok");
  EXPECT_EQ(server.stats().parse_errors, 1u);
  server.Stop();
}

TEST(ServerTest, IdIsEchoedFirst) {
  Server server(BaseOptions("srv_id.sock"));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());
  const std::string response =
      client.RoundTrip("{\"id\":\"req-17\",\"op\":\"stats\"}");
  EXPECT_EQ(response.rfind("{\"id\":\"req-17\",\"status\":\"ok\"", 0), 0u)
      << response;
  server.Stop();
}

TEST(ServerTest, FullQueueRejectsBusy) {
  ServerOptions options = BaseOptions("srv_busy.sock");
  options.thread_budget = 1;
  options.max_queue = 1;
  options.retry_after_ms = 250;
  options.start_paused = true;  // Park the worker so the queue stays full.
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  TestClient first(server.options().socket_path);
  ASSERT_TRUE(first.connected());
  std::string first_response;
  std::thread blocked([&] {
    first_response = first.RoundTrip("{\"op\":\"sleep\",\"ms\":0}");
  });
  while (server.stats().accepted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The queue now holds one job and nobody is draining: next arrival
  // bounces with the configured retry hint.
  TestClient second(server.options().socket_path);
  ASSERT_TRUE(second.connected());
  const auto busy =
      ParseWireLine(second.RoundTrip("{\"op\":\"sleep\",\"ms\":0}"));
  ASSERT_TRUE(busy.ok());
  EXPECT_EQ(busy->GetString("status"), "busy");
  EXPECT_EQ(busy->GetUint("retry_after_ms"), 250u);

  server.Resume();
  blocked.join();
  const auto ok = ParseWireLine(first_response);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString("status"), "ok");
  EXPECT_EQ(server.stats().rejected_busy, 1u);
  server.Stop();
}

TEST(ServerTest, QueuedDeadlineExpires) {
  ServerOptions options = BaseOptions("srv_deadline.sock");
  options.start_paused = true;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());
  std::string response_line;
  std::thread waiting([&] {
    response_line =
        client.RoundTrip("{\"op\":\"sleep\",\"ms\":0,\"deadline_ms\":1}");
  });
  while (server.stats().accepted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Let the deadline lapse while the job sits in the paused queue.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.Resume();
  waiting.join();

  const auto response = ParseWireLine(response_line);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->GetString("status"), "error");
  EXPECT_NE(response->GetString("error").find("deadline expired"),
            std::string::npos);
  EXPECT_EQ(server.stats().deadline_expired, 1u);
  server.Stop();
}

// The framing keys "deadline_ms" and the sleep op's "ms" follow the
// request fields' rule: an integer in [0, 4294967295], else one counted
// InvalidArgument naming the key, and nothing is queued.
TEST(ServerTest, MistypedDeadlineAndSleepMsAreRejected) {
  Server server(BaseOptions("srv_framing.sock"));
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());

  uint64_t parse_errors = 0;
  for (const char* key : {"deadline_ms", "ms"}) {
    for (const char* bad : {"\"5000\"", "-1", "5000.0", "4294967296"}) {
      const std::string line =
          std::string("{\"op\":\"sleep\",") +
          (std::string(key) == "ms" ? "" : "\"ms\":0,") + "\"" + key +
          "\":" + bad + "}";
      const auto response = ParseWireLine(client.RoundTrip(line));
      ASSERT_TRUE(response.ok()) << line;
      EXPECT_EQ(response->GetString("status"), "error") << line;
      const std::string error = response->GetString("error");
      EXPECT_EQ(error.rfind("InvalidArgument", 0), 0u) << line << ": " << error;
      EXPECT_NE(error.find(std::string("\"") + key + "\""), std::string::npos)
          << line << ": " << error;
      EXPECT_EQ(server.stats().parse_errors, ++parse_errors) << line;
    }
  }
  EXPECT_EQ(server.stats().accepted, 0u);

  const auto ok = ParseWireLine(
      client.RoundTrip("{\"op\":\"sleep\",\"ms\":1,\"deadline_ms\":5000}"));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->GetString("status"), "ok") << ok->GetString("error");
  EXPECT_EQ(ok->GetString("report"), "slept 1 ms\n");
  EXPECT_EQ(server.stats().completed, 1u);
  EXPECT_EQ(server.stats().parse_errors, parse_errors);
  server.Stop();
}

// An op without a parallel loop holds one budget token whatever `threads`
// it asks for, so on a budget-2 daemon it runs beside another job instead
// of waiting for the whole budget.
TEST(ServerTest, SingleThreadedOpTakesOneTokenBesideASleep) {
  const std::string input = WriteTestCsr("srv_token.ksymcsr", MakePetersen());
  Server server(BaseOptions("srv_token.sock"));  // Budget 2.
  ASSERT_TRUE(server.Start().ok());

  TestClient sleeper(server.options().socket_path);
  ASSERT_TRUE(sleeper.connected());
  std::string sleep_response;
  std::thread sleeping([&] {
    sleep_response = sleeper.RoundTrip("{\"op\":\"sleep\",\"ms\":2000}");
  });
  while (server.stats().running_threads < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());
  const auto anonymize = ParseWireLine(client.RoundTrip(
      "{\"op\":\"anonymize\",\"input\":\"" + input + "\",\"output\":\"" +
      TempPath("srv_token.ksymcsr.out") +
      "\",\"k\":2,\"binary\":true,\"threads\":2}"));
  ASSERT_TRUE(anonymize.ok());
  EXPECT_EQ(anonymize->GetString("status"), "ok")
      << anonymize->GetString("error");
  // The sleep is still running: only the anonymize has completed.
  EXPECT_EQ(server.stats().completed, 1u);
  sleeping.join();
  EXPECT_EQ(server.stats().completed, 2u);
  EXPECT_EQ(ParseWireLine(sleep_response)->GetString("status"), "ok");
  server.Stop();
}

TEST(ServerTest, ConcurrentSamplesMatchSoloBytes) {
  const std::string release = WriteTestRelease("srv_conc_rel");

  // Solo reference runs (no daemon).
  SampleRequest r0;
  r0.release = release;
  r0.samples = 2;
  r0.seed = 5;
  r0.output_prefix = TempPath("srv_solo0");
  SampleRequest r1 = r0;
  r1.seed = 6;
  r1.output_prefix = TempPath("srv_solo1");
  ASSERT_TRUE(RunSample(r0).ok());
  ASSERT_TRUE(RunSample(r1).ok());

  // One parked worker: both requests are queued before either runs.
  ServerOptions options = BaseOptions("srv_conc.sock");
  options.thread_budget = 1;
  options.start_paused = true;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  const auto request_line = [&](uint64_t seed, const std::string& prefix) {
    return "{\"op\":\"sample\",\"release\":\"" + release +
           "\",\"output_prefix\":\"" + prefix +
           "\",\"samples\":2,\"seed\":" + std::to_string(seed) + "}";
  };
  TestClient c0(server.options().socket_path);
  TestClient c1(server.options().socket_path);
  ASSERT_TRUE(c0.connected());
  ASSERT_TRUE(c1.connected());
  std::string l0, l1;
  std::thread t0(
      [&] { l0 = c0.RoundTrip(request_line(5, TempPath("srv_conc0"))); });
  std::thread t1(
      [&] { l1 = c1.RoundTrip(request_line(6, TempPath("srv_conc1"))); });
  while (server.stats().accepted < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.Resume();
  t0.join();
  t1.join();

  const auto p0 = ParseWireLine(l0);
  const auto p1 = ParseWireLine(l1);
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(p0->GetString("status"), "ok") << p0->GetString("error");
  EXPECT_EQ(p1->GetString("status"), "ok") << p1->GetString("error");
  EXPECT_EQ(server.stats().completed, 2u);

  // Daemon outputs == solo CLI outputs, byte for byte.
  for (int i = 0; i < 2; ++i) {
    const std::string suffix = "." + std::to_string(i) + ".edges";
    EXPECT_EQ(ReadFileBytes(TempPath("srv_solo0") + suffix),
              ReadFileBytes(TempPath("srv_conc0") + suffix));
    EXPECT_EQ(ReadFileBytes(TempPath("srv_solo1") + suffix),
              ReadFileBytes(TempPath("srv_conc1") + suffix));
  }
  server.Stop();
}

TEST(ServerTest, StopWithQueuedWorkDrainsCleanly) {
  ServerOptions options = BaseOptions("srv_stop.sock");
  options.start_paused = true;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  TestClient client(server.options().socket_path);
  ASSERT_TRUE(client.connected());
  std::string response_line;
  std::thread waiting(
      [&] { response_line = client.RoundTrip("{\"op\":\"sleep\",\"ms\":0}"); });
  while (server.stats().accepted < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Stop() without Resume(): workers drain the queue before exiting, so the
  // blocked client is released (not deadlocked). Delivery of the response
  // races connection teardown — if a line did arrive, it must be the ok.
  server.Stop();
  waiting.join();
  EXPECT_EQ(server.stats().completed, 1u);
  if (!response_line.empty()) {
    const auto response = ParseWireLine(response_line);
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response->GetString("status"), "ok");
  }
}

}  // namespace
}  // namespace serve
}  // namespace ksym
