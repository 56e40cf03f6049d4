// Typed request/response layer shared by ksym_serve and the one-shot CLIs.
//
// Each request struct mirrors one tool's flags exactly; a CLI is a thin
// adapter that parses argv into the struct and calls the Run* function, and
// the daemon parses the same struct off a wire line. Both paths execute
// identical code, which is what makes the service's responses
// byte-comparable to the CLIs' output (the CI smoke test diffs them).
//
// Responses split their text into two channels:
//   * `report` — deterministic facts (counts, verdicts, tables). The CLIs
//     print it to stdout; the daemon returns it in the "report" field.
//     Byte-identical across runs, thread counts, and cache states.
//   * `log`   — timings, load modes, residency. CLIs print it to stderr;
//     the daemon returns it in "log". Never compared.
//
// Every Run* takes an optional GraphCache: the daemon passes its shared
// cache (binary inputs are keyed by header checksum and served from memory
// on repeat requests), the CLIs pass nullptr and load from disk.

#ifndef KSYM_SERVE_API_H_
#define KSYM_SERVE_API_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <variant>
#include <vector>

#include "common/status.h"
#include "serve/cache.h"
#include "serve/wire.h"

namespace ksym {
namespace serve {

/// Mirrors ksym_anonymize: text/binary/manifest input by magic, release
/// triple (or binary CSR, or shard set) out.
struct AnonymizeRequest {
  std::string input;
  std::string output;
  uint32_t k = 2;
  double exclude_hubs = 0.0;
  bool minimal = false;
  bool tdv = false;
  bool binary = false;
  uint32_t threads = 1;
  size_t resident_bytes = 0;   // Ignored: a shard set is mapped whole.
  uint32_t output_shards = 0;  // Sharded input: output shard count.
};

/// Mirrors ksym_audit.
struct AuditRequest {
  std::string input;
  uint32_t k = 5;
  bool tdv = false;
  uint32_t threads = 1;
};

/// Mirrors ksym_sample.
struct SampleRequest {
  std::string release;
  std::string output_prefix;
  uint64_t samples = 10;
  bool exact = false;
  uint64_t seed = 42;
  uint32_t threads = 1;
  bool binary = false;
};

/// Mirrors ksym_attack: end-to-end adversary benchmark. Plants a sybil
/// subgraph into the input, anonymizes the augmented graph to k, then runs
/// every adversary model (sybil recovery, (k,ℓ)-adjacency sweep, community
/// signatures) against both the naive and the anonymized release.
struct AttackRequest {
  std::string input;
  uint32_t k = 2;
  bool tdv = false;
  uint32_t sybils = 4;
  uint32_t targets = 3;
  uint64_t seed = 1;
  uint32_t max_ell = 3;
  uint32_t community_iters = 4;
  uint32_t threads = 1;
};

struct Response {
  std::string report;
  std::string log;
};

Result<Response> RunAnonymize(const AnonymizeRequest& request,
                              GraphCache* cache = nullptr);
Result<Response> RunAudit(const AuditRequest& request,
                          GraphCache* cache = nullptr);
Result<Response> RunSample(const SampleRequest& request,
                           GraphCache* cache = nullptr);
Result<Response> RunAttack(const AttackRequest& request,
                           GraphCache* cache = nullptr);

// ---------------------------------------------------------------------------
// Wire decoding (daemon side). Unknown keys, values of the wrong kind and
// values outside the field's range are rejected — a typo'd or overflowing
// flag must not silently become a default or wrap.
// ---------------------------------------------------------------------------

/// One request field: its key and the request member it decodes into.
struct WireField {
  const char* key;
  std::variant<std::string*, bool*, double*, uint32_t*, uint64_t*> out;
};

/// Decodes `fields` from `object`. A key outside them (and outside the
/// framing keys every request may carry: "op", "id", "deadline_ms"), or a
/// value not of the member's kind and range (a number for a double, a
/// non-negative integer that fits for an unsigned), is one InvalidArgument
/// naming the field and the value. Absent fields keep their defaults.
Status DecodeFields(const WireObject& object,
                    std::initializer_list<WireField> fields);

Result<AnonymizeRequest> AnonymizeRequestFromWire(const WireObject& object);
Result<AuditRequest> AuditRequestFromWire(const WireObject& object);
Result<SampleRequest> SampleRequestFromWire(const WireObject& object);
Result<AttackRequest> AttackRequestFromWire(const WireObject& object);

}  // namespace serve
}  // namespace ksym

#endif  // KSYM_SERVE_API_H_
