// Wire framing for ksym_serve: newline-delimited flat JSON objects.
//
// One request or response per line. An object is a single-level JSON map
// from string keys to scalar values — strings, integers, doubles, booleans
// — no nesting, no arrays, which is all the request/response structs in
// serve/api.h need and keeps the parser small enough to fuzz exhaustively.
//
//   {"op":"audit","input":"g.ksymcsr","k":3,"tdv":true}
//   {"status":"ok","report":"graph: 7 vertices, ...\n"}
//
// The parser is total: any byte sequence either parses to an object or
// yields a descriptive InvalidArgument — never UB, never a crash (pinned by
// the serve_test wire fuzz). Serialize emits deterministic output (fields
// in insertion order, minimal escapes) so responses are byte-comparable.

#ifndef KSYM_SERVE_WIRE_H_
#define KSYM_SERVE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"

namespace ksym {
namespace serve {

/// The longest request line the daemon buffers while waiting for its
/// newline (far above any real request: paths, flags and edit lists). A
/// connection whose pending line grows past it gets one error response and
/// is closed, so no client can grow daemon memory without bound.
inline constexpr size_t kMaxRequestLineBytes = size_t{16} << 20;

/// One scalar wire value. Integers keep sign information: non-negative
/// integers are kUint (full uint64 range, e.g. seeds and checksums),
/// negative ones kInt.
struct WireValue {
  enum class Kind { kString, kUint, kInt, kDouble, kBool };

  Kind kind = Kind::kString;
  std::string str;
  uint64_t u = 0;
  int64_t i = 0;
  double d = 0.0;
  bool b = false;

  static WireValue String(std::string s) {
    WireValue v;
    v.kind = Kind::kString;
    v.str = std::move(s);
    return v;
  }
  static WireValue Uint(uint64_t value) {
    WireValue v;
    v.kind = Kind::kUint;
    v.u = value;
    return v;
  }
  static WireValue Int(int64_t value) {
    WireValue v;
    v.kind = Kind::kInt;
    v.i = value;
    return v;
  }
  static WireValue Double(double value) {
    WireValue v;
    v.kind = Kind::kDouble;
    v.d = value;
    return v;
  }
  static WireValue Bool(bool value) {
    WireValue v;
    v.kind = Kind::kBool;
    v.b = value;
    return v;
  }
};

/// A flat object: insertion-ordered key/value pairs (order is part of the
/// serialized form, so responses are deterministic).
struct WireObject {
  std::vector<std::pair<std::string, WireValue>> fields;

  /// Appends, or overwrites an existing key in place.
  void Set(std::string_view key, WireValue value);

  const WireValue* Find(std::string_view key) const;
  bool Has(std::string_view key) const { return Find(key) != nullptr; }

  // Typed accessors with defaults. Numeric accessors convert between the
  // integer kinds when the value fits; mismatched kinds yield the default.
  std::string GetString(std::string_view key,
                        std::string_view fallback = "") const;
  uint64_t GetUint(std::string_view key, uint64_t fallback = 0) const;
  double GetDouble(std::string_view key, double fallback = 0.0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;
};

/// Parses one wire line (without the trailing newline; a trailing '\n' or
/// "\r\n" is tolerated). Returns InvalidArgument naming the offending byte
/// offset on any malformed input. Duplicate keys are rejected.
Result<WireObject> ParseWireLine(std::string_view line);

/// Serializes to a single line, no trailing newline. Strings are escaped
/// minimally ( \" \\ and control bytes as \n \r \t or \u00XX ).
std::string SerializeWireLine(const WireObject& object);

}  // namespace serve
}  // namespace ksym

#endif  // KSYM_SERVE_WIRE_H_
