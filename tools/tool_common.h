// Shared CLI plumbing for the ksym_* tools: one flag parser and one
// error-reporting convention.
//
// Every tool declares typed flags against an ArgParser and calls
// ParseOrExit: unknown flags, missing values, and unparseable numbers print
// the offending argument plus the usage text and exit 2; `--help` prints
// usage and flag descriptions and exits 0. Runtime failures go through
// Fail(), which prints the Status as "error: ..." and exits 1. The split
// (2 = bad invocation, 1 = the work failed) is what the shell tests key on.

#ifndef KSYM_TOOLS_TOOL_COMMON_H_
#define KSYM_TOOLS_TOOL_COMMON_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/str.h"

namespace ksym_tools {

/// Prints `status` to stderr and returns the tool's failure exit code.
/// Usage: `if (!r.ok()) return Fail(r.status());`
inline int Fail(const ksym::Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// Declarative flag parser shared by every ksym_* tool.
///
///   ArgParser parser("usage: ksym_audit --input FILE [--k K] ...");
///   parser.String("--input", &input, "graph file (text or .ksymcsr)");
///   parser.U32("--k", &k, "symmetry requirement");
///   parser.Flag("--tdv", &tdv, "use the TDV partition");
///   parser.ParseOrExit(argc, argv);
///   if (input.empty()) parser.FailUsage("--input is required");
class ArgParser {
 public:
  explicit ArgParser(std::string usage) : usage_(std::move(usage)) {}

  void String(const char* name, std::string* out, const char* help) {
    flags_.push_back({name, Kind::kString, out, help});
  }
  void U32(const char* name, uint32_t* out, const char* help) {
    flags_.push_back({name, Kind::kU32, out, help});
  }
  void U64(const char* name, uint64_t* out, const char* help) {
    flags_.push_back({name, Kind::kU64, out, help});
  }
  void Size(const char* name, size_t* out, const char* help) {
    flags_.push_back({name, Kind::kSize, out, help});
  }
  void F64(const char* name, double* out, const char* help) {
    flags_.push_back({name, Kind::kF64, out, help});
  }
  /// Presence flag: no value, sets *out = true.
  void Flag(const char* name, bool* out, const char* help) {
    flags_.push_back({name, Kind::kBool, out, help});
  }

  /// Parses argv[start..): exits 2 with a message + usage on any malformed
  /// invocation, exits 0 after printing help for --help.
  void ParseOrExit(int argc, char** argv, int start = 1) {
    for (int i = start; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        PrintHelp();
        std::exit(0);
      }
      const FlagSpec* spec = FindFlag(arg);
      if (spec == nullptr) {
        FailUsage(ksym::StrFormat("unknown flag '%s'", arg.c_str()).c_str());
      }
      if (spec->kind == Kind::kBool) {
        *static_cast<bool*>(spec->target) = true;
        continue;
      }
      if (i + 1 >= argc) {
        FailUsage(
            ksym::StrFormat("flag '%s' expects a value", arg.c_str()).c_str());
      }
      const char* value = argv[++i];
      if (!StoreValue(*spec, value)) {
        FailUsage(ksym::StrFormat("bad value '%s' for flag '%s'", value,
                                  arg.c_str())
                      .c_str());
      }
    }
  }

  /// Prints an optional message plus the usage text to stderr and exits 2 —
  /// the bad-invocation path (also for post-parse validation in the tools).
  [[noreturn]] void FailUsage(const char* message = nullptr) const {
    if (message != nullptr) std::fprintf(stderr, "error: %s\n", message);
    std::fprintf(stderr, "%s\n", usage_.c_str());
    std::exit(2);
  }

 private:
  enum class Kind { kString, kU32, kU64, kSize, kF64, kBool };

  struct FlagSpec {
    const char* name;
    Kind kind;
    void* target;
    const char* help;
  };

  const FlagSpec* FindFlag(const std::string& arg) const {
    for (const FlagSpec& spec : flags_) {
      if (arg == spec.name) return &spec;
    }
    return nullptr;
  }

  static bool StoreValue(const FlagSpec& spec, const char* value) {
    switch (spec.kind) {
      case Kind::kString:
        *static_cast<std::string*>(spec.target) = value;
        return true;
      case Kind::kU32: {
        uint64_t parsed = 0;
        if (!ksym::ParseUint64(value, &parsed) || parsed > UINT32_MAX) {
          return false;
        }
        *static_cast<uint32_t*>(spec.target) =
            static_cast<uint32_t>(parsed);
        return true;
      }
      case Kind::kU64: {
        return ksym::ParseUint64(value,
                                 static_cast<uint64_t*>(spec.target));
      }
      case Kind::kSize: {
        uint64_t parsed = 0;
        if (!ksym::ParseUint64(value, &parsed) ||
            static_cast<uint64_t>(static_cast<size_t>(parsed)) != parsed) {
          return false;
        }
        *static_cast<size_t*>(spec.target) = static_cast<size_t>(parsed);
        return true;
      }
      case Kind::kF64:
        return ksym::ParseDouble(value, static_cast<double*>(spec.target));
      case Kind::kBool:
        return false;  // Never reached: presence flags take no value.
    }
    return false;
  }

  void PrintHelp() const {
    std::printf("%s\n", usage_.c_str());
    if (!flags_.empty()) std::printf("\nflags:\n");
    for (const FlagSpec& spec : flags_) {
      std::printf("  %-18s %s\n", spec.name, spec.help);
    }
  }

  std::string usage_;
  std::vector<FlagSpec> flags_;
};

}  // namespace ksym_tools

#endif  // KSYM_TOOLS_TOOL_COMMON_H_
