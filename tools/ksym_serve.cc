// ksym_serve — the long-running anonymization service (DESIGN.md §12).
//
// Listens on a unix-domain socket for newline-delimited requests and
// executes them against one shared graph cache: repeated requests naming
// the same .ksymcsr input (keyed by header checksum) are served from the
// mmap already in memory. Responses are byte-identical to the one-shot
// CLIs' stdout for the same request (CI cmp's them).
//
//   ksym_serve --socket /tmp/ksym.sock [--cache-bytes B] [--threads N]
//              [--max-queue Q] [--retry-after-ms MS]
//
// Protocol (see serve/server.h): one flat JSON object per line —
//
//   {"op":"audit","input":"/data/g.ksymcsr","k":3}
//   {"op":"anonymize","input":"g.ksymcsr","output":"r.ksym","k":3,"tdv":true}
//   {"op":"sample","release":"r.ksymcsr","output_prefix":"s","samples":4}
//   {"op":"stats"}
//
// --threads is the *global* compute budget: a sample's or attack's thread
// count is clamped to it, every other op takes one thread of it, and
// admission blocks past it; a full queue answers
// {"status":"busy","retry_after_ms":...} instead of queueing unboundedly.
// Drive it interactively with ksym_client, or any tool that can write
// lines to a unix socket.

#include <csignal>
#include <cstdio>

#include <chrono>
#include <thread>

#include "serve/server.h"
#include "tool_common.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  ksym::serve::ServerOptions options;
  uint64_t cache_bytes = 0;
  ksym_tools::ArgParser parser(
      "usage: ksym_serve --socket PATH [--cache-bytes B] [--threads N]\n"
      "                  [--max-queue Q] [--retry-after-ms MS]");
  parser.String("--socket", &options.socket_path,
                "unix-domain socket path to listen on");
  parser.U64("--cache-bytes", &cache_bytes,
             "graph-cache LRU cap in bytes (default 1 GiB)");
  parser.U32("--threads", &options.thread_budget,
             "global compute-thread budget (and worker count)");
  parser.Size("--max-queue", &options.max_queue,
              "bounded queue depth; arrivals past it get busy-rejected");
  parser.U32("--retry-after-ms", &options.retry_after_ms,
             "retry hint returned with busy rejections");
  parser.ParseOrExit(argc, argv);
  if (options.socket_path.empty()) parser.FailUsage();
  if (cache_bytes > 0) options.cache_bytes = static_cast<size_t>(cache_bytes);

  ksym::serve::Server server(options);
  const ksym::Status started = server.Start();
  if (!started.ok()) return ksym_tools::Fail(started);
  std::fprintf(stderr,
               "ksym_serve listening on %s (threads=%u, queue=%zu, "
               "cache=%zu bytes)\n",
               options.socket_path.c_str(), server.options().thread_budget,
               server.options().max_queue, server.options().cache_bytes);

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::fprintf(stderr, "ksym_serve shutting down\n");
  server.Stop();
  return 0;
}
