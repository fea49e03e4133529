// The one pipelined JSONL client for `pebblejoin serve`.
//
// RunLoad replays a request corpus against a running server from N
// concurrent clients, each on its own TCP connection with a bounded
// pipelining window, and checks the serving contract: every line sent
// gets exactly one response line, in order, per connection. The corpus is
// repeated `repeat` times and global line g goes to client g % clients.
// That split is invertible, so the replies come back reassembled into
// corpus order, which is what a serve-vs-batch diff needs.
//
// `pebblejoin loadgen` is this client behind the CLI's flag table;
// bench_serve (E20, E23) drives the same client in-process.
//
// Keep `window` at or below the server's --per-conn-inflight: the server
// sheds lines beyond that cap with rejection records (by design), and
// those count as error responses here.

#ifndef PEBBLEJOIN_SERVE_LOOPBACK_CLIENT_H_
#define PEBBLEJOIN_SERVE_LOOPBACK_CLIENT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace pebblejoin {

struct LoadOptions {
  std::string host = "127.0.0.1";  // IPv4 address
  int port = 0;
  int clients = 1;
  int window = 4;  // lines in flight per connection
  int64_t repeat = 1;
  // Per client, from its start: a client still waiting for responses
  // when it runs out fails with a timeout error.
  int64_t timeout_ms = 60000;
  // Stamps the k-th line a client sends with the correlation id
  // "c<client>x<k>", spliced before the object's closing brace, and
  // checks that the k-th response on that connection echoes it. A line
  // without a brace is sent untouched, so its response counts as an id
  // mismatch.
  bool ids = false;
};

// One request as the client saw it.
struct LoadReply {
  std::string id;          // the stamped id; empty without `ids`
  std::string response;    // the response line, without its newline
  int64_t latency_us = 0;  // from enqueue to the response's arrival
  bool error = false;      // the response carries an "error" key
};

struct LoadResult {
  // One "client <c>: <why>" line per client that failed to connect, send
  // its share or receive every response in time.
  std::vector<std::string> client_errors;
  // Every request in corpus order; empty unless every client finished.
  std::vector<LoadReply> replies;
  int64_t lines = 0;          // corpus size x repeat
  int64_t responses = 0;      // response lines received, failed clients too
  int64_t errors = 0;         // responses carrying "error"
  int64_t id_mismatches = 0;  // responses missing the id they were sent with
  int64_t wall_us = 0;        // first connect to last client done
  // Nearest-rank latency percentiles over every response received
  // (PercentileOfSamples); -1 when there is none.
  int64_t p50_us = -1;
  int64_t p95_us = -1;

  bool ok() const { return client_errors.empty() && id_mismatches == 0; }
};

// Runs options.clients clients to completion and joins them. Starts one
// thread per client.
LoadResult RunLoad(const std::vector<std::string>& corpus,
                   const LoadOptions& options);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SERVE_LOOPBACK_CLIENT_H_
