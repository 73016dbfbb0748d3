// lazymcd wire protocol: newline-delimited JSON over a Unix socket.
//
// Each request is one flat JSON object on one line; each response is one
// JSON object on one line (solve responses reuse the CLI report writer,
// so a daemon solve and a `lazymc --json` run emit the same schema plus
// request_id/status fields).  Verbs:
//
//   {"verb":"load","graph":"<spec>",
//    "rep":"auto|hash|sorted|bitset"}            load/cache a graph
//   {"verb":"solve","graph":"<spec>","rep":...,
//    "time_limit":S,"id":"<client id>"}          solve (budget and rep
//                                                optional)
//   {"verb":"status"}  (alias "health")          counters + lifecycle
//   {"verb":"drain"}                             refuse new work, let
//                                                in-flight finish, exit
//   {"verb":"stop"}                              refuse new work, cancel
//                                                in-flight (best-so-far
//                                                responses), exit
//
// Error responses are structured the same way the batch driver's error
// objects are: {"ok":false,"error":...,"error_kind":...} — clients
// branch on error_kind ("overloaded" means back off and retry).
#pragma once

#include <string>

#include "support/error.hpp"

namespace lazymc::daemon {

enum class Verb { kLoad, kSolve, kStatus, kDrain, kStop };

const char* verb_name(Verb verb);

struct Request {
  Verb verb = Verb::kStatus;
  /// Graph spec (load/solve).
  std::string graph;
  /// Per-request wall-clock budget in seconds; 0 = daemon default.
  double time_limit = 0;
  /// Client-supplied request id, echoed back in the response (may be
  /// empty; the daemon always assigns its own numeric id as well).
  std::string id;
  /// Neighborhood representation for this request (load/solve); empty
  /// means the daemon default (auto).  Validated at parse time.
  std::string rep;
};

/// Parses one request line.  Throws Error(kInput) on malformed or
/// unknown requests (the connection survives; the error is reported back
/// as a structured response).
Request parse_request(const std::string& line);

/// Serializes a request (used by lazymc-ctl; round-trips through
/// parse_request).
std::string format_request(const Request& request);

/// One-line structured error response.
std::string error_response(const std::string& request_id, ErrorKind kind,
                           const std::string& message, int sys_errno = 0);

/// One-line {"ok":true,...} acknowledgement with an optional detail
/// field (drain/stop acks).
std::string ack_response(const std::string& verb, const std::string& detail);

}  // namespace lazymc::daemon
