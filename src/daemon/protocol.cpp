#include "daemon/protocol.hpp"

#include <sstream>

#include "lazygraph/neighborhood_rep.hpp"
#include "support/json.hpp"
#include "support/jsonmini.hpp"

namespace lazymc::daemon {

const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::kLoad: return "load";
    case Verb::kSolve: return "solve";
    case Verb::kStatus: return "status";
    case Verb::kDrain: return "drain";
    case Verb::kStop: return "stop";
  }
  return "?";
}

Request parse_request(const std::string& line) {
  Request request;
  std::string verb;
  if (!json_get_string(line, "verb", verb)) {
    throw Error(ErrorKind::kInput,
                "request has no \"verb\" field: " + line);
  }
  if (verb == "load") {
    request.verb = Verb::kLoad;
  } else if (verb == "solve") {
    request.verb = Verb::kSolve;
  } else if (verb == "status" || verb == "health") {
    request.verb = Verb::kStatus;
  } else if (verb == "drain") {
    request.verb = Verb::kDrain;
  } else if (verb == "stop") {
    request.verb = Verb::kStop;
  } else {
    throw Error(ErrorKind::kInput, "unknown verb '" + verb + "'");
  }
  json_get_string(line, "graph", request.graph);
  json_get_string(line, "id", request.id);
  if (json_get_string(line, "rep", request.rep) && !request.rep.empty() &&
      !parse_neighborhood_rep(request.rep)) {
    throw Error(ErrorKind::kInput,
                "unknown rep '" + request.rep + "' (expected " +
                    std::string(kNeighborhoodRepNames) + ")");
  }
  double limit = 0;
  if (json_get_number(line, "time_limit", limit)) {
    if (!(limit >= 0)) {
      throw Error(ErrorKind::kInput,
                  "time_limit must be non-negative, got " +
                      std::to_string(limit));
    }
    request.time_limit = limit;
  }
  if ((request.verb == Verb::kLoad || request.verb == Verb::kSolve) &&
      request.graph.empty()) {
    throw Error(ErrorKind::kInput,
                std::string(verb_name(request.verb)) +
                    " request needs a \"graph\" field");
  }
  return request;
}

std::string format_request(const Request& request) {
  std::ostringstream buf;
  JsonWriter w(buf);
  w.open();
  w.field("verb", verb_name(request.verb));
  if (!request.graph.empty()) w.field("graph", request.graph);
  if (!request.rep.empty()) w.field("rep", request.rep);
  if (request.time_limit > 0) w.field("time_limit", request.time_limit);
  if (!request.id.empty()) w.field("id", request.id);
  w.close();
  return buf.str();
}

std::string error_response(const std::string& request_id, ErrorKind kind,
                           const std::string& message, int sys_errno) {
  std::ostringstream buf;
  JsonWriter w(buf);
  w.open();
  w.field("ok", false);
  if (!request_id.empty()) w.field("request_id", request_id);
  w.field("error", message);
  w.field("error_kind", error_kind_name(kind));
  if (sys_errno != 0) w.field("errno", sys_errno);
  w.close();
  return buf.str();
}

std::string ack_response(const std::string& verb, const std::string& detail) {
  std::ostringstream buf;
  JsonWriter w(buf);
  w.open();
  w.field("ok", true);
  w.field("verb", verb);
  if (!detail.empty()) w.field("detail", detail);
  w.close();
  return buf.str();
}

}  // namespace lazymc::daemon
