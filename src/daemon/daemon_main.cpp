// lazymcd — resident LazyMC clique service.
//
// Loads graphs once, then multiplexes concurrent solve requests onto the
// shared solver pool with per-request isolation, bounded admission, a
// deadline/stall watchdog, and a supervised drain-then-exit lifecycle.
// See src/daemon/server.hpp for the architecture and protocol.hpp for
// the wire format; `lazymc-ctl` is the matching client.

#include <cstdlib>
#include <iostream>
#include <string>

#include "daemon/server.hpp"
#include "support/count_arg.hpp"
#include "support/error.hpp"
#include "support/faultinject.hpp"

namespace lazymc::daemon {
namespace {

constexpr int kExitOk = 0;
constexpr int kExitInputError = 3;
constexpr int kExitInternalError = 4;

void print_usage(std::ostream& out) {
  out <<
      "Usage: lazymcd --socket PATH [options]\n"
      "\n"
      "Resident LazyMC solver daemon (see lazymc-ctl for the client).\n"
      "\n"
      "  --socket PATH          Unix socket to serve on (required)\n"
      "  --pidfile PATH         pidfile (default: SOCKET.pid); a live\n"
      "                         instance refuses to start, a stale one is\n"
      "                         recovered\n"
      "  --journal PATH         request journal (durable one-line JSON per\n"
      "                         completed request; SIGHUP re-opens it)\n"
      "  --threads N            solver pool threads, at most 1024\n"
      "                         (default: hardware)\n"
      "  --executors N          concurrent running solves, at most 1024\n"
      "                         (default 2)\n"
      "  --max-queue N          admitted-but-waiting bound before requests\n"
      "                         are shed with \"overloaded\" (default 16)\n"
      "  --max-connections N    concurrent client connections (default 32)\n"
      "  --default-time-limit S per-request budget when the request names\n"
      "                         none (seconds; default unlimited)\n"
      "  --max-time-limit S     hard cap on any request budget\n"
      "  --watchdog-interval S  supervision scan period (default 0.25)\n"
      "  --watchdog-grace S     slack past a deadline before the watchdog\n"
      "                         force-cancels (default 1.0)\n"
      "\n"
      "Signals: SIGTERM/SIGINT drain-with-cancel (in-flight requests\n"
      "return verified best-so-far, exit 0); SIGHUP re-opens the journal.\n";
}

[[noreturn]] void fail(const std::string& message) {
  throw Error(ErrorKind::kInput, message);
}

double parse_seconds(const std::string& flag, const std::string& value) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    if (pos != value.size() || !(parsed > 0)) fail(flag + " needs a positive number of seconds, got '" + value + "'");
    return parsed;
  } catch (const Error&) {
    throw;
  } catch (...) {
    fail(flag + " needs a positive number of seconds, got '" + value + "'");
  }
}

int daemon_main(int argc, char** argv) {
  ServerConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) fail(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return kExitOk;
    } else if (arg == "--socket") {
      config.socket_path = value();
    } else if (arg == "--pidfile") {
      config.pidfile_path = value();
    } else if (arg == "--journal") {
      config.journal_path = value();
    } else if (arg == "--threads") {
      config.threads = parse_count(arg, value(), kMaxThreadCount);
    } else if (arg == "--executors") {
      config.executors = parse_count(arg, value(), kMaxThreadCount);
    } else if (arg == "--max-queue") {
      config.max_queue = parse_count(arg, value(), kMaxCount);
    } else if (arg == "--max-connections") {
      config.max_connections = parse_count(arg, value(), kMaxCount);
    } else if (arg == "--default-time-limit") {
      config.default_time_limit = parse_seconds(arg, value());
    } else if (arg == "--max-time-limit") {
      config.max_time_limit = parse_seconds(arg, value());
    } else if (arg == "--watchdog-interval") {
      config.watchdog.interval_seconds = parse_seconds(arg, value());
    } else if (arg == "--watchdog-grace") {
      config.watchdog.grace_seconds = parse_seconds(arg, value());
    } else {
      fail("unknown flag '" + arg + "' (try --help)");
    }
  }
  if (config.socket_path.empty()) fail("--socket is required (try --help)");
  if (config.pidfile_path.empty()) {
    config.pidfile_path = config.socket_path + ".pid";
  }

  faults::configure_from_env();
  Server server(config);
  return server.run();
}

}  // namespace
}  // namespace lazymc::daemon

int main(int argc, char** argv) {
  try {
    return lazymc::daemon::daemon_main(argc, argv);
  } catch (const lazymc::Error& e) {
    std::cerr << "lazymcd: error: " << e.what() << "\n";
    return e.kind() == lazymc::ErrorKind::kInput
               ? lazymc::daemon::kExitInputError
               : lazymc::daemon::kExitInternalError;
  } catch (const std::exception& e) {
    std::cerr << "lazymcd: internal error: " << e.what() << "\n";
    return lazymc::daemon::kExitInternalError;
  }
}
