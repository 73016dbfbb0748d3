#include "daemon/server.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <iostream>
#include <list>
#include <sstream>
#include <thread>
#include <utility>

#include "cli/report.hpp"
#include "daemon/lifecycle.hpp"
#include "daemon/protocol.hpp"
#include "mc/lazymc.hpp"
#include "support/control.hpp"
#include "support/faultinject.hpp"
#include "support/json.hpp"
#include "support/jsonmini.hpp"
#include "support/parallel.hpp"
#include "support/socket.hpp"
#include "support/timer.hpp"

namespace lazymc::daemon {
namespace {

/// Mirrors the executor's catch-site policy for paths outside the broker
/// (graph loads, connection dispatch).
Error classify_current_exception() {
  try {
    throw;
  } catch (const Error& e) {
    return e;
  } catch (const std::bad_alloc&) {
    return Error(ErrorKind::kResource, "out of memory");
  } catch (const std::exception& e) {
    return Error(ErrorKind::kInternal, e.what());
  } catch (...) {
    return Error(ErrorKind::kInternal, "unknown exception");
  }
}

std::string chomp(std::string s) {
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

}  // namespace

std::shared_ptr<const cli::LoadedGraph> GraphStore::get(
    const std::string& spec) {
  // The lock only covers the map: the first requester publishes a future
  // and parses outside the lock, so only requests for the *same* graph
  // wait on the load while everything else (cached gets, size()) flows.
  std::promise<std::shared_ptr<const cli::LoadedGraph>> promise;
  Future future;
  bool loader = false;
  {
    MutexLock lock(mutex_);
    auto it = graphs_.find(spec);
    if (it != graphs_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      graphs_.emplace(spec, future);
      loader = true;
    }
  }
  if (!loader) return future.get();  // rethrows the loader's Error

  Error failure(ErrorKind::kInternal, "");
  try {
    auto loaded =
        std::make_shared<const cli::LoadedGraph>(cli::load_graph(spec));
    promise.set_value(loaded);
    return loaded;
  } catch (const Error& e) {
    failure = e;
  } catch (const std::bad_alloc&) {
    failure = Error(ErrorKind::kResource, "out of memory loading '" + spec + "'");
  } catch (const std::exception& e) {
    failure = Error(ErrorKind::kInput, e.what(), errno);
  }
  {
    // Forget the failed load first so a request arriving after the
    // waiters were failed starts a fresh attempt.
    MutexLock lock(mutex_);
    graphs_.erase(spec);
  }
  promise.set_exception(std::make_exception_ptr(failure));
  throw failure;
}

std::size_t GraphStore::size() const {
  MutexLock lock(mutex_);
  std::size_t ready = 0;
  for (const auto& entry : graphs_) {
    // Entries are in-flight or successfully loaded (failures are erased
    // before their waiters are failed), so ready means loaded.
    if (entry.second.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      ++ready;
    }
  }
  return ready;
}

std::vector<std::pair<std::string, std::shared_ptr<const cli::LoadedGraph>>>
GraphStore::snapshot() const {
  MutexLock lock(mutex_);
  std::vector<std::pair<std::string, std::shared_ptr<const cli::LoadedGraph>>>
      out;
  out.reserve(graphs_.size());
  for (const auto& entry : graphs_) {
    if (entry.second.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      out.emplace_back(entry.first, entry.second.get());
    }
  }
  return out;
}

Server::Server(ServerConfig config) : config_(std::move(config)) {}

namespace {

/// All mutable daemon state, scoped to one run().
struct Daemon {
  explicit Daemon(const ServerConfig& server_config)
      : config(server_config), journal(server_config.journal_path) {}

  const ServerConfig& config;
  GraphStore store;
  cli::Journal journal;
  Mutex journal_mutex;  ///< record()/reopen() from executors + accept loop

  std::unique_ptr<RequestBroker> broker;
  std::unique_ptr<Watchdog> watchdog;

  WallTimer uptime;
  bool recovered_stale = false;
  std::size_t journal_recovered = 0;

  std::atomic<bool> drain_requested{false};
  std::atomic<bool> stop_requested{false};
  std::atomic<bool> closing_connections{false};

  /// One ticket -> one response line (the broker's SolveFn).
  std::string solve_ticket(RequestTicket& ticket) {
    const std::shared_ptr<const cli::LoadedGraph> loaded =
        store.get(ticket.graph());

    cli::RunReport report;
    report.request_id = ticket.client_id().empty()
                            ? std::to_string(ticket.id())
                            : ticket.client_id();
    report.graph = loaded->description;
    report.solver = "lazymc";
    report.threads = num_threads();
    report.num_vertices = loaded->graph.num_vertices();
    report.num_edges = loaded->graph.num_edges();
    report.load_seconds = loaded->load_seconds;
    report.load_path = loaded->load_path;

    mc::LazyMCConfig mc_config;
    // Binary-store graphs carry their preprocessing; the solve consumes
    // the stored order/coreness and adopts the mmap'ed rows zero-copy
    // when the zone is compatible (lifetime: `loaded` outlives the solve).
    mc::PrebuiltGraph prebuilt;
    if (loaded->store && loaded->store->has_order()) {
      prebuilt.order = &loaded->store->order();
      prebuilt.coreness = &loaded->store->coreness();
      prebuilt.degeneracy = loaded->store->degeneracy();
      prebuilt.rows = loaded->store->rows();
      mc_config.prebuilt = &prebuilt;
    }
    // The per-request isolation seam: this solve observes (and is
    // cancellable through) the ticket's control only.
    mc_config.control = &ticket.control();
    // Per-request representation choice (validated at parse time; empty
    // keeps the config default, auto).
    if (const auto rep = parse_neighborhood_rep(ticket.rep())) {
      mc_config.neighborhood_rep = *rep;
    }

    WallTimer timer;
    mc::LazyMCResult result = mc::lazy_mc(loaded->graph, mc_config);
    report.solve_seconds = timer.elapsed();

    report.clique = std::move(result.clique);
    report.omega = result.omega;
    report.has_lazymc = true;
    result.clique = report.clique;  // keep the embedded copy coherent
    report.lazymc = std::move(result);

    const StopCause cause = ticket.control().stop_cause();
    report.interrupted = cause == StopCause::kInterrupted ||
                         cause == StopCause::kCancelled;
    report.timed_out = !report.interrupted &&
                       (cause == StopCause::kDeadline || report.lazymc.timed_out);
    report.request_status = report.interrupted ? "interrupted"
                            : report.timed_out ? "timeout"
                                               : "ok";

    // Same independent witness re-check the CLI performs: even a
    // best-so-far (interrupted/timeout) clique must verify against the
    // input graph before it is sent anywhere.
    const bool ok =
        report.clique.size() == static_cast<std::size_t>(report.omega) &&
        is_clique(loaded->graph, report.clique);
    report.verification = ok ? "ok" : "failed";
    report.fault_sites = faults::snapshot();
    if (!ok) {
      throw Error(ErrorKind::kInternal,
                  "result verification failed for request " +
                      report.request_id + " on " + report.graph);
    }

    {
      MutexLock lock(journal_mutex);
      journal.record(ticket.graph(), report.request_status, report.omega);
    }

    std::ostringstream buf;
    cli::render_json(report, buf);
    return chomp(buf.str());
  }

  std::string status_response() {
    const RequestBroker::Counters c = broker->counters();
    std::ostringstream buf;
    JsonWriter w(buf);
    w.open();
    w.field("ok", true);
    w.field("pid", static_cast<std::int64_t>(::getpid()));
    w.field("uptime_seconds", uptime.elapsed());
    w.field("threads", num_threads());
    w.field("executors", config.executors);
    w.field("draining", broker->draining());
    w.field("graphs", store.size());
    // Per-graph load provenance: how each resident graph materialized
    // ("parse"/"mmap"/"gen") and what the load cost, so operators can
    // see at a glance which instances would benefit from conversion to
    // the binary store.
    w.open_array("graph_store");
    for (const auto& [spec, g] : store.snapshot()) {
      w.open();
      w.field("spec", spec);
      w.field("description", g->description);
      w.field("load_seconds", g->load_seconds);
      w.field("load_path", g->load_path);
      w.field("num_vertices", g->graph.num_vertices());
      w.field("num_edges", g->graph.num_edges());
      w.close();
    }
    w.close_array();
    w.open("requests");
    w.field("admitted", c.admitted);
    w.field("completed", c.completed);
    w.field("failed", c.failed);
    w.field("shed", c.shed);
    w.field("queued", c.queued);
    w.field("running", c.running);
    w.field("in_flight", c.in_flight());
    w.close();
    w.open("watchdog");
    w.field("cancels", watchdog->cancels());
    w.field("stalls", watchdog->stalls());
    w.close();
    w.field("recovered_stale", recovered_stale);
    w.field("journal_recovered", journal_recovered);
    w.close();
    return buf.str();
  }

  /// Dispatches one parsed request to its response line.
  std::string dispatch(const Request& request) {
    switch (request.verb) {
      case Verb::kLoad: {
        const auto loaded = store.get(request.graph);
        std::ostringstream detail;
        detail << loaded->description << ": " << loaded->graph.num_vertices()
               << " vertices, " << loaded->graph.num_edges() << " edges, via "
               << loaded->load_path;
        if (!request.rep.empty()) detail << ", rep=" << request.rep;
        return ack_response("load", detail.str());
      }
      case Verb::kSolve: {
        // Blocks this connection thread until an executor completes the
        // ticket; other connections (and other requests on *their*
        // threads) keep flowing.
        auto ticket = broker->submit(request.graph, request.time_limit,
                                     request.id, request.rep);
        return ticket->wait();
      }
      case Verb::kStatus:
        return status_response();
      case Verb::kDrain:
        broker->drain(/*cancel_in_flight=*/false);
        drain_requested.store(true, std::memory_order_relaxed);
        return ack_response("drain",
                            "draining: new requests shed, in-flight "
                            "requests finish, then the daemon exits");
      case Verb::kStop:
        broker->drain(/*cancel_in_flight=*/true);
        stop_requested.store(true, std::memory_order_relaxed);
        return ack_response("stop",
                            "stopping: in-flight requests return verified "
                            "best-so-far results, then the daemon exits");
    }
    throw Error(ErrorKind::kInternal, "unhandled verb");
  }

  /// One client connection, line at a time.  A request error answers the
  /// request and keeps the connection; an I/O error (or EOF, or daemon
  /// shutdown) ends it.
  void serve_connection(net::Fd fd) {
    net::LineChannel channel(fd.get());
    std::string line;
    for (;;) {
      net::LineChannel::ReadStatus status;
      try {
        status = channel.read_line(line, /*timeout_ms=*/250);
      } catch (...) {
        return;  // connection-level read failure: close quietly
      }
      if (status == net::LineChannel::ReadStatus::kEof) return;
      if (status == net::LineChannel::ReadStatus::kTimeout) {
        if (closing_connections.load(std::memory_order_relaxed)) return;
        continue;
      }
      if (line.empty()) continue;

      std::string response;
      try {
        // Injected connection failure (fault builds): this connection's
        // request fails structurally; the daemon and its peers carry on.
        LAZYMC_FAULT_THROW("conn.io");
        response = dispatch(parse_request(line));
      } catch (...) {
        const Error err = classify_current_exception();
        std::string id;
        try {
          json_get_string(line, "id", id);  // best effort for the envelope
        } catch (...) {
          // Nothing parsed from a hostile line may escape this thread:
          // an uncaught exception here would std::terminate the daemon.
          id.clear();
        }
        response = error_response(id, err.kind(), err.what(),
                                  err.sys_errno());
      }
      try {
        channel.write_line(response);
      } catch (...) {
        return;  // peer went away mid-response
      }
    }
  }
};

}  // namespace

int Server::run() {
  install_daemon_signal_handlers();

  Daemon d(config_);

  // Supervised startup: claim the pidfile (recovering a crashed
  // instance's leftovers), then the socket.
  Pidfile pidfile(config_.pidfile_path, config_.socket_path);
  d.recovered_stale = pidfile.recovered_stale();

  if (d.journal.enabled()) {
    try {
      d.journal_recovered = d.journal.completed().size();
    } catch (const std::exception& e) {
      // A torn journal (power loss mid-line) must not block restart, no
      // matter how it is corrupted; the journal is an audit trail, not a
      // correctness dependency.
      std::cerr << "lazymcd: ignoring unreadable journal: " << e.what()
                << "\n";
    }
  }

  net::UnixListener listener(config_.socket_path, /*backlog=*/16);

  set_num_threads(config_.threads);
  BrokerConfig broker_config;
  broker_config.executors = config_.executors;
  broker_config.max_queue = config_.max_queue;
  broker_config.default_time_limit = config_.default_time_limit;
  broker_config.max_time_limit = config_.max_time_limit;
  d.broker = std::make_unique<RequestBroker>(
      broker_config, [&d](RequestTicket& t) { return d.solve_ticket(t); });
  d.watchdog = std::make_unique<Watchdog>(*d.broker, config_.watchdog);

  std::cerr << "lazymcd: serving on " << config_.socket_path << " (pid "
            << ::getpid() << ", " << num_threads() << " solver threads, "
            << config_.executors << " executors)"
            << (d.recovered_stale ? ", recovered stale instance" : "")
            << "\n";

  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<std::unique_ptr<Connection>> connections;
  std::size_t active = 0;

  const auto reap = [&connections, &active]() {
    for (auto it = connections.begin(); it != connections.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = connections.erase(it);
        --active;
      } else {
        ++it;
      }
    }
  };

  for (;;) {
    if (interrupt::requested() &&
        !d.stop_requested.load(std::memory_order_relaxed)) {
      // SIGTERM/SIGINT: the global flag already cancels every in-flight
      // control (default interrupt source); drain the broker so the
      // accounting and admission agree with the signal.
      d.broker->drain(/*cancel_in_flight=*/true);
      d.stop_requested.store(true, std::memory_order_relaxed);
    }
    if (d.stop_requested.load(std::memory_order_relaxed)) break;
    if (d.drain_requested.load(std::memory_order_relaxed) &&
        d.broker->counters().in_flight() == 0) {
      break;
    }
    if (signals::consume_hup()) {
      MutexLock lock(d.journal_mutex);
      d.journal.reopen();
      std::cerr << "lazymcd: SIGHUP — journal reopened\n";
    }

    reap();

    net::Fd client = listener.accept(/*timeout_ms=*/200);
    if (!client.valid()) continue;

    if (active >= config_.max_connections) {
      // Connection-level load shedding: answer structurally, then close.
      try {
        net::LineChannel channel(client.get());
        channel.write_line(error_response(
            "", ErrorKind::kOverloaded,
            "connection limit reached (" +
                std::to_string(config_.max_connections) +
                "); back off and retry"));
      } catch (...) {
      }
      continue;
    }

    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    connection->thread = std::thread(
        [&d, raw](net::Fd fd) {
          d.serve_connection(std::move(fd));
          raw->done.store(true, std::memory_order_release);
        },
        std::move(client));
    connections.push_back(std::move(connection));
    ++active;
  }

  // Shutdown: every admitted ticket completes (cancelled solves unwind
  // to best-so-far responses), connections observe the closing flag at
  // their next read timeout, then supervision and the broker wind down.
  d.broker->wait_idle();
  d.closing_connections.store(true, std::memory_order_relaxed);
  for (auto& connection : connections) connection->thread.join();
  connections.clear();
  d.watchdog.reset();
  d.broker.reset();

  std::cerr << "lazymcd: exiting ("
            << (d.stop_requested.load(std::memory_order_relaxed) ? "stop"
                                                                 : "drain")
            << ")\n";
  return 0;
}

}  // namespace lazymc::daemon
