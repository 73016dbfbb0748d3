// Daemon substrate tests: wire protocol, flat-JSON scanners, the request
// broker's admission/isolation/accounting, watchdog supervision, pidfile
// recovery, and the Unix-socket line channel.  The end-to-end daemon
// (accept loop, verbs, signals) is exercised by tools/daemon_smoke.sh.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "daemon/broker.hpp"
#include "daemon/lifecycle.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "daemon/watchdog.hpp"
#include "support/error.hpp"
#include "support/jsonmini.hpp"
#include "support/socket.hpp"

namespace lazymc::daemon {
namespace {

// ---------------------------------------------------------------- jsonmini

TEST(JsonMini, ExtractsStringsNumbersBools) {
  const std::string line =
      R"({"verb":"solve","graph":"a b\\c\"d","time_limit":2.5,"ok":false,"n":-3})";
  std::string s;
  ASSERT_TRUE(json_get_string(line, "verb", s));
  EXPECT_EQ(s, "solve");
  ASSERT_TRUE(json_get_string(line, "graph", s));
  EXPECT_EQ(s, "a b\\c\"d");
  double d = 0;
  ASSERT_TRUE(json_get_number(line, "time_limit", d));
  EXPECT_DOUBLE_EQ(d, 2.5);
  ASSERT_TRUE(json_get_number(line, "n", d));
  EXPECT_DOUBLE_EQ(d, -3);
  bool b = true;
  ASSERT_TRUE(json_get_bool(line, "ok", b));
  EXPECT_FALSE(b);
  EXPECT_FALSE(json_get_string(line, "missing", s));
  EXPECT_FALSE(json_get_number(line, "verb", d));
}

TEST(JsonMini, MalformedUnicodeEscapesReturnFalseInsteadOfThrowing) {
  // A hostile client line like this used to throw std::invalid_argument
  // out of std::stoi, escape the connection thread, and terminate the
  // daemon.  Extraction must fail structurally instead.
  std::string s;
  EXPECT_FALSE(json_get_string(R"({"id":"a\uzzzz"})", "id", s));
  EXPECT_FALSE(json_get_string(R"({"id":"a\u12g4"})", "id", s));
  EXPECT_FALSE(json_get_string(R"({"id":"a\u12)", "id", s));   // truncated
  EXPECT_FALSE(json_get_string(R"({"id":"a\q"})", "id", s));   // bad escape
}

TEST(JsonMini, DecodesUnicodeEscapesToUtf8) {
  std::string s;
  ASSERT_TRUE(json_get_string("{\"id\":\"\\u0041\\u0062\"}", "id", s));
  EXPECT_EQ(s, "Ab");
  ASSERT_TRUE(json_get_string("{\"id\":\"\\u0009\"}", "id", s));
  EXPECT_EQ(s, "\t");
  // Codepoints past 0x7F must not be truncated to a single char.
  ASSERT_TRUE(json_get_string("{\"id\":\"\\u00E9\"}", "id", s));
  EXPECT_EQ(s, "\xC3\xA9");  // U+00E9, e-acute
  ASSERT_TRUE(json_get_string("{\"id\":\"\\u2713\"}", "id", s));
  EXPECT_EQ(s, "\xE2\x9C\x93");  // U+2713, check mark
}

// ---------------------------------------------------------------- protocol

TEST(Protocol, RoundTripsRequests) {
  Request request;
  request.verb = Verb::kSolve;
  request.graph = "gen:dblp:tiny";
  request.time_limit = 1.5;
  request.id = "client-7";
  const Request parsed = parse_request(format_request(request));
  EXPECT_EQ(parsed.verb, Verb::kSolve);
  EXPECT_EQ(parsed.graph, request.graph);
  EXPECT_DOUBLE_EQ(parsed.time_limit, 1.5);
  EXPECT_EQ(parsed.id, "client-7");
}

TEST(Protocol, HealthAliasesStatus) {
  EXPECT_EQ(parse_request(R"({"verb":"health"})").verb, Verb::kStatus);
  EXPECT_EQ(parse_request(R"({"verb":"status"})").verb, Verb::kStatus);
}

TEST(Protocol, RejectsMalformedRequests) {
  EXPECT_THROW(parse_request(R"({"graph":"x"})"), Error);
  EXPECT_THROW(parse_request(R"({"verb":"explode"})"), Error);
  EXPECT_THROW(parse_request(R"({"verb":"solve"})"), Error);
  EXPECT_THROW(parse_request(R"({"verb":"load"})"), Error);
  EXPECT_THROW(
      parse_request(R"({"verb":"solve","graph":"g","time_limit":-1})"), Error);
  for (const char* line : {R"({"verb":"nope"})",
                           R"({"verb":"solve","graph":"g","rep":"hybrid"})"}) {
    try {
      parse_request(line);
      FAIL() << "expected Error for " << line;
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kInput) << line;
    }
  }
}

TEST(Protocol, ErrorResponsesCarryKindAndErrno) {
  const std::string line =
      error_response("req-1", ErrorKind::kOverloaded, "queue full", EAGAIN);
  bool ok = true;
  ASSERT_TRUE(json_get_bool(line, "ok", ok));
  EXPECT_FALSE(ok);
  std::string kind;
  ASSERT_TRUE(json_get_string(line, "error_kind", kind));
  EXPECT_EQ(kind, "overloaded");
  double err = 0;
  ASSERT_TRUE(json_get_number(line, "errno", err));
  EXPECT_EQ(static_cast<int>(err), EAGAIN);
  std::string id;
  ASSERT_TRUE(json_get_string(line, "request_id", id));
  EXPECT_EQ(id, "req-1");
}

// ------------------------------------------------------------------ broker

/// Blocks SolveFns until released (lets tests hold requests in-flight).
class Latch {
 public:
  void release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      released_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return released_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool released_ = false;
};

void expect_reconciled(const RequestBroker::Counters& c) {
  EXPECT_EQ(c.admitted, c.completed + c.failed + c.shed + c.in_flight());
}

TEST(RequestBroker, CompletesSubmittedRequests) {
  BrokerConfig config;
  config.executors = 2;
  RequestBroker broker(config, [](RequestTicket& t) {
    return "done:" + t.graph();
  });
  auto a = broker.submit("g1", 0, "a");
  auto b = broker.submit("g2", 0, "b");
  EXPECT_EQ(a->wait(), "done:g1");
  EXPECT_EQ(b->wait(), "done:g2");
  const auto c = broker.counters();
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.in_flight(), 0u);
  expect_reconciled(c);
}

TEST(RequestBroker, ShedsWithOverloadedWhenQueueIsFull) {
  Latch latch;
  BrokerConfig config;
  config.executors = 1;
  config.max_queue = 1;
  RequestBroker broker(config, [&latch](RequestTicket&) {
    latch.wait();
    return std::string("ok");
  });

  auto running = broker.submit("g", 0, "running");
  // Give the executor a moment to pick up the first ticket so the queue
  // bound applies to the second/third deterministically.
  while (broker.counters().running == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  auto queued = broker.submit("g", 0, "queued");
  try {
    broker.submit("g", 0, "shed");
    FAIL() << "expected kOverloaded";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kOverloaded);
    EXPECT_TRUE(e.transient());
  }
  {
    const auto c = broker.counters();
    EXPECT_EQ(c.shed, 1u);
    EXPECT_EQ(c.in_flight(), 2u);
    expect_reconciled(c);
  }

  latch.release();
  EXPECT_EQ(running->wait(), "ok");
  EXPECT_EQ(queued->wait(), "ok");
  const auto c = broker.counters();
  EXPECT_EQ(c.admitted, 3u);
  EXPECT_EQ(c.completed, 2u);
  EXPECT_EQ(c.shed, 1u);
  expect_reconciled(c);
}

TEST(RequestBroker, IsolatesAFailedRequestFromItsNeighbours) {
  BrokerConfig config;
  config.executors = 1;
  RequestBroker broker(config, [](RequestTicket& t) -> std::string {
    if (t.graph() == "bad") {
      throw Error(ErrorKind::kInput, "no such graph");
    }
    return "solved";
  });
  auto bad = broker.submit("bad", 0, "req-bad");
  auto good = broker.submit("good", 0, "req-good");

  const std::string bad_response = bad->wait();
  bool ok = true;
  ASSERT_TRUE(json_get_bool(bad_response, "ok", ok));
  EXPECT_FALSE(ok);
  std::string kind, id;
  ASSERT_TRUE(json_get_string(bad_response, "error_kind", kind));
  EXPECT_EQ(kind, "input");
  ASSERT_TRUE(json_get_string(bad_response, "request_id", id));
  EXPECT_EQ(id, "req-bad");

  EXPECT_EQ(good->wait(), "solved");
  const auto c = broker.counters();
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.failed, 1u);
  expect_reconciled(c);
}

TEST(RequestBroker, DrainCancelsInFlightAndShedsNewWork) {
  BrokerConfig config;
  config.executors = 1;
  RequestBroker broker(config, [](RequestTicket& t) {
    // A cooperative solve: runs until its own control is cancelled.
    while (!t.control().cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::string(stop_cause_name(t.control().stop_cause()));
  });
  auto inflight = broker.submit("g", 0, "inflight");
  broker.drain(/*cancel_in_flight=*/true);
  EXPECT_EQ(inflight->wait(), "interrupted");
  EXPECT_THROW(broker.submit("g", 0, "late"), Error);
  broker.wait_idle();
  const auto c = broker.counters();
  EXPECT_EQ(c.completed, 1u);
  EXPECT_EQ(c.shed, 1u);
  expect_reconciled(c);
}

TEST(RequestBroker, AppliesDefaultAndMaxTimeLimits) {
  BrokerConfig config;
  config.default_time_limit = 7;
  config.max_time_limit = 10;
  RequestBroker broker(config,
                       [](RequestTicket&) { return std::string("ok"); });
  auto defaulted = broker.submit("g", 0, "d");
  auto capped = broker.submit("g", 99, "c");
  auto within = broker.submit("g", 3, "w");
  EXPECT_DOUBLE_EQ(defaulted->control().time_limit(), 7);
  EXPECT_DOUBLE_EQ(capped->control().time_limit(), 10);
  EXPECT_DOUBLE_EQ(within->control().time_limit(), 3);
  defaulted->wait();
  capped->wait();
  within->wait();
}

// ---------------------------------------------------------------- watchdog

TEST(WatchdogTest, ForceCancelsRunawayRequestsPastDeadlinePlusGrace) {
  BrokerConfig config;
  config.executors = 1;
  RequestBroker broker(config, [](RequestTicket& t) {
    // Runaway with respect to the deadline: never consults should_stop
    // (which would observe the deadline itself) — only an external
    // cancel stops it.
    while (!t.control().cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return std::string(stop_cause_name(t.control().stop_cause()));
  });
  WatchdogConfig wd;
  wd.interval_seconds = 0.02;
  wd.grace_seconds = 0.05;
  Watchdog watchdog(broker, wd);

  auto ticket = broker.submit("g", /*time_limit=*/0.05, "runaway");
  EXPECT_EQ(ticket->wait(), "deadline");
  EXPECT_GE(watchdog.cancels(), 1u);
}

TEST(WatchdogTest, ReportsAStalledCancelledRequestOnce) {
  Latch latch;
  BrokerConfig config;
  config.executors = 1;
  RequestBroker broker(config, [&latch](RequestTicket&) {
    // Wedged: ignores its control entirely until externally released.
    latch.wait();
    return std::string("finally");
  });
  WatchdogConfig wd;
  wd.interval_seconds = 0.01;
  wd.grace_seconds = 0.02;
  wd.stall_scans = 3;
  Watchdog watchdog(broker, wd);

  auto ticket = broker.submit("g", /*time_limit=*/0.01, "wedged");
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (watchdog.stalls() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(watchdog.stalls(), 1u);
  EXPECT_GE(watchdog.cancels(), 1u);
  // Give the watchdog several more scans: the stall must be reported
  // once per ticket, not once per scan.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(watchdog.stalls(), 1u);

  latch.release();
  EXPECT_EQ(ticket->wait(), "finally");
}

// ----------------------------------------------------------------- pidfile

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/lazymc_test_XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!dir_.empty()) {
      std::remove((dir_ + "/d.pid").c_str());
      std::remove((dir_ + "/d.sock").c_str());
      ::rmdir(dir_.c_str());
    }
  }
  std::string path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

TEST(PidfileTest, RefusesASecondLiveInstance) {
  TempDir tmp;
  Pidfile first(tmp.path("d.pid"), tmp.path("d.sock"));
  EXPECT_FALSE(first.recovered_stale());
  // Our own (live) pid is in the file now.
  try {
    Pidfile second(tmp.path("d.pid"), tmp.path("d.sock"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInput);
  }
}

TEST(PidfileTest, RecoversAStaleInstanceAndItsSocket) {
  TempDir tmp;
  {
    std::ofstream pid(tmp.path("d.pid"));
    pid << 999999999 << "\n";  // beyond any real pid: guaranteed dead
  }
  {
    std::ofstream sock(tmp.path("d.sock"));
    sock << "stale";
  }
  Pidfile recovered(tmp.path("d.pid"), tmp.path("d.sock"));
  EXPECT_TRUE(recovered.recovered_stale());
  // The stale socket was reclaimed so a fresh bind can succeed.
  EXPECT_FALSE(std::ifstream(tmp.path("d.sock")).good());
  // The pidfile now names us.
  std::ifstream in(tmp.path("d.pid"));
  long pid = 0;
  in >> pid;
  EXPECT_EQ(pid, static_cast<long>(::getpid()));
}

// ------------------------------------------------------------------ socket

TEST(SocketTest, LineChannelRoundTripsOverAUnixSocket) {
  TempDir tmp;
  net::UnixListener listener(tmp.path("d.sock"));
  std::thread echo([&listener] {
    net::Fd client = listener.accept(/*timeout_ms=*/5000);
    ASSERT_TRUE(client.valid());
    net::LineChannel channel(client.get());
    std::string line;
    while (channel.read_line(line, /*timeout_ms=*/5000) ==
           net::LineChannel::ReadStatus::kLine) {
      channel.write_line("echo:" + line);
    }
  });

  net::Fd fd = net::unix_connect(tmp.path("d.sock"));
  net::LineChannel channel(fd.get());
  channel.write_line("hello");
  channel.write_line("world");
  std::string line;
  ASSERT_EQ(channel.read_line(line, 5000), net::LineChannel::ReadStatus::kLine);
  EXPECT_EQ(line, "echo:hello");
  ASSERT_EQ(channel.read_line(line, 5000), net::LineChannel::ReadStatus::kLine);
  EXPECT_EQ(line, "echo:world");
  fd.reset();  // EOF ends the echo loop
  echo.join();
}

TEST(SocketTest, RejectsOverlongSocketPaths) {
  EXPECT_THROW(net::UnixListener(std::string(200, 'x')), Error);
}

TEST(SocketTest, ConnectToMissingSocketFailsStructurally) {
  TempDir tmp;
  try {
    net::unix_connect(tmp.path("absent.sock"));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInput);
    EXPECT_NE(e.sys_errno(), 0);
  }
}

// -------------------------------------------------------------- graph store

TEST(GraphStoreTest, LoadsOnceAndShares) {
  GraphStore store;
  const auto first = store.get("gen:dblp:tiny");
  const auto second = store.get("gen:dblp:tiny");
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_GT(first->graph.num_vertices(), 0u);
}

TEST(GraphStoreTest, PropagatesClassifiedLoadFailures) {
  GraphStore store;
  try {
    store.get("gen:not-a-generator");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kInput);
  }
  EXPECT_EQ(store.size(), 0u);
  // A failed load is forgotten, not cached: the same spec fails the same
  // way on retry (and would succeed if e.g. the file appeared).
  EXPECT_THROW(store.get("gen:not-a-generator"), Error);
  EXPECT_EQ(store.size(), 0u);
}

TEST(GraphStoreTest, ConcurrentFirstRequestsShareOneLoad) {
  GraphStore store;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const cli::LoadedGraph>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&store, &results, t] { results[t] = store.get("gen:dblp:tiny"); });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(results[t].get(), results[0].get());
  }
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace lazymc::daemon
