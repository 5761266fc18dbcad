// net_client: multi-process closed-loop driver for randrankd.
//
// Forks --procs worker processes; each opens --conns connections and runs a
// closed loop (one outstanding query per connection, next query sent when
// the reply lands) until --queries queries per process or --seconds elapse.
// Children report their outcome counts over a pipe; the parent aggregates
// and prints one summary line, then runs the requested validations against
// the live daemon:
//
//   --expect-no-shed       fail unless every query got an OK reply (no
//                          OVERLOADED / DRAINING / DEADLINE_EXCEEDED /
//                          ERROR / I/O failures)
//   --expect-epoch-advance fail unless the served epoch advanced while the
//                          load ran (HEALTH before vs after) — the
//                          "publishes land under live traffic" check
//   --scrape               METRICS round-trip; fail unless the Prometheus
//                          text has the expected shape (# TYPE lines,
//                          net_queries_total, net_replies_total) and is
//                          echoed to stdout with --print-scrape
//
// Exit code 0 when the load ran and every requested validation held,
// 1 otherwise. The CI e2e smoke drives randrankd with exactly this binary;
// docs/RUNBOOK.md shows interactive use.

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "net/client.h"
#include "util/parse.h"

namespace {

using randrank::net::HealthReplyFrame;
using randrank::net::NetClient;

struct Counts {
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t overloaded = 0;
  uint64_t draining = 0;
  uint64_t deadline = 0;
  uint64_t error = 0;
  uint64_t io_error = 0;
  uint64_t slots = 0;  // pages received across OK replies
};

// A flag value is plain decimal digits within [min, max] (`max` is the
// destination type's range); a sign, junk, or an out-of-range value is a
// flag error rather than a silent wrap.
uint64_t ParseU64(const char* s, const char* flag, uint64_t min = 0,
                  uint64_t max = std::numeric_limits<uint64_t>::max()) {
  uint64_t v = 0;
  if (!randrank::ParseU64(s, &v) || v < min || v > max) {
    std::cerr << "net_client: bad value for " << flag << ": " << s << "\n";
    std::exit(2);
  }
  return v;
}

// xorshift-style per-process user id stream; no repo deps in the child.
uint64_t NextUser(uint64_t* state, uint64_t users) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  return users == 0 ? x : x % users;
}

/// One worker process: closed loop over `conns` connections.
Counts RunWorker(const std::string& host, uint16_t port, int retries,
                 size_t conns, uint64_t queries, uint64_t seconds, uint32_t m,
                 uint64_t users, uint64_t seed) {
  Counts counts;
  std::vector<NetClient> clients(conns);
  for (size_t c = 0; c < conns; ++c) {
    if (!clients[c].Connect(host, port, retries)) {
      counts.io_error += 1;
      return counts;
    }
  }
  uint64_t rng = seed | 1;
  const auto t_start = std::chrono::steady_clock::now();
  for (uint64_t q = 0; queries == 0 || q < queries; ++q) {
    if (seconds > 0 && std::chrono::steady_clock::now() - t_start >=
                           std::chrono::seconds(seconds)) {
      break;
    }
    // A connection closed by an I/O error (already counted) reconnects, so
    // socket resets do not end the load. The reconnect is one attempt: the
    // --retries budget covers the daemon's start-up, and a daemon that
    // refuses a live client mid-run has gone away.
    NetClient& client = clients[q % conns];
    if (!client.connected() &&
        !client.Connect(host, port)) {
      counts.io_error += 1;
      break;
    }
    NetClient::QueryResult result;
    counts.issued += 1;
    switch (client.Query(m, NextUser(&rng, users), &result)) {
      case NetClient::Status::kOk:
        counts.ok += 1;
        counts.slots += result.pages.size();
        break;
      case NetClient::Status::kOverloaded:
        counts.overloaded += 1;
        break;
      case NetClient::Status::kDraining:
        counts.draining += 1;
        break;
      case NetClient::Status::kDeadlineExceeded:
        counts.deadline += 1;
        break;
      case NetClient::Status::kError:
        counts.error += 1;
        break;
      case NetClient::Status::kIoError:
        counts.io_error += 1;
        client.Close();
        break;
    }
  }
  return counts;
}

void Usage() {
  std::cerr <<
      "usage: net_client [options]\n"
      "  --host H                daemon address (default 127.0.0.1)\n"
      "  --port P                daemon port (required)\n"
      "  --procs N               worker processes (default 2)\n"
      "  --conns N               connections per process (default 2)\n"
      "  --queries N             queries per process; 0 = until --seconds\n"
      "                          (default 1000)\n"
      "  --seconds S             wall-clock cap per process; 0 = none\n"
      "  --m M                   results per query (default 10)\n"
      "  --users U               user-id space (default 1000)\n"
      "  --retries N             retries of each first connect, 100ms apart\n"
      "                          (default 20); a reconnect is one attempt\n"
      "  --seed S                per-run seed (default 1)\n"
      "  --expect-no-shed        fail unless every query was served OK\n"
      "  --expect-epoch-advance  fail unless the epoch advanced during load\n"
      "  --scrape                validate a METRICS scrape after the load\n"
      "  --print-scrape          also echo the scrape text to stdout\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  size_t procs = 2;
  size_t conns = 2;
  uint64_t queries = 1000;
  uint64_t seconds = 0;
  uint32_t m = 10;
  uint64_t users = 1000;
  int retries = 20;
  uint64_t seed = 1;
  bool expect_no_shed = false;
  bool expect_epoch_advance = false;
  bool scrape = false;
  bool print_scrape = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "net_client: " << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(ParseU64(
          next(), "--port", 0, std::numeric_limits<uint16_t>::max()));
    } else if (arg == "--procs") {
      procs = ParseU64(next(), "--procs");
    } else if (arg == "--conns") {
      conns = ParseU64(next(), "--conns");
    } else if (arg == "--queries") {
      queries = ParseU64(next(), "--queries");
    } else if (arg == "--seconds") {
      seconds = ParseU64(next(), "--seconds");
    } else if (arg == "--m") {
      m = static_cast<uint32_t>(
          ParseU64(next(), "--m", 1, std::numeric_limits<uint32_t>::max()));
    } else if (arg == "--users") {
      users = ParseU64(next(), "--users");
    } else if (arg == "--retries") {
      retries = static_cast<int>(
          ParseU64(next(), "--retries", 0, std::numeric_limits<int>::max()));
    } else if (arg == "--seed") {
      seed = ParseU64(next(), "--seed");
    } else if (arg == "--expect-no-shed") {
      expect_no_shed = true;
    } else if (arg == "--expect-epoch-advance") {
      expect_epoch_advance = true;
    } else if (arg == "--scrape") {
      scrape = true;
    } else if (arg == "--print-scrape") {
      scrape = true;
      print_scrape = true;
    } else {
      std::cerr << "net_client: unknown flag " << arg << "\n";
      Usage();
      return 2;
    }
  }
  if (port == 0) {
    std::cerr << "net_client: --port is required\n";
    return 2;
  }
  if (procs == 0 || conns == 0) {
    std::cerr << "net_client: --procs and --conns must be >= 1\n";
    return 2;
  }
  std::signal(SIGPIPE, SIG_IGN);

  // Snapshot the daemon's epoch before the load (also a liveness probe, so
  // workers fork only against a daemon that answered once already).
  uint64_t epoch_before = 0;
  if (expect_epoch_advance) {
    NetClient probe;
    HealthReplyFrame health;
    if (!probe.Connect(host, port, retries) ||
        probe.Health(&health) != NetClient::Status::kOk) {
      std::cerr << "net_client: initial HEALTH probe failed\n";
      return 1;
    }
    epoch_before = health.epoch;
  }

  // Fork the workers; each reports its Counts struct over its own pipe.
  struct Worker {
    pid_t pid = -1;
    int pipe_rd = -1;
  };
  std::vector<Worker> workers(procs);
  for (size_t w = 0; w < procs; ++w) {
    int fds[2];
    if (::pipe(fds) != 0) {
      std::cerr << "net_client: pipe() failed\n";
      return 1;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "net_client: fork() failed\n";
      return 1;
    }
    if (pid == 0) {
      ::close(fds[0]);
      const Counts counts =
          RunWorker(host, port, retries, conns, queries, seconds, m, users,
                    seed * 0x9e3779b97f4a7c15ULL + w + 1);
      ssize_t written = 0;
      const uint8_t* raw = reinterpret_cast<const uint8_t*>(&counts);
      while (written < static_cast<ssize_t>(sizeof(counts))) {
        const ssize_t n =
            ::write(fds[1], raw + written, sizeof(counts) - written);
        if (n <= 0 && errno != EINTR) break;
        if (n > 0) written += n;
      }
      ::close(fds[1]);
      _exit(0);
    }
    ::close(fds[1]);
    workers[w].pid = pid;
    workers[w].pipe_rd = fds[0];
  }

  Counts total;
  bool workers_ok = true;
  for (Worker& worker : workers) {
    Counts counts;
    ssize_t got = 0;
    uint8_t* raw = reinterpret_cast<uint8_t*>(&counts);
    while (got < static_cast<ssize_t>(sizeof(counts))) {
      const ssize_t n = ::read(worker.pipe_rd, raw + got, sizeof(counts) - got);
      if (n <= 0 && errno != EINTR) break;
      if (n > 0) got += n;
    }
    ::close(worker.pipe_rd);
    int status = 0;
    ::waitpid(worker.pid, &status, 0);
    if (got != static_cast<ssize_t>(sizeof(counts)) ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      workers_ok = false;
      continue;
    }
    total.issued += counts.issued;
    total.ok += counts.ok;
    total.overloaded += counts.overloaded;
    total.draining += counts.draining;
    total.deadline += counts.deadline;
    total.error += counts.error;
    total.io_error += counts.io_error;
    total.slots += counts.slots;
  }

  std::cout << "net_client: procs=" << procs << " conns=" << conns
            << " issued=" << total.issued << " ok=" << total.ok
            << " overloaded=" << total.overloaded
            << " draining=" << total.draining
            << " deadline=" << total.deadline << " error=" << total.error
            << " io_error=" << total.io_error << " slots=" << total.slots
            << std::endl;

  bool pass = workers_ok;
  if (!workers_ok) {
    std::cerr << "net_client: FAIL: a worker process died or misreported\n";
  }
  if (total.issued == 0) {
    std::cerr << "net_client: FAIL: no queries issued\n";
    pass = false;
  }
  if (expect_no_shed &&
      (total.ok != total.issued || total.io_error > 0)) {
    std::cerr << "net_client: FAIL: --expect-no-shed but "
              << (total.issued - total.ok) << " of " << total.issued
              << " queries were not served OK\n";
    pass = false;
  }

  if (expect_epoch_advance) {
    NetClient probe;
    HealthReplyFrame health;
    if (!probe.Connect(host, port, retries) ||
        probe.Health(&health) != NetClient::Status::kOk) {
      std::cerr << "net_client: FAIL: final HEALTH probe failed\n";
      pass = false;
    } else if (health.epoch <= epoch_before) {
      std::cerr << "net_client: FAIL: epoch did not advance during load ("
                << epoch_before << " -> " << health.epoch << ")\n";
      pass = false;
    } else {
      std::cout << "net_client: epoch advanced " << epoch_before << " -> "
                << health.epoch << " under load\n";
    }
  }

  if (scrape) {
    NetClient probe;
    std::string text;
    if (!probe.Connect(host, port, retries) ||
        probe.Scrape(&text) != NetClient::Status::kOk) {
      std::cerr << "net_client: FAIL: METRICS scrape failed\n";
      pass = false;
    } else {
      const bool shape_ok =
          text.find("# TYPE ") != std::string::npos &&
          text.find("net_queries_total") != std::string::npos &&
          text.find("net_replies_total") != std::string::npos;
      if (!shape_ok) {
        std::cerr << "net_client: FAIL: scrape lacks expected Prometheus "
                     "shape (# TYPE / net_queries_total / "
                     "net_replies_total); got "
                  << text.size() << " bytes\n";
        pass = false;
      } else {
        std::cout << "net_client: scrape OK (" << text.size() << " bytes)\n";
      }
      if (print_scrape) std::cout << text;
    }
  }

  return pass ? 0 : 1;
}
