// Overload behaviour of the serving daemon — drives a socket server past
// its admission budget and reports what production cares about: shed rate,
// that every shed response carries a machine-readable retry_after_ms, and
// that the latency of *accepted* requests stays bounded (within ~2x of the
// unloaded p95) because excess load is refused at the door instead of
// queueing without bound.
//
// The model is made predictably slow with the fault injector's latency
// mode (model.forward armed at p=1.0 with a fixed delay), so the run is
// deterministic and does not depend on host speed to reach overload.
//
// Client connections come from a shared serve::ClientPool — the same
// bounded, EINTR-safe reuse layer the router's backend links use — so the
// bench also exercises (and reports) connection reuse under load.
//
// Extra knobs on top of the common ones (bench/common.h):
//   REBERT_OVERLOAD_BENCH       benchmark to serve          (default b07)
//   REBERT_OVERLOAD_REQUESTS    requests per client         (default 60)
//   REBERT_OVERLOAD_CLIENTS     overload client threads     (default 8)
//   REBERT_OVERLOAD_INFLIGHT    engine admission budget     (default 2)
//   REBERT_OVERLOAD_FORWARD_MS  injected forward latency    (default 2)
//
// Phases (one CSV row each):
//   unloaded  1 client, no contention — the latency baseline
//   overload  N clients, no retry — measures shedding + accepted latency
//   retry     N clients via Client::request_with_retry — goodput with the
//             deterministic capped backoff honouring retry_after_ms
//
// `--connections N` (or REBERT_OVERLOAD_CONNECTIONS) additionally sweeps
// the reactor's C10K claim: 100 / 1000 / N connected-but-idle sockets
// held open while active traffic runs, reporting the process thread
// count, RSS, and accepted-request p95 at each point. The run fails when
// the thread count grows with the connection count (the reactor must be
// O(1) threads) or when p95 at the top of the sweep degrades by more
// than 5x over the 100-connection baseline. Both ends of every
// connection live in this process, so N is clamped to what RLIMIT_NOFILE
// (raised to its hard limit first) can hold.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bench/common.h"
#include "runtime/fault_injector.h"
#include "runtime/threads.h"
#include "serve/client_pool.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/serve_loop.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/string_utils.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace rebert;

struct PhaseResult {
  int clients = 0;
  int requests = 0;       // issued
  int accepted = 0;       // answered `ok ...`
  int shed = 0;           // answered `err overloaded ...`
  int errors = 0;         // anything else (should stay 0)
  int bad_shed = 0;       // shed responses missing retry_after_ms
  std::uint64_t retries = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;    // accepted requests only
};

PhaseResult run_phase(serve::ClientPool& pool, const std::string& bench,
                      const std::vector<std::string>& bits, int clients,
                      int requests_per_client, bool with_retry) {
  PhaseResult result;
  result.clients = clients;
  result.requests = clients * requests_per_client;
  std::atomic<int> accepted{0}, shed{0}, errors{0}, bad_shed{0};
  const std::uint64_t retries_before = pool.retries();
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      util::Rng rng(0x0ffe12ULL + static_cast<std::uint64_t>(c));
      std::vector<double>& mine = latencies[static_cast<std::size_t>(c)];
      const int num_bits = static_cast<int>(bits.size());
      for (int r = 0; r < requests_per_client; ++r) {
        const std::string& a = bits[static_cast<std::size_t>(
            rng.uniform_int(0, num_bits - 1))];
        const std::string& b = bits[static_cast<std::size_t>(
            rng.uniform_int(0, num_bits - 1))];
        const std::string line = "score " + bench + " " + a + " " + b;
        util::WallTimer timer;
        serve::ClientPool::Lease lease = pool.acquire();
        if (!lease) {
          errors.fetch_add(1);
          continue;
        }
        std::string response;
        try {
          response = with_retry ? lease->request_with_retry(line)
                                : lease->request(line);
        } catch (const std::exception&) {
          lease.discard();
          errors.fetch_add(1);
          continue;
        }
        const double seconds = timer.seconds();
        if (util::starts_with(response, "ok ")) {
          accepted.fetch_add(1);
          mine.push_back(seconds);
        } else if (util::starts_with(response, "err overloaded")) {
          shed.fetch_add(1);
          if (serve::parse_retry_after_ms(response) < 0)
            bad_shed.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  result.accepted = accepted.load();
  result.shed = shed.load();
  result.errors = errors.load();
  result.bad_shed = bad_shed.load();
  // Leases were all returned at join, so the pool-level aggregate is
  // complete for this phase.
  result.retries = pool.retries() - retries_before;
  std::vector<double> all;
  for (const std::vector<double>& client : latencies)
    all.insert(all.end(), client.begin(), client.end());
  std::sort(all.begin(), all.end());
  result.p50_ms = 1000.0 * benchharness::percentile(all, 0.50);
  result.p95_ms = 1000.0 * benchharness::percentile(all, 0.95);
  return result;
}

/// Open `count` connected-but-silent sockets against the daemon. Stops
/// early (with a note) if the descriptor budget runs out.
std::vector<int> open_idle_connections(const std::string& path, int count) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  std::vector<int> idle;
  idle.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) break;
    int result;
    do {
      result = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                         sizeof(addr));
    } while (result != 0 && errno == EINTR);
    if (result != 0) {
      ::close(fd);
      break;
    }
    idle.push_back(fd);
  }
  if (static_cast<int>(idle.size()) < count)
    std::printf("note: opened %zu of %d idle connections (fd budget)\n",
                idle.size(), count);
  return idle;
}

/// Raise RLIMIT_NOFILE to its hard limit and return how many idle
/// connections this process can hold — both the client and the server
/// end of every connection are in-process, so each one costs two
/// descriptors; keep headroom for everything else.
int max_idle_connections() {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 1000;
  if (limit.rlim_cur < limit.rlim_max) {
    limit.rlim_cur = limit.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &limit);
    (void)::getrlimit(RLIMIT_NOFILE, &limit);
  }
  const long budget = (static_cast<long>(limit.rlim_cur) - 256) / 2;
  return static_cast<int>(std::max(100L, budget));
}

}  // namespace

int main(int argc, char** argv) {
  benchharness::BenchSetup setup = benchharness::load_bench_setup();

  const std::string bench =
      util::env_string("REBERT_OVERLOAD_BENCH", "b07");
  const int requests = util::env_int("REBERT_OVERLOAD_REQUESTS", 60);
  const int clients =
      std::max(2, util::env_int("REBERT_OVERLOAD_CLIENTS", 8));
  const int max_inflight =
      std::max(1, util::env_int("REBERT_OVERLOAD_INFLIGHT", 2));
  const int forward_ms =
      std::max(1, util::env_int("REBERT_OVERLOAD_FORWARD_MS", 2));
  int connections = util::env_int("REBERT_OVERLOAD_CONNECTIONS", 0);
  for (int arg = 1; arg + 1 < argc; ++arg)
    if (std::strcmp(argv[arg], "--connections") == 0)
      connections = std::atoi(argv[arg + 1]);

  // Deterministic slowness: every forward sleeps forward_ms, so a handful
  // of clients reliably exceeds the admission budget on any host.
  runtime::FaultInjector::global().arm("model.forward", 1.0, 7, forward_ms);

  serve::EngineOptions options;
  options.num_threads = 2;
  options.suite_scale = setup.scale;
  options.experiment = setup.options;
  options.max_inflight = max_inflight;
  options.retry_after_ms = 5;
  serve::InferenceEngine engine(options);
  const std::vector<std::string> bits = engine.bit_names(bench);

  const std::string socket_path =
      "/tmp/rebert_overload_" + std::to_string(::getpid()) + ".sock";
  serve::ServeLoop loop(engine);
  // Shedding needs more concurrent dispatches than the admission budget;
  // the dispatch pool (not a thread per connection) is what bounds them.
  loop.set_dispatch_threads(std::max(16, clients + 4));
  std::thread server([&] { loop.run_unix_socket(socket_path); });
  serve::ClientPool pool(socket_path);

  std::printf("=== Serve overload: %s (scale %.2f), budget %d in-flight, "
              "%d ms/forward, %d request(s)/client ===\n",
              bench.c_str(), setup.scale, max_inflight, forward_ms,
              requests);
  util::TextTable table({"phase", "clients", "requests", "accepted", "shed",
                         "shed rate", "p50 (ms)", "p95 (ms)", "p95 / base",
                         "retries"});
  util::CsvWriter csv("serve_overload.csv",
                      {"phase", "clients", "requests", "accepted", "shed",
                       "shed_rate", "p50_ms", "p95_ms", "p95_over_unloaded",
                       "retries", "shed_with_retry_after", "errors"});

  struct Phase {
    const char* name;
    int clients;
    bool with_retry;
  };
  const Phase phases[] = {{"unloaded", 1, false},
                          {"overload", clients, false},
                          {"retry", clients, true}};
  double unloaded_p95 = 0.0;
  int failures = 0;
  for (const Phase& phase : phases) {
    const PhaseResult result = run_phase(pool, bench, bits, phase.clients,
                                         requests, phase.with_retry);
    if (unloaded_p95 == 0.0) unloaded_p95 = result.p95_ms;
    const double ratio =
        unloaded_p95 > 0.0 ? result.p95_ms / unloaded_p95 : 0.0;
    const double shed_rate =
        result.requests > 0
            ? static_cast<double>(result.shed) / result.requests
            : 0.0;
    table.add_row({phase.name, std::to_string(result.clients),
                   std::to_string(result.requests),
                   std::to_string(result.accepted),
                   std::to_string(result.shed),
                   util::format_double(shed_rate, 3),
                   util::format_double(result.p50_ms, 3),
                   util::format_double(result.p95_ms, 3),
                   util::format_double(ratio, 2) + "x",
                   std::to_string(result.retries)});
    csv.add_row({phase.name, std::to_string(result.clients),
                 std::to_string(result.requests),
                 std::to_string(result.accepted),
                 std::to_string(result.shed),
                 util::format_double(shed_rate, 4),
                 util::format_double(result.p50_ms, 4),
                 util::format_double(result.p95_ms, 4),
                 util::format_double(ratio, 3),
                 std::to_string(result.retries),
                 std::to_string(result.shed - result.bad_shed),
                 std::to_string(result.errors)});
    if (result.bad_shed > 0) {
      std::printf("FAIL: %d shed response(s) missing retry_after_ms\n",
                  result.bad_shed);
      ++failures;
    }
    if (result.errors > 0) {
      std::printf("FAIL: %d non-ok, non-overloaded response(s) in phase "
                  "%s\n", result.errors, phase.name);
      ++failures;
    }
  }

  if (connections > 0) {
    // The C10K sweep: hold an idle herd at each point, run active traffic
    // through it, and demand a flat thread count — the reactor plus the
    // dispatch pool serve 10k connections with exactly the threads they
    // serve 100 with.
    const int cap = max_idle_connections();
    if (connections > cap) {
      std::printf("note: --connections %d clamped to %d by RLIMIT_NOFILE\n",
                  connections, cap);
      connections = cap;
    }
    std::vector<int> sweep_counts;
    for (const int count : {100, 1000, connections})
      if (count <= connections &&
          (sweep_counts.empty() || count > sweep_counts.back()))
        sweep_counts.push_back(count);

    util::TextTable sweep_table({"idle conns", "threads", "rss (MiB)",
                                 "accepted", "shed", "p50 (ms)", "p95 (ms)",
                                 "p95 / base"});
    util::CsvWriter sweep_csv(
        "serve_c10k.csv", {"idle_connections", "threads", "rss_kb",
                           "accepted", "shed", "errors", "p50_ms", "p95_ms",
                           "p95_over_baseline"});
    int baseline_threads = 0;
    double baseline_p95 = 0.0;
    for (const int count : sweep_counts) {
      std::vector<int> idle = open_idle_connections(socket_path, count);
      // Active mix through the idle herd: a couple of clients, same
      // deterministic request stream as the unloaded phase.
      const PhaseResult active =
          run_phase(pool, bench, bits, 2, requests, /*with_retry=*/false);
      const int threads = runtime::current_thread_count();
      const long rss_kb = runtime::current_rss_kb();
      for (const int fd : idle) ::close(fd);
      if (baseline_threads == 0) baseline_threads = threads;
      if (baseline_p95 == 0.0) baseline_p95 = active.p95_ms;
      const double ratio =
          baseline_p95 > 0.0 ? active.p95_ms / baseline_p95 : 0.0;
      sweep_table.add_row(
          {std::to_string(idle.size()), std::to_string(threads),
           util::format_double(static_cast<double>(rss_kb) / 1024.0, 1),
           std::to_string(active.accepted), std::to_string(active.shed),
           util::format_double(active.p50_ms, 3),
           util::format_double(active.p95_ms, 3),
           util::format_double(ratio, 2) + "x"});
      sweep_csv.add_row(
          {std::to_string(idle.size()), std::to_string(threads),
           std::to_string(rss_kb), std::to_string(active.accepted),
           std::to_string(active.shed), std::to_string(active.errors),
           util::format_double(active.p50_ms, 4),
           util::format_double(active.p95_ms, 4),
           util::format_double(ratio, 3)});
      if (threads != baseline_threads) {
        std::printf("FAIL: thread count grew with connections "
                    "(%d at %d conns vs %d at baseline)\n",
                    threads, count, baseline_threads);
        ++failures;
      }
      if (active.errors > 0) {
        std::printf("FAIL: %d errored request(s) at %d idle connections\n",
                    active.errors, count);
        ++failures;
      }
      if (ratio > 5.0) {
        std::printf("FAIL: active p95 degraded %.1fx at %d idle "
                    "connections\n", ratio, count);
        ++failures;
      }
    }
    std::printf("=== C10K sweep: idle connections vs threads / p95 ===\n");
    sweep_table.print();
    std::printf("CSV: serve_c10k.csv\n");
  }

  loop.stop();
  server.join();
  // Read the stats before disarming — disarm_all resets the trip counter.
  const serve::EngineStats stats = engine.stats();
  runtime::FaultInjector::global().disarm_all();

  table.print();
  std::printf("CSV: serve_overload.csv\n");
  std::printf("engine: shed_requests=%llu faults_injected=%llu\n",
              static_cast<unsigned long long>(stats.shed_requests),
              static_cast<unsigned long long>(stats.faults_injected));
  std::printf("pool: created=%llu reused=%llu discarded=%llu idle=%zu\n",
              static_cast<unsigned long long>(pool.created()),
              static_cast<unsigned long long>(pool.reused()),
              static_cast<unsigned long long>(pool.discarded()),
              pool.idle());
  return failures == 0 ? 0 : 1;
}
