// Sharded serving throughput — the router-tier headline number: aggregate
// QPS of mixed-bench score traffic through one router endpoint backed by
// real multi-process serve daemons at N = 1, 2, 4, 8 backends, plus an
// R = 2 kill drill showing that losing a backend's primary does not cost
// the fleet a single cold cache miss: the victim's key range is answered
// warm by its mirror-fed secondary.
//
// Each backend is a genuine child process (fork before any parent thread
// exists) running the standard engine + serve loop on its own Unix socket.
// The parent drives router::Router::handle_line directly from client
// threads, so the measured path is exactly the production relay: router ->
// ClientPool -> AF_UNIX socket -> backend engine.
//
// Scaling phases: to make the curve deterministic on any host, each
// backend is made predictably slow (fault injector latency on
// model.forward, prediction cache off) and given a small admission budget,
// so per-process throughput is capped by injected latency x budget rather
// than by host core count. N backends then hold N budgets -> ~Nx aggregate
// QPS while the suite's key ranges span N owners (with a handful of suite
// benches the curve flattens once N exceeds the distinct-owner count —
// that plateau is the honest answer, so only the N = 2 row is gated).
// Replication is OFF for these rows (replicas = 1, no mirror queue): the
// scaling number measures capacity, and mirror replay would silently
// spend a second backend's budget per request. Shed requests are retried
// after the advisory retry_after_ms, so every request completes and the
// phase wall-clock is an honest completion time.
//
// Kill drill: two dedicated cache-ON backends behind a replicas = 2
// router with the mirror queue enabled. The parent primes every bench's
// score lines through the router (primary answers, secondary is warmed
// asynchronously by mirror replay), waits for the mirror queue to drain,
// snapshots the survivor's cache_misses over its direct socket, SIGKILLs
// the primary-heavy victim, and resends the exact same lines. Every line
// must answer `ok` from the survivor without a single new cache miss
// (zero cold misses), with p95 bounded and replica_hits recorded.
//
// Extra knobs on top of the common ones (bench/common.h):
//   REBERT_SHARDED_REQUESTS      timed requests per phase      (default 240)
//   REBERT_SHARDED_CLIENTS       client threads                (default 12)
//   REBERT_SHARDED_INFLIGHT      per-backend admission budget  (default 2)
//   REBERT_SHARDED_FORWARD_MS    injected forward latency      (default 10)
//   REBERT_SHARDED_MIN_SPEEDUP   required 2-backend speedup    (default 1.6)
//   REBERT_SHARDED_DRILL_P95_MS  kill-drill p95 ceiling, ms    (default 500)
//
// Phases (one CSV row each):
//   1backend   router -> backend0 only — the single-process baseline
//   2backends  same traffic across 2 owners — the gated speedup row
//   4backends  ... across 4 owners — curve point
//   8backends  ... across 8 owners — curve point
//   killdrill  R = 2 failover resend after SIGKILLing the primary; gated
//              on zero survivor cold misses and the p95 ceiling
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench/common.h"
#include "nl/words.h"
#include "router/hash_ring.h"
#include "router/router.h"
#include "runtime/fault_injector.h"
#include "serve/client.h"
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

constexpr int kScalingBackends = 8;
constexpr int kScalingPoints[] = {1, 2, 4, 8};
constexpr int kDrillBackends = 2;

// Child-process body: a standard serve daemon. Scaling backends
// (forward_ms > 0) are made predictably slow and cache-free so the
// parent's throughput numbers are a function of the injected latency and
// the admission budget, not of host speed. Drill backends (forward_ms
// <= 0) keep the prediction cache ON and run at native speed so cache
// warmth is observable. Never returns.
[[noreturn]] void run_backend(const benchharness::BenchSetup& setup,
                              const std::string& socket_path,
                              int max_inflight, int forward_ms) {
  serve::EngineOptions options;
  options.num_threads = 2;
  options.suite_scale = setup.scale;
  options.experiment = setup.options;
  options.max_inflight = max_inflight;
  if (forward_ms > 0) {
    runtime::FaultInjector::global().arm("model.forward", 1.0, 11,
                                         forward_ms);
    options.experiment.pipeline.use_prediction_cache = false;
    // Advise retries at about half a service time: long enough that shed
    // clients are not hammering the socket, short enough to re-arrive
    // while the slot they are waiting for is still draining.
    options.retry_after_ms = std::max(2, forward_ms / 2);
  }
  serve::InferenceEngine engine(options);
  serve::ServeLoop loop(engine);
  loop.run_unix_socket(socket_path);
  std::_Exit(0);
}

bool wait_ready(const std::string& socket_path, int timeout_ms) {
  const int slice_ms = 50;
  for (int waited = 0; waited <= timeout_ms; waited += slice_ms) {
    serve::ClientOptions options;
    options.connect_attempts = 1;
    serve::Client client(socket_path, options);
    if (client.connect()) {
      try {
        if (util::starts_with(client.request("health"), "ok")) return true;
      } catch (const std::exception&) {
        // Backend still booting; fall through to the sleep.
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(slice_ms));
  }
  return false;
}

// One stat field from a backend's direct `stats` reply, e.g.
// backend_stat(sock, "cache_misses="). Returns -1 when unreachable.
long long backend_stat(const std::string& socket_path,
                       const std::string& key) {
  serve::ClientOptions options;
  options.connect_attempts = 3;
  serve::Client client(socket_path, options);
  if (!client.connect()) return -1;
  try {
    const std::string reply = client.request("stats");
    const std::size_t at = reply.find(key);
    if (at == std::string::npos) return -1;
    return std::atoll(reply.c_str() + at + key.size());
  } catch (const std::exception&) {
    return -1;
  }
}

struct PhaseResult {
  int requests = 0;
  int completed = 0;   // answered `ok ...` (possibly after retries)
  int sheds = 0;       // overload / no_backend answers that were retried
  int errors = 0;      // anything else (should stay 0)
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
};

// Drive `lines` to completion through the router from `clients` threads.
// Shed answers are retried after the advisory delay, so completed counts
// requests, not attempts, and seconds is the full completion wall-clock.
PhaseResult run_phase(router::Router& router,
                      const std::vector<std::string>& lines, int clients) {
  PhaseResult result;
  result.requests = static_cast<int>(lines.size());
  std::atomic<int> next{0};
  std::atomic<int> completed{0}, sheds{0}, errors{0};
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  util::WallTimer wall;
  std::vector<std::thread> workers;
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      std::vector<double>& mine = latencies[static_cast<std::size_t>(c)];
      int index;
      while ((index = next.fetch_add(1)) < result.requests) {
        const std::string& line =
            lines[static_cast<std::size_t>(index)];
        util::WallTimer timer;
        for (;;) {
          bool quit = false;
          const std::string response = router.handle_line(line, &quit);
          if (util::starts_with(response, "ok ")) {
            completed.fetch_add(1);
            mine.push_back(timer.seconds());
            break;
          }
          if (util::starts_with(response, "err overloaded") ||
              util::starts_with(response, "err no_backend")) {
            sheds.fetch_add(1);
            const int advised = serve::parse_retry_after_ms(response);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(std::max(1, advised)));
            continue;
          }
          errors.fetch_add(1);
          break;
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  result.seconds = wall.seconds();
  result.completed = completed.load();
  result.sheds = sheds.load();
  result.errors = errors.load();
  std::vector<double> all;
  for (const std::vector<double>& client : latencies)
    all.insert(all.end(), client.begin(), client.end());
  std::sort(all.begin(), all.end());
  result.qps = result.seconds > 0.0
                   ? static_cast<double>(result.completed) / result.seconds
                   : 0.0;
  result.p50_ms = 1000.0 * benchharness::percentile(all, 0.50);
  result.p95_ms = 1000.0 * benchharness::percentile(all, 0.95);
  return result;
}

// Scaling rows measure raw capacity: single-owner placement, no mirror
// traffic spending a second backend's admission budget per request.
router::RouterOptions scaling_router_options() {
  router::RouterOptions options;
  // Fail fast on a dead socket: unreachability should be detected in
  // ~50ms, not the 2s a cold-start connect budget allows.
  options.client.connect_attempts = 5;
  options.client.connect_poll_ms = 10;
  options.retry_after_ms = 2;
  options.replicas = 1;
  options.mirror_queue_depth = 0;
  return options;
}

// The kill drill runs the shipped replication defaults: R = 2 with the
// bounded mirror queue warming each bench's secondary. Probes are off so
// the drill provably measures IN-BAND failover — the dead socket must be
// discovered and absorbed inside the request dispatch itself, not by a
// background probe that happens to win the race.
router::RouterOptions drill_router_options() {
  router::RouterOptions options;
  options.client.connect_attempts = 5;
  options.client.connect_poll_ms = 10;
  options.retry_after_ms = 2;
  options.replicas = 2;
  options.probe_interval_ms = 0;
  return options;
}

}  // namespace

int main() {
  benchharness::BenchSetup setup = benchharness::load_bench_setup();

  const int requests =
      std::max(20, util::env_int("REBERT_SHARDED_REQUESTS", 240));
  const int clients =
      std::max(2, util::env_int("REBERT_SHARDED_CLIENTS", 12));
  const int max_inflight =
      std::max(1, util::env_int("REBERT_SHARDED_INFLIGHT", 2));
  const int forward_ms =
      std::max(1, util::env_int("REBERT_SHARDED_FORWARD_MS", 10));
  const double min_speedup =
      util::env_double("REBERT_SHARDED_MIN_SPEEDUP", 1.6);
  const double drill_p95_ms =
      util::env_double("REBERT_SHARDED_DRILL_P95_MS", 500.0);

  const std::string socket_base =
      "/tmp/rebert_sharded_" + std::to_string(::getpid());
  const int total_backends = kScalingBackends + kDrillBackends;
  std::vector<std::string> sockets;
  for (int i = 0; i < kScalingBackends; ++i)
    sockets.push_back(socket_base + ".backend" + std::to_string(i) +
                      ".sock");
  for (int i = 0; i < kDrillBackends; ++i)
    sockets.push_back(socket_base + ".drill" + std::to_string(i) + ".sock");

  // Fork every backend before the parent creates any thread (client
  // workers, pool sockets): fork+threads do not mix. The last two are the
  // drill pair — prediction cache ON, no injected latency, a roomy
  // admission budget — so cache warmth is what the drill measures.
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> pids(static_cast<std::size_t>(total_backends), -1);
  for (int i = 0; i < total_backends; ++i) {
    const bool drill = i >= kScalingBackends;
    pids[static_cast<std::size_t>(i)] = ::fork();
    if (pids[static_cast<std::size_t>(i)] == 0)
      run_backend(setup, sockets[static_cast<std::size_t>(i)],
                  drill ? 8 : max_inflight, drill ? 0 : forward_ms);
    if (pids[static_cast<std::size_t>(i)] < 0) {
      std::perror("fork");
      return 1;
    }
  }

  // Pick traffic that provably spans both key ranges at N = 2 — that is
  // the gated row. The ring places keys by backend NAME, so the parent
  // (a) computes each suite bench's owner with the same deterministic
  // HashRing the router uses, and (b) salts the backend names (one common
  // suffix for all N) until the suite splits across the first two owners —
  // with only a handful of suite benches, one fixed name pair can
  // legitimately end up owning every key. The N = 4 / 8 rows reuse the
  // same salted names; their placement is whatever the hash gives, which
  // is the honest curve.
  std::vector<std::string> names(
      static_cast<std::size_t>(kScalingBackends));
  for (int i = 0; i < kScalingBackends; ++i)
    names[static_cast<std::size_t>(i)] = "backend" + std::to_string(i);
  std::vector<std::string> owned_by[2];
  std::size_t per_side = 0;
  for (int salt = 0; salt < 64; ++salt) {
    const std::string suffix = salt == 0 ? "" : "." + std::to_string(salt);
    const std::string trial[2] = {"backend0" + suffix, "backend1" + suffix};
    router::HashRing placement;
    placement.add(trial[0]);
    placement.add(trial[1]);
    std::vector<std::string> trial_owned[2];
    for (const std::string& name : setup.benchmark_names)
      trial_owned[placement.node_for(name) == trial[0] ? 0 : 1].push_back(
          name);
    const std::size_t side =
        std::min(trial_owned[0].size(), trial_owned[1].size());
    if (side > per_side) {
      per_side = side;
      for (int i = 0; i < kScalingBackends; ++i)
        names[static_cast<std::size_t>(i)] =
            "backend" + std::to_string(i) + suffix;
      owned_by[0] = trial_owned[0];
      owned_by[1] = trial_owned[1];
      // Stop at an (almost) even split; an odd-sized suite can't do better.
      if (2 * side + 1 >= setup.benchmark_names.size()) break;
    }
  }
  std::vector<std::string> benches;
  for (std::size_t i = 0; i < per_side; ++i) {
    benches.push_back(owned_by[0][i]);
    benches.push_back(owned_by[1][i]);
  }
  const bool balanced = per_side > 0;
  if (!balanced) {
    // 64 salts all failed — possible only for a 0/1-bench suite. Still
    // run, but the speedup gate would be meaningless, so skip it.
    std::printf("WARN: all benches hash to one backend; "
                "skipping the speedup gate\n");
    benches = setup.benchmark_names;
  }
  benches.resize(std::min<std::size_t>(benches.size(), 6));

  // Bit names per bench, derived the same way the engine does — from the
  // deterministic generated netlist — so the parent never needs an engine.
  std::map<std::string, std::vector<std::string>> bit_names;
  for (const std::string& name : benches) {
    gen::GeneratedCircuit generated =
        gen::generate_benchmark(name, setup.scale);
    std::vector<std::string> bits;
    for (const nl::Bit& bit : nl::extract_bits(generated.netlist))
      bits.push_back(bit.name);
    bit_names[name] = bits;
  }

  // Deterministic mixed-bench traffic: cycle the (interleaved) bench list
  // so both key ranges carry equal load.
  util::Rng rng(0x5a4dedULL);
  std::vector<std::string> lines;
  std::vector<std::string> warm_lines;
  for (const std::string& name : benches) {
    const std::vector<std::string>& bits = bit_names[name];
    warm_lines.push_back("score " + name + " " + bits[0] + " " +
                         bits[std::min<std::size_t>(1, bits.size() - 1)]);
  }
  for (int r = 0; r < requests; ++r) {
    const std::string& name =
        benches[static_cast<std::size_t>(r) % benches.size()];
    const std::vector<std::string>& bits = bit_names[name];
    const int num_bits = static_cast<int>(bits.size());
    const std::string& a = bits[static_cast<std::size_t>(
        rng.uniform_int(0, num_bits - 1))];
    const std::string& b = bits[static_cast<std::size_t>(
        rng.uniform_int(0, num_bits - 1))];
    lines.push_back("score " + name + " " + a + " " + b);
  }

  // The drill replays a fixed per-bench working set twice (prime, then
  // failover resend), so warm really means "this exact line was scored
  // before" — 4 deterministic bit pairs per bench.
  std::vector<std::string> drill_lines;
  for (const std::string& name : benches) {
    const std::vector<std::string>& bits = bit_names[name];
    const int num_bits = static_cast<int>(bits.size());
    for (int pair = 0; pair < 4; ++pair) {
      const std::string& a =
          bits[static_cast<std::size_t>(pair % num_bits)];
      const std::string& b = bits[static_cast<std::size_t>(
          (pair * 7 + 1) % num_bits)];
      drill_lines.push_back("score " + name + " " + a + " " + b);
    }
  }

  int failures = 0;
  for (int i = 0; i < total_backends; ++i) {
    if (!wait_ready(sockets[static_cast<std::size_t>(i)], 120000)) {
      std::printf("FAIL: backend %d never became healthy at %s\n", i,
                  sockets[static_cast<std::size_t>(i)].c_str());
      ++failures;
    }
  }

  std::printf("=== Serve sharded: %zu benches (scale %.2f), %d requests, "
              "%d client(s), budget %d in-flight/backend, %d ms/forward "
              "===\n",
              benches.size(), setup.scale, requests, clients, max_inflight,
              forward_ms);
  util::TextTable table({"phase", "backends", "requests", "completed",
                         "shed", "qps", "p50 (ms)", "p95 (ms)", "speedup"});
  util::CsvWriter csv("serve_sharded.csv",
                      {"phase", "backends", "requests", "completed", "shed",
                       "errors", "qps", "p50_ms", "p95_ms", "speedup"});
  const auto report = [&](const std::string& phase, int backends,
                          const PhaseResult& result, double speedup) {
    table.add_row({phase, std::to_string(backends),
                   std::to_string(result.requests),
                   std::to_string(result.completed),
                   std::to_string(result.sheds),
                   util::format_double(result.qps, 1),
                   util::format_double(result.p50_ms, 3),
                   util::format_double(result.p95_ms, 3),
                   speedup > 0.0 ? util::format_double(speedup, 2) + "x"
                                 : std::string("-")});
    csv.add_row({phase, std::to_string(backends),
                 std::to_string(result.requests),
                 std::to_string(result.completed),
                 std::to_string(result.sheds),
                 std::to_string(result.errors),
                 util::format_double(result.qps, 1),
                 util::format_double(result.p50_ms, 4),
                 util::format_double(result.p95_ms, 4),
                 util::format_double(speedup, 3)});
    if (result.completed != result.requests || result.errors != 0) {
      std::printf("FAIL: phase %s lost requests (%d/%d completed, "
                  "%d errors)\n",
                  phase.c_str(), result.completed, result.requests,
                  result.errors);
      ++failures;
    }
  };

  // Scaling curve: a fresh single-owner router over the first N backends
  // for each N in {1, 2, 4, 8}. Only the N = 2 point is gated; the rest
  // chart where the suite's distinct-owner count flattens the curve.
  double qps_one = 0.0;
  for (const int n : kScalingPoints) {
    if (failures != 0) break;
    router::Router router(scaling_router_options());
    for (int i = 0; i < n; ++i)
      router.add_backend(names[static_cast<std::size_t>(i)],
                         sockets[static_cast<std::size_t>(i)]);
    (void)run_phase(router, warm_lines, 1);  // build bench contexts untimed
    const PhaseResult result = run_phase(router, lines, clients);
    if (n == 1) qps_one = result.qps;
    const double speedup =
        (n > 1 && qps_one > 0.0) ? result.qps / qps_one : 0.0;
    report(n == 1 ? "1backend" : std::to_string(n) + "backends", n, result,
           speedup);
    if (n == 2 && balanced && speedup < min_speedup) {
      std::printf("FAIL: 2-backend speedup %.2fx below the %.2fx gate\n",
                  speedup, min_speedup);
      ++failures;
    }
  }

  // Kill drill at R = 2: prime through the router, let the mirror queue
  // warm every bench's secondary, snapshot the survivor's cache_misses
  // over its direct socket, SIGKILL the victim, resend the same lines.
  // Zero new misses on the survivor == the victim's key range was served
  // warm — the headline robustness claim.
  if (failures == 0) {
    const std::string drill_names[2] = {"drillA", "drillB"};
    const std::string drill_sockets[2] = {
        sockets[static_cast<std::size_t>(kScalingBackends)],
        sockets[static_cast<std::size_t>(kScalingBackends + 1)]};
    router::Router router(drill_router_options());
    router.add_backend(drill_names[0], drill_sockets[0]);
    router.add_backend(drill_names[1], drill_sockets[1]);

    const PhaseResult prime = run_phase(router, drill_lines, clients);
    if (prime.completed != prime.requests || prime.errors != 0) {
      std::printf("FAIL: drill prime lost requests (%d/%d, %d errors)\n",
                  prime.completed, prime.requests, prime.errors);
      ++failures;
    }
    if (!router.wait_mirror_idle(30000)) {
      std::printf("FAIL: mirror queue never drained after priming\n");
      ++failures;
    }

    // Victim = the primary of the majority of benches, so the resend
    // exercises real failover (secondary answering) for most of the
    // traffic rather than a corner of it.
    int primaries[2] = {0, 0};
    for (const std::string& name : benches)
      ++primaries[router.backend_for(name) == drill_names[0] ? 0 : 1];
    const int victim = primaries[0] >= primaries[1] ? 0 : 1;
    const int survivor = 1 - victim;
    const long long misses_before =
        backend_stat(drill_sockets[survivor], "cache_misses=");
    if (misses_before < 0) {
      std::printf("FAIL: survivor %s unreachable for the pre-kill stats\n",
                  drill_names[survivor].c_str());
      ++failures;
    }

    const std::size_t drill_pid_index =
        static_cast<std::size_t>(kScalingBackends + victim);
    ::kill(pids[drill_pid_index], SIGKILL);
    ::waitpid(pids[drill_pid_index], nullptr, 0);
    pids[drill_pid_index] = -1;

    const PhaseResult drill = run_phase(router, drill_lines, clients);
    report("killdrill", 1, drill, 0.0);
    const long long misses_after =
        backend_stat(drill_sockets[survivor], "cache_misses=");
    const router::RouterStats stats = router.stats();
    std::printf("drill: victim=%s survivor=%s cache_misses %lld -> %lld "
                "replica_hits=%llu mirrored=%llu mirror_dropped=%llu "
                "reroutes=%llu\n",
                drill_names[victim].c_str(), drill_names[survivor].c_str(),
                misses_before, misses_after,
                static_cast<unsigned long long>(stats.replica_hits),
                static_cast<unsigned long long>(stats.mirrored),
                static_cast<unsigned long long>(stats.mirror_dropped),
                static_cast<unsigned long long>(stats.reroutes));
    if (misses_after != misses_before) {
      std::printf("FAIL: survivor took %lld cold misses during failover "
                  "(warm mirror should have covered the victim's range)\n",
                  misses_after - misses_before);
      ++failures;
    }
    if (stats.mirrored == 0) {
      std::printf("FAIL: mirror queue never warmed the secondary\n");
      ++failures;
    }
    if (primaries[victim] > 0 && stats.replica_hits == 0) {
      std::printf("FAIL: kill drill answered without any replica hit\n");
      ++failures;
    }
    if (stats.reroutes == 0) {
      std::printf("FAIL: kill drill produced no reroutes\n");
      ++failures;
    }
    if (drill.p95_ms > drill_p95_ms) {
      std::printf("FAIL: kill-drill p95 %.3f ms above the %.1f ms "
                  "ceiling\n",
                  drill.p95_ms, drill_p95_ms);
      ++failures;
    }
  }

  for (int i = 0; i < total_backends; ++i) {
    if (pids[static_cast<std::size_t>(i)] > 0) {
      ::kill(pids[static_cast<std::size_t>(i)], SIGKILL);
      ::waitpid(pids[static_cast<std::size_t>(i)], nullptr, 0);
    }
    ::unlink(sockets[static_cast<std::size_t>(i)].c_str());
  }

  table.print();
  std::printf("CSV: serve_sharded.csv\n");
  return failures == 0 ? 0 : 1;
}
