// serve-score workload: a `rebert_cli serve` daemon as a child process,
// primed with every ordered pair of b17's sequence classes, then driven by
// an open loop of single-pair score requests with Poisson arrivals over
// 2 text and 2 binary connections from one thread.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <random>
#include <stdexcept>
#include <thread>

#include "circuitgen/suite.h"
#include "common.h"
#include "nl/words.h"
#include "rebert/prediction_cache.h"
#include "serve/engine.h"
#include "serve/serve_loop.h"
#include "stats.h"
#include "util/string_utils.h"
#include "util/timer.h"
#include "wire/frame.h"
#include "wire/message.h"

namespace rebert::e2e {

namespace {

constexpr const char* kBench = "b17";
constexpr double kRate = 4000.0;         // requests/s, see README.md
constexpr double kSloMs = 10.0;          // latency limit of ok_ratio
constexpr double kWarmupSeconds = 1.0;
constexpr int kConnections = 4;          // 2 text + 2 binary
constexpr int kSetupSpawns = 3;
constexpr double kProbeSeconds = 3.0;  // open loop of a traced recover run
constexpr std::int64_t kB17Classes = 166;

using Clock = std::chrono::steady_clock;

double since(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

/// A `rebert_cli serve` child process; stopped and reaped on destruction.
class Daemon {
 public:
  Daemon(const std::string& cli, const std::vector<std::string>& args,
         const std::string& log_path) {
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(cli.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) fail("fork: " + std::string(std::strerror(errno)));
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
        ::close(log);
      }
      ::execv(cli.c_str(), argv.data());
      ::_exit(127);
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool exited() {
    if (pid_ <= 0) return true;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  /// Peak resident set (VmHWM) of the daemon, in MB.
  double peak_rss_mb() const {
    FILE* f = std::fopen(("/proc/" + std::to_string(pid_) + "/status").c_str(), "r");
    if (!f) return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), f))
      if (std::strncmp(line, "VmHWM:", 6) == 0) kb = std::atof(line + 6);
    std::fclose(f);
    return kb / 1024.0;
  }

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 200; ++i) {
      if (exited()) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) fail("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) fail("socket: " + std::string(std::strerror(errno)));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) fail("send: " + std::string(std::strerror(errno)));
    off += static_cast<std::size_t>(n);
  }
}

/// One request of any phase, timed on the loop's clock (seconds).
struct Req {
  int a = -1, b = -1;  // bit indices; a < 0 marks a `stats` request
  int conn = 0;
  int phase = 0;       // see Phase
  double due = 0.0, sent = -1.0, done = -1.0;
  int status = 0;      // see Status
  double score = 0.0;  // binary answers
  std::string text;    // text answers: the payload after "ok "
};
enum Phase { kPrime = 0, kWarmup = 1, kTimed = 2, kProbe = 3 };
enum Status { kPending = 0, kOk = 1, kShed = 2, kError = 3 };

struct Conn {
  int fd = -1;
  bool binary = false;
  std::string out;
  std::string in;
  wire::FrameReader frames;
  std::deque<int> inflight;  // request ids, in send order
};

class Traffic {
 public:
  Traffic(std::vector<Conn>& conns, const std::vector<std::string>& names)
      : conns_(conns), names_(names) {}

  /// Sends `ids` (sorted by due time) at their due times — an open loop —
  /// or, with window > 0, as fast as each connection's in-flight window
  /// allows. Answers are matched in order per connection. Returns false
  /// when answers were still missing at `deadline` seconds.
  bool run(std::vector<Req>& reqs, const std::vector<int>& ids, int window,
           double deadline) {
    const Clock::time_point origin = Clock::now();
    std::size_t next = 0;
    std::size_t outstanding = 0;
    std::vector<pollfd> fds(conns_.size());
    while (next < ids.size() || outstanding > 0) {
      double t = since(origin);
      if (t > deadline) return false;
      while (next < ids.size()) {
        Req& r = reqs[static_cast<std::size_t>(ids[next])];
        if (r.due > t) break;
        Conn& c = conns_[static_cast<std::size_t>(r.conn)];
        if (window > 0 && static_cast<int>(c.inflight.size()) >= window) break;
        c.out += encode(r, c.binary);
        r.sent = t;
        c.inflight.push_back(ids[next]);
        ++next;
        ++outstanding;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        flush(conns_[i]);
        fds[i] = {conns_[i].fd,
                  static_cast<short>(POLLIN | (conns_[i].out.empty() ? 0 : POLLOUT)), 0};
      }
      double wait = 0.01;
      if (next < ids.size()) {
        const Req& r = reqs[static_cast<std::size_t>(ids[next])];
        const Conn& c = conns_[static_cast<std::size_t>(r.conn)];
        if (window == 0 || static_cast<int>(c.inflight.size()) < window)
          wait = std::min(wait, std::max(0.0, r.due - since(origin)));
      }
      timespec ts{0, static_cast<long>(wait * 1e9)};
      const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
      if (ready < 0 && errno != EINTR) fail("ppoll: " + std::string(std::strerror(errno)));
      if (ready <= 0) continue;
      t = since(origin);
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
          outstanding -= receive(conns_[i], reqs, t);
      }
    }
    return true;
  }

 private:
  std::string encode(const Req& r, bool binary) const {
    if (binary) {
      wire::Request w;
      w.verb = r.a < 0 ? wire::Verb::kStats : wire::Verb::kScore;
      if (r.a >= 0) {
        w.bench = kBench;
        w.bit_a = names_[static_cast<std::size_t>(r.a)];
        w.bit_b = names_[static_cast<std::size_t>(r.b)];
      }
      return wire::encode_request(w);  // a complete frame
    }
    if (r.a < 0) return "stats\n";
    return std::string("score ") + kBench + " " +
           names_[static_cast<std::size_t>(r.a)] + " " +
           names_[static_cast<std::size_t>(r.b)] + "\n";
  }

  static void flush(Conn& c) {
    while (!c.out.empty()) {
      const ssize_t n = ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        c.out.erase(0, static_cast<std::size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else {
        fail("send: " + std::string(std::strerror(errno)));
      }
    }
  }

  /// Reads what is buffered and completes answered requests; returns how
  /// many completed.
  static std::size_t receive(Conn& c, std::vector<Req>& reqs, double t) {
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        if (c.binary) c.frames.feed(buf, static_cast<std::size_t>(n));
        else c.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      fail("serve daemon closed a connection");
    }
    std::size_t completed = 0;
    const auto complete = [&](int status, double score, std::string text) {
      if (c.inflight.empty()) fail("answer without a request");
      Req& r = reqs[static_cast<std::size_t>(c.inflight.front())];
      c.inflight.pop_front();
      r.done = t;
      r.status = status;
      r.score = score;
      r.text = std::move(text);
      ++completed;
    };
    if (c.binary) {
      wire::Frame frame;
      std::string error;
      for (;;) {
        const auto s = c.frames.next(&frame, &error);
        if (s == wire::FrameReader::Status::kNeedMore) break;
        if (s == wire::FrameReader::Status::kError) fail("wire: " + error);
        wire::Response response;
        if (frame.type != wire::FrameType::kResponse ||
            !wire::decode_response_payload(frame.payload, &response, &error)) {
          complete(kError, 0.0, "bad frame");
          continue;
        }
        if (response.status == wire::Status::kOk)
          complete(kOk, response.score, response.body);
        else
          complete(response.code == wire::ErrorCode::kOverloaded ? kShed : kError,
                   0.0, response.body);
      }
    } else {
      std::size_t start = 0, eol;
      while ((eol = c.in.find('\n', start)) != std::string::npos) {
        const std::string line = c.in.substr(start, eol - start);
        start = eol + 1;
        if (line.rfind("ok ", 0) == 0)
          complete(kOk, 0.0, line.substr(3));
        else
          complete(line.rfind("err overloaded", 0) == 0 ? kShed : kError, 0.0, line);
      }
      c.in.erase(0, start);
    }
    return completed;
  }

  std::vector<Conn>& conns_;
  const std::vector<std::string>& names_;
};

/// `key=<n>` from a stats payload.
double stats_field(const std::string& stats, const std::string& key) {
  const std::size_t at = stats.find(" " + key + "=");
  if (at == std::string::npos) return 0.0;
  return std::atof(stats.c_str() + at + key.size() + 2);
}

std::string stats_word(const std::string& stats, const std::string& key) {
  const std::size_t at = stats.find(key + "=");
  if (at == std::string::npos) return "";
  const std::size_t from = at + key.size() + 1;
  return stats.substr(from, stats.find(' ', from) - from);
}

/// A closed-loop request on one connection (setup and stats probes).
Req call(Traffic& traffic, std::vector<Req>& scratch, int conn, int a, int b) {
  scratch.assign(1, Req{});
  scratch[0].a = a;
  scratch[0].b = b;
  scratch[0].conn = conn;
  scratch[0].phase = kProbe;
  if (!traffic.run(scratch, {0}, 1, 60.0)) fail("serve daemon did not answer");
  return scratch[0];
}

/// One daemon session: start-up (`spawns` times; the last daemon stays),
/// priming, `seconds` of open loop, probes and checks. Reports the
/// serve-score metrics, or with `layers` the serve-path layer timings.
void serve_session(const Args& args, double seconds, int spawns, bool layers,
                   Report& report) {
  const core::ExperimentOptions options = cli_experiment_options();
  const int threads = nproc();

  // The served bench, generated in-process to name bits and find the
  // sequence classes the daemon's cache is primed with.
  const gen::GeneratedCircuit circuit = gen::generate_benchmark(kBench, 1.0);
  const std::vector<nl::Bit> bits = nl::extract_bits(circuit.netlist);
  const core::Tokenizer tokenizer(options.pipeline.tokenizer);
  const std::vector<core::BitSequence> seqs = tokenizer.tokenize_bits(circuit.netlist);
  std::vector<std::string> names;
  for (const nl::Bit& bit : bits) names.push_back(bit.name);
  std::map<std::uint64_t, std::vector<int>> class_members;
  for (std::size_t i = 0; i < seqs.size(); ++i)
    class_members[core::hash_sequence(0x5eedULL, seqs[i])].push_back(static_cast<int>(i));
  std::vector<const std::vector<int>*> classes;
  for (const auto& [digest, members] : class_members) classes.push_back(&members);
  report.check(static_cast<std::int64_t>(classes.size()) == kB17Classes,
               "b17 sequence classes " + std::to_string(classes.size()));
  std::vector<std::pair<int, int>> prime_pairs;
  for (const auto* ca : classes)
    for (const auto* cb : classes) {
      if (ca == cb && ca->size() < 2) continue;
      prime_pairs.emplace_back(ca->front(), ca == cb ? (*ca)[1] : cb->front());
    }

  const std::string tag = std::to_string(::getpid());
  const std::string checkpoint = args.run_dir + "/model-" + tag + ".rbtw";
  const std::string socket_path = args.run_dir + "/serve-" + tag + ".sock";
  save_fresh_checkpoint(options, checkpoint);
  const std::vector<std::string> daemon_args = {
      "serve", "--socket", socket_path, "--scale", "1.0",
      "--threads", std::to_string(threads), "--dispatch-threads",
      std::to_string(threads), "--model", checkpoint};
  const std::string log_path = args.run_dir + "/serve-" + tag + ".log";

  // setup_s: spawn -> first ready answer with the bench warmed, median of
  // kSetupSpawns daemons; the last one serves the run.
  std::vector<Req> scratch;
  std::vector<double> setup_samples, start_samples;
  std::unique_ptr<Daemon> daemon;
  std::vector<Conn> conns(kConnections);
  std::unique_ptr<Traffic> traffic;
  for (int spawn = 0; spawn < spawns; ++spawn) {
    if (daemon) daemon->stop();
    for (Conn& c : conns)
      if (c.fd >= 0) ::close(c.fd);
    conns.assign(kConnections, Conn{});
    ::unlink(socket_path.c_str());
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(args.cli, daemon_args, log_path);
    int fd = -1;
    while ((fd = connect_unix(socket_path)) < 0) {
      if (daemon->exited()) fail("serve daemon exited at start; see " + log_path);
      if (since(t0) > 60.0) fail("serve daemon did not listen within 60 s");
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    start_samples.push_back(since(t0));
    conns[0].fd = fd;
    traffic = std::make_unique<Traffic>(conns, names);
    const Req first = call(*traffic, scratch, 0, prime_pairs[0].first, prime_pairs[0].second);
    setup_samples.push_back(since(t0));
    report.check(first.status == kOk, "first score answer: " + first.text);
  }
  // The remaining connections: one more text, two binary (hello first).
  for (int i = 1; i < kConnections; ++i) {
    conns[i].fd = connect_unix(socket_path);
    if (conns[i].fd < 0) fail("cannot connect to " + socket_path);
    conns[i].binary = i >= kConnections / 2;
    if (!conns[i].binary) continue;
    send_all(conns[i].fd, wire::encode_hello());
    wire::Frame frame;
    std::string error;
    char buf[4096];
    for (;;) {
      const auto s = conns[i].frames.next(&frame, &error);
      if (s == wire::FrameReader::Status::kFrame) break;
      if (s == wire::FrameReader::Status::kError) fail("hello: " + error);
      const ssize_t n = ::recv(conns[i].fd, buf, sizeof(buf), 0);
      if (n <= 0) fail("hello: connection closed");
      conns[i].frames.feed(buf, static_cast<std::size_t>(n));
    }
    if (frame.type != wire::FrameType::kHelloAck) fail("hello refused");
  }

  serve::EngineOptions engine_options;
  engine_options.num_threads = threads;
  engine_options.suite_scale = 1.0;
  engine_options.model_path = checkpoint;
  engine_options.experiment = options;
  serve::InferenceEngine reference(engine_options);

  std::int64_t attempted = 0, failed = 0;
  const auto verify = [&](const Req& r) {
    ++attempted;
    bool good = r.status == kOk;
    if (good) {
      const double expected = reference.score(kBench, names[static_cast<std::size_t>(r.a)],
                                              names[static_cast<std::size_t>(r.b)]);
      good = conns[static_cast<std::size_t>(r.conn)].binary
                 ? r.score == expected
                 : r.text == util::format_double(expected, 6);
    }
    failed += !good;
    return good;
  };

  // Prime the daemon's cache with every ordered class pair (untimed by
  // setup_s), then score the same pairs in-process as the reference.
  std::vector<Req> prime(prime_pairs.size());
  std::vector<int> prime_ids(prime.size());
  for (std::size_t p = 0; p < prime.size(); ++p) {
    prime[p].a = prime_pairs[p].first;
    prime[p].b = prime_pairs[p].second;
    prime[p].conn = static_cast<int>(p % kConnections);
    prime[p].phase = kPrime;
    prime_ids[p] = static_cast<int>(p);
  }
  util::WallTimer prime_timer;
  if (!traffic->run(prime, prime_ids, 32, 170.0)) fail("priming timed out");
  const double prime_s = prime_timer.seconds();
  {
    std::vector<std::pair<std::string, std::string>> named;
    for (const auto& [a, b] : prime_pairs)
      named.emplace_back(names[static_cast<std::size_t>(a)], names[static_cast<std::size_t>(b)]);
    reference.score_batch(kBench, named);
  }
  std::int64_t prime_failed = 0;
  for (const Req& r : prime) prime_failed += !verify(r);
  report.check(prime_failed == 0, std::to_string(prime_failed) +
                                      " priming answers differ from InferenceEngine::score");

  const Req stats_before = call(*traffic, scratch, 0, -1, -1);
  report.meta(layers ? "daemon_kernels" : "kernels",
              stats_word(stats_before.text, "kernels"));

  // The open loop: Poisson arrivals, warm-up then timed phase, one stats
  // request at the phase boundary on connection 0.
  std::vector<Req> reqs;
  {
    std::mt19937_64 rng(args.seed);
    std::exponential_distribution<double> gap(kRate);
    std::uniform_int_distribution<int> bit(0, static_cast<int>(names.size()) - 1);
    const double end = kWarmupSeconds + seconds;
    bool boundary = false;
    for (double t = gap(rng); t < end; t += gap(rng)) {
      if (!boundary && t >= kWarmupSeconds) {
        Req s;
        s.conn = 0;
        s.phase = kTimed;
        s.due = kWarmupSeconds;
        reqs.push_back(s);
        boundary = true;
      }
      Req r;
      r.a = bit(rng);
      do r.b = bit(rng); while (r.b == r.a);
      r.conn = static_cast<int>(reqs.size() % kConnections);
      r.phase = t < kWarmupSeconds ? kWarmup : kTimed;
      r.due = t;
      reqs.push_back(r);
    }
  }
  std::vector<int> ids(reqs.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  const bool drained = traffic->run(reqs, ids, 0, kWarmupSeconds + seconds + 30.0);
  report.check(drained, "open loop: answers missing 30 s after the last send");
  const Req stats_after = call(*traffic, scratch, 0, -1, -1);

  // Per-phase counts, latency from each request's due time, generator
  // lateness and per-connection queue wait.
  struct Counts { std::int64_t sent = 0, ok = 0, shed = 0, failed = 0; };
  Counts counts[2];
  std::vector<double> latency_ms, latency_due, late_ms, queue_ms;
  std::int64_t timed_in_slo = 0;
  std::string stats_boundary;
  std::vector<double> last_done(kConnections, 0.0);
  for (const Req& r : reqs) {
    if (r.a < 0) {
      stats_boundary = r.text;
      last_done[static_cast<std::size_t>(r.conn)] = r.done;
      continue;
    }
    Counts& c = counts[r.phase == kTimed ? 1 : 0];
    ++c.sent;
    const bool good = r.status != kPending && verify(r);
    if (r.status == kPending) ++attempted, ++failed;
    c.ok += good;
    c.shed += r.status == kShed;
    c.failed += !good && r.status != kShed;
    if (r.phase == kTimed && good) {
      const double lat = (r.done - r.due) * 1e3;
      latency_ms.push_back(lat);
      latency_due.push_back(r.due);
      timed_in_slo += lat <= kSloMs;
      late_ms.push_back((r.sent - r.due) * 1e3);
      double& prev = last_done[static_cast<std::size_t>(r.conn)];
      queue_ms.push_back(std::max(0.0, prev - r.sent) * 1e3);
    }
    if (r.status != kPending) last_done[static_cast<std::size_t>(r.conn)] = r.done;
  }

  // Text and binary must agree on the same pairs (closed loop, one request
  // at a time per encoding: also the round-trip probes).
  const int probes = layers ? 2000 : 200;
  std::vector<Req> probe(static_cast<std::size_t>(2 * probes));
  std::vector<int> text_ids, binary_ids;
  {
    std::mt19937_64 rng(args.seed ^ 0x9e3779b97f4a7c15ULL);
    std::uniform_int_distribution<int> bit(0, static_cast<int>(names.size()) - 1);
    for (int k = 0; k < probes; ++k) {
      Req& t = probe[static_cast<std::size_t>(2 * k)];
      t.a = bit(rng);
      do t.b = bit(rng); while (t.b == t.a);
      t.conn = 1;
      t.phase = kProbe;
      Req& b = probe[static_cast<std::size_t>(2 * k + 1)];
      b = t;
      b.conn = 2;
      text_ids.push_back(2 * k);
      binary_ids.push_back(2 * k + 1);
    }
  }
  if (!traffic->run(probe, text_ids, 1, 60.0) || !traffic->run(probe, binary_ids, 1, 60.0))
    fail("round-trip probes timed out");
  std::int64_t disagree = 0;
  std::vector<double> text_rtt, binary_rtt;
  for (int k = 0; k < probes; ++k) {
    const Req& t = probe[static_cast<std::size_t>(2 * k)];
    const Req& b = probe[static_cast<std::size_t>(2 * k + 1)];
    verify(t);
    verify(b);
    text_rtt.push_back((t.done - t.sent) * 1e6);
    binary_rtt.push_back((b.done - b.sent) * 1e6);
    const bool agree = t.status == kOk && b.status == kOk &&
                       t.text == util::format_double(b.score, 6);
    if (!agree) ++disagree, ++attempted, ++failed;
  }
  report.check(disagree == 0, std::to_string(disagree) + " text/binary answers disagree");
  report.check(failed == 0, std::to_string(failed) + " score answers failed or were wrong");
  report.attempts(attempted, failed);

  const double daemon_rss = daemon->peak_rss_mb();
  daemon->stop();
  for (Conn& c : conns)
    if (c.fd >= 0) ::close(c.fd);
  ::unlink(socket_path.c_str());

  const Summary latency = summarize(latency_ms);
  // The tail per one-second window of the timed phase (4000 samples: p99,
  // with 40 beyond it), then the median over windows. A host-wide stall of
  // tens of milliseconds moves one window, not the reported tail; stalls
  // still show in ok_ratio and in the whole-run tail in the table.
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < latency_ms.size(); ++i) {
    const std::size_t w = static_cast<std::size_t>(
        std::max(0.0, latency_due[i] - kWarmupSeconds));
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(latency_ms[i]);
  }
  std::vector<double> window_tails;
  double window_q = 1.0;
  for (auto& w : windows) {
    if (w.empty()) continue;
    const Summary ws = summarize(std::move(w));
    window_tails.push_back(ws.tail);
    window_q = std::min(window_q, ws.tail_q);
  }
  const Summary tail = summarize(window_tails);
  const double timed_sent = static_cast<double>(counts[1].sent);
  const double hits = stats_field(stats_after.text, "cache_hits") -
                      stats_field(stats_boundary, "cache_hits");
  const double misses = stats_field(stats_after.text, "cache_misses") -
                        stats_field(stats_boundary, "cache_misses");
  report.meta("rate_per_s", util::format_double(kRate, 1));
  report.meta("slo_ms", util::format_double(kSloMs, 3));
  const char* phase_names[2] = {"warmup", "timed"};
  for (int p = 0; p < 2; ++p) {
    const std::string prefix = std::string("serve.") + phase_names[p] + ".";
    report.info(prefix + "sent", static_cast<double>(counts[p].sent), "count");
    report.info(prefix + "ok", static_cast<double>(counts[p].ok), "count");
    report.info(prefix + "shed", static_cast<double>(counts[p].shed), "count");
    report.info(prefix + "failed", static_cast<double>(counts[p].failed), "count");
  }
  report.info("serve.cache_hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  report.info("score_p99_window_q", window_q, "quantile");
  report.info("score_p99_windows", static_cast<double>(tail.n), "count");
  report.info("score_run_tail_ms", latency.tail, "ms");
  report.info("score_run_tail_q", latency.tail_q, "quantile");
  report.info("score_samples", static_cast<double>(latency.n), "count");

  // serve-score's own metrics; in a traced recover run they are table rows.
  const auto put = [&](const std::string& name, double value, const char* unit) {
    if (layers) report.info(name, value, unit);
    else report.metric(name, value, unit);
  };
  put("setup_s", summarize(setup_samples).median, "s");
  put("peak_rss_mb", daemon_rss, "MB");
  put("score_p50_ms", latency.median, "ms");
  put("score_p99_ms", tail.median, "ms");
  put("score_slo_ratio", timed_in_slo / std::max(1.0, timed_sent), "ratio");
  std::remove(log_path.c_str());
  if (!layers) {
    std::remove(checkpoint.c_str());
    return;
  }

  // Serve-path layers (shown in the table; see README.md).
  report.info("serve.daemon_start_s", summarize(start_samples).median, "s");
  report.info("serve.prime_s", prime_s, "s");
  report.info("serve.prime_pairs", static_cast<double>(prime.size()), "count");
  report.info("serve.text_rtt_us", summarize(text_rtt).median, "us");
  report.info("serve.binary_rtt_us", summarize(binary_rtt).median, "us");
  report.info("serve.queue_wait_ms_p99", summarize(queue_ms).tail, "ms");
  report.info("loadgen.late_ms_p99", summarize(late_ms).tail, "ms");
  {
    const std::string a = names[static_cast<std::size_t>(prime_pairs[1].first)];
    const std::string b = names[static_cast<std::size_t>(prime_pairs[1].second)];
    std::vector<double> engine_us, line_us, frame_us;
    serve::ServeLoop loop(reference);
    const std::string line = std::string("score ") + kBench + " " + a + " " + b;
    for (int k = 0; k < 2000; ++k) {
      util::WallTimer t;
      reference.score(kBench, a, b);
      engine_us.push_back(t.seconds() * 1e6);
      t.reset();
      bool quit = false;
      loop.handle_line(line, &quit);
      line_us.push_back(t.seconds() * 1e6);
      t.reset();
      wire::Request request;
      request.verb = wire::Verb::kScore;
      request.bench = kBench;
      request.bit_a = a;
      request.bit_b = b;
      wire::FrameReader reader;
      reader.feed(wire::encode_request(request));
      reader.feed(wire::encode_response(wire::score_response(0.5)));
      wire::Frame frame;
      std::string error;
      wire::Request decoded_request;
      wire::Response decoded_response;
      const bool ok = reader.next(&frame, &error) == wire::FrameReader::Status::kFrame &&
                      wire::decode_request_payload(frame.payload, &decoded_request, &error) &&
                      reader.next(&frame, &error) == wire::FrameReader::Status::kFrame &&
                      wire::decode_response_payload(frame.payload, &decoded_response, &error) &&
                      decoded_request.bit_b == b && decoded_response.score == 0.5;
      frame_us.push_back(t.seconds() * 1e6);
      if (!ok) {
        report.check(false, "wire round trip: " + error);
        break;
      }
    }
    report.info("serve.engine_score_us", summarize(engine_us).median, "us");
    report.info("serve.handle_line_us", summarize(line_us).median, "us");
    report.info("wire.frame_roundtrip_us", summarize(frame_us).median, "us");
  }

  std::remove(checkpoint.c_str());
}

}  // namespace

int run_serve_workload(const Args& args, Report& report) {
  serve_session(args, args.seconds, kSetupSpawns, args.trace, report);
  return 0;
}

void trace_serve_layers(const Args& args, Report& report) {
  serve_session(args, kProbeSeconds, 1, true, report);
}

}  // namespace rebert::e2e
