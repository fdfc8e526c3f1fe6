// ClientPool — bounded connection reuse under concurrency. The server side
// is a bare SocketServer echoing request lines back, so the suite isolates
// pool semantics (reuse, the idle bound, discard-on-failure, fresh dials)
// from engine behaviour. Runs under TSan via the `concurrency` label.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "serve/client_pool.h"
#include "serve/socket_server.h"
#include "util/string_utils.h"

namespace rebert::serve {
namespace {

// Only handle_line is set; the optional callbacks keep their defaults
// (no blank-line skipping, the stock overload line, text only).
SocketServer::Callbacks echo_callbacks() {
  SocketServer::Callbacks callbacks;
  callbacks.handle_line = [](const std::string& line,
                             bool* close_connection) {
    if (line == "die") {
      *close_connection = true;
      return std::string("ok bye");
    }
    return "ok echo " + line;
  };
  return callbacks;
}

// A line server that answers "ok echo <line>" — plus a "die" verb that
// closes the connection without answering, for the discard path.
struct EchoServer {
  SocketServer server;
  std::string path;
  std::thread runner;

  explicit EchoServer(std::string socket_path)
      : server(echo_callbacks()),
        path(std::move(socket_path)),
        runner([this] { server.run(path); }) {}

  ~EchoServer() {
    server.stop();
    if (runner.joinable()) runner.join();
    std::remove(path.c_str());
  }
};

ClientOptions fast_options() {
  ClientOptions options;
  options.connect_attempts = 200;
  options.connect_poll_ms = 5;
  return options;
}

TEST(ClientPoolTest, LeasesConnectAndRoundTrip) {
  EchoServer echo(::testing::TempDir() + "/pool_basic.sock");
  ClientPool pool(echo.path, fast_options());
  ClientPool::Lease lease = pool.acquire();
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->request("hello"), "ok echo hello");
  EXPECT_EQ((*lease).request("again"), "ok echo again");
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.socket_path(), echo.path);
}

TEST(ClientPoolTest, ReturnedConnectionsAreReused) {
  EchoServer echo(::testing::TempDir() + "/pool_reuse.sock");
  ClientPool pool(echo.path, fast_options());
  for (int i = 0; i < 10; ++i) {
    ClientPool::Lease lease = pool.acquire();
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease->request("r" + std::to_string(i)),
              "ok echo r" + std::to_string(i));
  }
  // Sequential leases ride one connection: dialed once, reused ever after.
  EXPECT_EQ(pool.created(), 1u);
  EXPECT_EQ(pool.reused(), 9u);
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(ClientPoolTest, IdleRetentionIsBounded) {
  EchoServer echo(::testing::TempDir() + "/pool_bound.sock");
  const std::size_t kMaxIdle = 3;
  ClientPool pool(echo.path, fast_options(), kMaxIdle);
  std::vector<ClientPool::Lease> burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(pool.acquire());
    ASSERT_TRUE(burst.back());
  }
  EXPECT_EQ(pool.created(), 8u);  // all concurrent, so all fresh dials
  burst.clear();                  // return all at once
  EXPECT_LE(pool.idle(), kMaxIdle);
}

TEST(ClientPoolTest, DiscardDropsTheConnection) {
  EchoServer echo(::testing::TempDir() + "/pool_discard.sock");
  ClientPool pool(echo.path, fast_options());
  {
    ClientPool::Lease lease = pool.acquire();
    ASSERT_TRUE(lease);
    lease.discard();
  }
  EXPECT_EQ(pool.idle(), 0u);
  EXPECT_EQ(pool.discarded(), 1u);
  // The next acquire dials anew instead of inheriting a dropped socket.
  ClientPool::Lease fresh = pool.acquire();
  ASSERT_TRUE(fresh);
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(fresh->request("after"), "ok echo after");
}

TEST(ClientPoolTest, ServerClosedConnectionIsDiscardedNotReused) {
  EchoServer echo(::testing::TempDir() + "/pool_dead.sock");
  ClientPool pool(echo.path, fast_options());
  {
    ClientPool::Lease lease = pool.acquire();
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease->request("die"), "ok bye");  // server hangs up after
    // A request on the dead connection throws; the caller discards.
    EXPECT_THROW((void)lease->request("anyone there?"), std::exception);
    lease.discard();
  }
  ClientPool::Lease fresh = pool.acquire_fresh();
  ASSERT_TRUE(fresh);
  EXPECT_EQ(fresh->request("alive"), "ok echo alive");
}

TEST(ClientPoolTest, AcquireFreshAlwaysDials) {
  EchoServer echo(::testing::TempDir() + "/pool_fresh.sock");
  ClientPool pool(echo.path, fast_options());
  { ClientPool::Lease lease = pool.acquire(); ASSERT_TRUE(lease); }
  EXPECT_EQ(pool.idle(), 1u);
  ClientPool::Lease fresh = pool.acquire_fresh();
  ASSERT_TRUE(fresh);
  EXPECT_EQ(pool.created(), 2u);  // did not take the idle one
  EXPECT_EQ(pool.reused(), 0u);
}

TEST(ClientPoolTest, ClearIdleClosesRetainedConnections) {
  EchoServer echo(::testing::TempDir() + "/pool_clear.sock");
  ClientPool pool(echo.path, fast_options());
  { ClientPool::Lease lease = pool.acquire(); ASSERT_TRUE(lease); }
  EXPECT_EQ(pool.idle(), 1u);
  pool.clear_idle();
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(ClientPoolTest, UnreachableSocketYieldsFalsyLease) {
  ClientOptions options;
  options.connect_attempts = 2;
  options.connect_poll_ms = 1;
  ClientPool pool("/tmp/rebert_pool_nowhere.sock", options);
  ClientPool::Lease lease = pool.acquire();
  EXPECT_FALSE(lease);
  EXPECT_EQ(pool.created(), 0u);
}

TEST(ClientPoolTest, ServerStopUnblocksIdlePooledConnections) {
  // A pooled connection is idle-but-open by design. The server's stop()
  // must shutdown() it so the handler thread parked in read() exits —
  // otherwise this destructor (stop + join) hangs forever.
  auto echo = std::make_unique<EchoServer>(::testing::TempDir() +
                                           "/pool_server_stop.sock");
  ClientPool pool(echo->path, fast_options());
  {
    ClientPool::Lease lease = pool.acquire();
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease->request("park"), "ok echo park");
  }
  EXPECT_EQ(pool.idle(), 1u);
  echo.reset();  // must return with the pool still holding the connection
}

TEST(ClientPoolTest, ConcurrentHammerIsSafeAndLossless) {
  EchoServer echo(::testing::TempDir() + "/pool_hammer.sock");
  ClientPool pool(echo.path, fast_options(), 4);
  const int kThreads = 8;
  const int kPerThread = 50;
  std::atomic<int> correct{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        ClientPool::Lease lease = pool.acquire();
        if (!lease) continue;
        const std::string payload =
            "t" + std::to_string(t) + "r" + std::to_string(r);
        try {
          // Responses must match the request that produced them —
          // interleaving leaks across leases would scramble this.
          if (lease->request(payload) == "ok echo " + payload)
            correct.fetch_add(1);
        } catch (const std::exception&) {
          lease.discard();
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(correct.load(), kThreads * kPerThread);
  EXPECT_LE(pool.idle(), 4u);
  EXPECT_EQ(pool.created() + pool.reused(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace rebert::serve
