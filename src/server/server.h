// The embedded HTTP/1.1 server: C++17 sockets, no dependencies.
//
// Threading model: one IO thread owns the listen socket and every idle
// connection, multiplexed with poll(). When a connection has buffered a
// complete request, the IO thread dispatches it as a task on the
// server's own handler pool (`handler_threads`, default 8). Handlers
// are kept off the process-wide compute pool deliberately: a durable
// /update handler spends its time blocked — in fdatasync or parked in
// the group-commit queue — and blocking tasks on a CPU-sized pool
// serialize the very concurrency group commit exists to amortize (the
// inference engine's ParallelFor always enlists the calling thread, so
// it stays live on its own pool regardless). While a request is in flight
// its connection is parked (not polled); the handler task writes the
// response straight to the socket and hands the connection back to the
// IO thread, which resumes parsing any pipelined bytes.
//
// Admission control: at most `max_inflight` requests whose handler has
// been dispatched and not yet returned. Excess requests are answered 503
// (with Retry-After) from the IO thread without touching the pool — the
// bounded queue that keeps an overloaded server shedding load instead of
// accumulating it.
//
// Graceful drain: Stop() closes the listen socket, lets every dispatched
// handler finish and write its response, closes all connections, and
// joins the IO thread. In-flight work is never abandoned; new work is
// never admitted.
//
// Observability: every request increments
//   mrsl_http_requests_total{endpoint,method,code}
// and feeds mrsl_http_request_seconds{endpoint} (only registered routes
// get their own endpoint label; everything else is "other", keeping
// label cardinality bounded). The registry is exposed so services can
// attach their own series and serve them from GET /metrics.

#ifndef MRSL_SERVER_SERVER_H_
#define MRSL_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/http.h"
#include "util/metrics.h"
#include "util/result.h"

namespace mrsl {

class ThreadPool;

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1 (0 = kernel-assigned; read it back
  /// with port()).
  uint16_t port = 0;

  /// Bound on dispatched-but-unfinished requests; excess gets 503.
  size_t max_inflight = 64;

  /// listen(2) backlog.
  int backlog = 128;

  /// Handler pool width (0 = max(8, hardware concurrency)). Sized for
  /// blocking work, not CPU count: handlers park in fsyncs and commit
  /// queues, so more threads than cores is the normal configuration.
  size_t handler_threads = 0;

  /// Background trace-sampling rate in [0, 1]: each dispatched request
  /// draws a fresh trace id and is traced iff
  /// TraceStore::ShouldSample(id, trace_sample). ?trace=1 on a request
  /// forces a trace regardless. 0 (the default) disables sampling, and
  /// the per-request cost is one branch.
  double trace_sample = 0.0;
};

/// The server. Register routes, Start(), Stop(). Routes must be
/// registered before Start() — the table is read without locks after.
class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  explicit HttpServer(ServerOptions options = ServerOptions());
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Routes `method` + exact `path` to `handler`. A path registered with
  /// some other method answers 405 (with Allow); unknown paths 404.
  void Handle(const std::string& method, const std::string& path,
              Handler handler);

  /// Binds 127.0.0.1:port, starts the IO thread. Fails on bind errors
  /// and double starts.
  Status Start();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Graceful drain; idempotent; safe from any thread except a handler.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Requests fully answered (handlers plus inline 4xx/5xx).
  uint64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }

  /// Requests rejected 503 by admission control.
  uint64_t requests_shed() const {
    return requests_shed_.load(std::memory_order_relaxed);
  }

  MetricsRegistry* metrics() { return &metrics_; }

 private:
  struct Conn {
    int fd = -1;
    std::string in;           // bytes received, not yet parsed
    bool busy = false;        // a handler task owns the socket
    bool close_after = false; // close once the in-flight response is out
    ~Conn();
  };
  using ConnPtr = std::shared_ptr<Conn>;

  void IoLoop();
  /// Parses and dispatches requests buffered on `conn` until the buffer
  /// has no complete request, the connection goes busy, or it dies.
  /// Returns false when the connection was closed and erased.
  bool PumpConn(const ConnPtr& conn);
  void DispatchRequest(const ConnPtr& conn, HttpRequest request);
  /// Writes a response from the IO thread (404/405/503/400 fast paths).
  /// Returns false when the write failed and the connection must die.
  bool RespondInline(const ConnPtr& conn, const HttpRequest& request,
                     HttpResponse response);
  /// `seconds < 0` counts the request without a latency observation
  /// (inline 4xx/5xx answers have no handler latency; feeding them 0.0
  /// would drag the endpoint's percentiles toward zero exactly during
  /// overload, when most answers are inline 503s).
  void RecordRequest(const std::string& path, const std::string& method,
                     int code, double seconds);
  void AcceptNewConns();
  void Wake();

  ServerOptions options_;
  MetricsRegistry metrics_;

  std::map<std::string, std::map<std::string, Handler>> routes_;  // path->method
  // Per-endpoint latency series, resolved once at Start() so the
  // per-request path skips the registry mutex ("other" key included).
  std::map<std::string, Histogram*> endpoint_latency_;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  // self-pipe: [0] polled, [1] written
  uint16_t port_ = 0;
  std::thread io_thread_;
  // Created at Start(), torn down at Stop() after the IO thread joins
  // (every busy connection has come back through done_ by then, so no
  // task touches the server any more).
  std::unique_ptr<ThreadPool> handler_pool_;

  std::map<int, ConnPtr> conns_;  // IO-thread-only, keyed by fd

  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<size_t> inflight_{0};
  std::atomic<uint64_t> requests_served_{0};
  std::atomic<uint64_t> requests_shed_{0};

  std::mutex done_mutex_;
  std::vector<ConnPtr> done_;  // connections handed back by handler tasks
};

}  // namespace mrsl

#endif  // MRSL_SERVER_SERVER_H_
