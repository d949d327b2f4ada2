// IO-thread / handler-task split: the IO thread owns accept, reads, and
// parsing; handler tasks (on the server's own blocking-friendly pool,
// see ServerOptions::handler_threads) own one request each
// and write their own response. A connection is "busy" from dispatch
// until its task hands it back through done_ — the IO thread never
// touches a busy socket, so reads and writes can't interleave.
//
// The admission slot (inflight_) is held only while the handler runs: a
// task releases it before writing the response, so a client that reads
// its answer and sends the next request at once is never shed.
//
// Shutdown ordering is the one subtle invariant: a busy connection stays
// in conns_ until its task hands it back through done_, and the task
// pushes it and wakes the IO thread under done_mutex_, touching nothing
// of the server once it releases that lock. The IO loop only exits with
// conns_ empty, so by the time Stop() joins the IO thread and closes the
// wake pipe, no task can be left holding a reference to either.

#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/log.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace mrsl {
namespace {

constexpr int kPollTimeoutMs = 100;

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  HttpResponse resp;
  resp.status = status;
  resp.content_type = "text/plain";
  resp.body = message + "\n";
  return resp;
}

}  // namespace

HttpServer::Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

HttpServer::HttpServer(ServerOptions options)
    : options_(std::move(options)) {}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Handle(const std::string& method, const std::string& path,
                        Handler handler) {
  routes_[path][method] = std::move(handler);
}

Status HttpServer::Start() {
  if (running_.load() || io_thread_.joinable()) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("bind 127.0.0.1:" +
                           std::to_string(options_.port) + ": " + err);
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(std::string("listen: ") + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  if (::pipe(wake_fds_) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError(std::string("pipe: ") + err);
  }
  SetNonBlocking(wake_fds_[0]);
  SetNonBlocking(wake_fds_[1]);

  // Resolve the per-endpoint latency series up front; routes are fixed
  // from here on, so RecordRequest can skip the registry mutex.
  std::vector<std::string> endpoints = {"other"};
  for (const auto& [path, by_method] : routes_) endpoints.push_back(path);
  for (const std::string& endpoint : endpoints) {
    endpoint_latency_[endpoint] = metrics_.GetHistogram(
        "mrsl_http_request_seconds",
        "Request handling latency (dispatch to response written).",
        MetricsRegistry::DefaultLatencyBoundsSeconds(),
        {{"endpoint", endpoint}});
  }

  size_t handler_threads = options_.handler_threads;
  if (handler_threads == 0) {
    handler_threads = std::max<size_t>(
        8, std::thread::hardware_concurrency());
  }
  handler_pool_ = std::make_unique<ThreadPool>(handler_threads);

  stopping_.store(false);
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this]() { IoLoop(); });
  LogInfo("server", "listening",
          {{"port", static_cast<int64_t>(port_)},
           {"handler_threads", static_cast<int64_t>(handler_threads)},
           {"max_inflight", static_cast<int64_t>(options_.max_inflight)}});
  return Status::OK();
}

void HttpServer::Stop() {
  if (!io_thread_.joinable()) return;
  stopping_.store(true);
  Wake();
  io_thread_.join();
  // The IO loop only exits once every busy connection came back through
  // done_, so no handler task touches the server any more; this join
  // waits at most for tasks releasing their captures.
  handler_pool_.reset();
  conns_.clear();
  done_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (int& fd : wake_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  running_.store(false, std::memory_order_release);
  LogInfo("server", "stopped after graceful drain",
          {{"port", static_cast<int64_t>(port_)},
           {"requests_shed",
            requests_shed_.load(std::memory_order_relaxed)}});
}

void HttpServer::Wake() {
  const char byte = 1;
  // A full pipe already means a wake-up is pending; EBADF can't happen
  // before Stop() joins (see the shutdown-ordering note above).
  (void)!::write(wake_fds_[1], &byte, 1);
}

void HttpServer::AcceptNewConns() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or a transient accept error: poll again
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Non-blocking on both sides: the lone IO thread must never hang in
    // recv on a spuriously-readable socket (poll readiness is a hint,
    // not a guarantee), and handler-task writes go through
    // HttpWriteAll's bounded POLLOUT wait, so a client that stops
    // reading costs one closed connection, not a pinned pool worker or
    // a hung drain.
    SetNonBlocking(fd);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conns_.emplace(fd, std::move(conn));
  }
}

bool HttpServer::RespondInline(const ConnPtr& conn,
                               const HttpRequest& request,
                               HttpResponse response) {
  // Stats precede the write: a client must never read its response and
  // still find the counters behind it. The write itself is best-effort
  // non-blocking — this runs on the IO thread, and a client that
  // pipelines error-producing requests without reading responses must
  // lose its connection, not wedge every other client's accept/read.
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  RecordRequest(request.path, request.method, response.status,
                /*seconds=*/-1.0);
  const bool written = HttpTrySendAll(
      conn->fd, SerializeHttpResponse(response, request.keep_alive));
  return written && request.keep_alive;
}

void HttpServer::DispatchRequest(const ConnPtr& conn, HttpRequest request) {
  conn->busy = true;
  conn->close_after = !request.keep_alive;
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  const Handler* handler = &routes_.at(request.path).at(request.method);
  // The trace creation point: ?trace=1 forces one, otherwise the
  // deterministic sampler decides from a fresh id. The id is only drawn
  // when it could matter, so trace_sample == 0 costs one branch here.
  const bool forced =
      !request.query.empty() && request.QueryParam("trace", "") == "1";
  if (forced || options_.trace_sample > 0.0) {
    const uint64_t id = NextTraceId();
    if (forced || TraceStore::ShouldSample(id, options_.trace_sample)) {
      request.trace = std::make_shared<TraceContext>(
          id, request.method + " " + request.path);
    }
  }
  TraceSpan queue_span;
  if (request.trace != nullptr) {
    // Dispatch-to-handler-start: the admission queue's contribution.
    queue_span = request.trace->root().StartChild("http.queue");
  }
  handler_pool_->Submit(
      [this, conn, handler, queue_span, request = std::move(request)]() {
        WallTimer timer;
        queue_span.End();
        HttpResponse response = (*handler)(request);
        // Release the slot (see the top of this file); the connection
        // stays busy until done_ hands it back.
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        if (request.trace != nullptr) {
          TraceSpan root = request.trace->root();
          root.SetAttr("status", static_cast<int64_t>(response.status));
          root.End();
          response.extra_headers.emplace_back(
              "X-Mrsl-Trace-Id", request.trace->trace_id_hex());
          // Record before the response write: a client that reads its
          // response and immediately asks /debug/traces must find it.
          TraceStore::Global().Record(request.trace);
        }
        // Stats precede the write (see RespondInline).
        RecordRequest(request.path, request.method, response.status,
                      timer.ElapsedSeconds());
        requests_served_.fetch_add(1, std::memory_order_relaxed);
        const Status written = HttpWriteAll(
            conn->fd,
            SerializeHttpResponse(response, !conn->close_after));
        if (!written.ok()) conn->close_after = true;
        // Nothing after this block touches the server (shutdown
        // ordering).
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_.push_back(conn);
        Wake();
      });
}

bool HttpServer::PumpConn(const ConnPtr& conn) {
  while (!conn->busy) {
    HttpRequest request;
    size_t consumed = 0;
    std::string error;
    const HttpParseState state =
        ParseHttpRequest(conn->in, &request, &consumed, &error);
    if (state == HttpParseState::kNeedMore) return true;
    if (state == HttpParseState::kError) {
      HttpRequest bad;  // no trustworthy path/method; close unconditionally
      bad.keep_alive = false;
      RespondInline(conn, bad, ErrorResponse(400, error));
      conns_.erase(conn->fd);
      return false;
    }
    conn->in.erase(0, consumed);

    auto route = routes_.find(request.path);
    if (route == routes_.end()) {
      if (!RespondInline(conn, request, ErrorResponse(404, "no such route"))) {
        conns_.erase(conn->fd);
        return false;
      }
      continue;
    }
    auto by_method = route->second.find(request.method);
    if (by_method == route->second.end()) {
      HttpResponse resp =
          ErrorResponse(405, "method not allowed for " + request.path);
      std::string allow;
      for (const auto& [method, handler] : route->second) {
        if (!allow.empty()) allow += ", ";
        allow += method;
      }
      resp.extra_headers.emplace_back("Allow", allow);
      if (!RespondInline(conn, request, std::move(resp))) {
        conns_.erase(conn->fd);
        return false;
      }
      continue;
    }
    if (inflight_.load(std::memory_order_acquire) >= options_.max_inflight) {
      requests_shed_.fetch_add(1, std::memory_order_relaxed);
      // Rate-limited by the logger's token bucket: an overload burst
      // sheds thousands of requests but logs a handful plus a
      // suppressed count.
      LogWarn("server", "admission control shed request",
              {{"target", request.target},
               {"inflight", static_cast<int64_t>(options_.max_inflight)}});
      HttpResponse resp = ErrorResponse(
          503, "server overloaded; retry shortly");
      resp.extra_headers.emplace_back("Retry-After", "1");
      if (!RespondInline(conn, request, std::move(resp))) {
        conns_.erase(conn->fd);
        return false;
      }
      continue;
    }
    DispatchRequest(conn, std::move(request));
  }
  return true;
}

void HttpServer::RecordRequest(const std::string& path,
                               const std::string& method, int code,
                               double seconds) {
  // Unregistered paths share one label so a scanner can't blow up the
  // registry's cardinality.
  auto it = endpoint_latency_.find(path);
  const bool known = it != endpoint_latency_.end();
  const std::string& endpoint = known ? path : "other";
  // The counter goes through the registry (the code label is dynamic);
  // the latency series was resolved at Start() and observes lock-free.
  metrics_
      .GetCounter("mrsl_http_requests_total", "HTTP requests answered.",
                  {{"endpoint", endpoint},
                   {"method", method.empty() ? "BAD" : method},
                   {"code", std::to_string(code)}})
      ->Increment();
  if (seconds >= 0.0) {
    (known ? it->second : endpoint_latency_.at("other"))->Observe(seconds);
  }
}

void HttpServer::IoLoop() {
  std::vector<pollfd> fds;
  for (;;) {
    // Hand back connections whose handler finished.
    std::vector<ConnPtr> done;
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      done.swap(done_);
    }
    for (const ConnPtr& conn : done) {
      conn->busy = false;
      if (stopping_.load() || conn->close_after) {
        conns_.erase(conn->fd);
      } else {
        PumpConn(conn);  // pipelined requests buffered during handling
      }
    }

    const bool stopping = stopping_.load(std::memory_order_acquire);
    if (stopping) {
      // Refuse idle connections; busy ones drain through done_.
      for (auto it = conns_.begin(); it != conns_.end();) {
        if (it->second->busy) {
          ++it;
        } else {
          it = conns_.erase(it);
        }
      }
      if (conns_.empty() && inflight_.load(std::memory_order_acquire) == 0) {
        return;
      }
    }

    fds.clear();
    fds.push_back({wake_fds_[0], POLLIN, 0});
    if (!stopping) fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns_) {
      if (!conn->busy) fds.push_back({fd, POLLIN, 0});
    }
    if (::poll(fds.data(), fds.size(), kPollTimeoutMs) < 0) {
      if (errno == EINTR) continue;
      return;  // unrecoverable poll failure; Stop() still cleans up
    }

    for (const pollfd& pfd : fds) {
      if (pfd.revents == 0) continue;
      if (pfd.fd == wake_fds_[0]) {
        char drain[256];
        while (::read(wake_fds_[0], drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (pfd.fd == listen_fd_) {
        AcceptNewConns();
        continue;
      }
      auto it = conns_.find(pfd.fd);
      if (it == conns_.end() || it->second->busy) continue;
      ConnPtr conn = it->second;
      char chunk[65536];
      const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK)) {
          continue;
        }
        conns_.erase(conn->fd);  // EOF or hard error
        continue;
      }
      conn->in.append(chunk, static_cast<size_t>(n));
      if (conn->in.size() > kMaxHttpHeaderBytes + kMaxHttpBodyBytes) {
        HttpRequest bad;
        bad.keep_alive = false;
        RespondInline(conn, bad, ErrorResponse(413, "request too large"));
        conns_.erase(conn->fd);
        continue;
      }
      PumpConn(conn);
    }
  }
}

}  // namespace mrsl
