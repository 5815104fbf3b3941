#include "ta/serve.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "ta/profile.h"

namespace cell::ta::serve {

namespace {

// --- little-endian packing --------------------------------------------------

void
put8(std::vector<std::uint8_t>& v, std::uint8_t x)
{
    v.push_back(x);
}

void
put16(std::vector<std::uint8_t>& v, std::uint16_t x)
{
    v.push_back(static_cast<std::uint8_t>(x));
    v.push_back(static_cast<std::uint8_t>(x >> 8));
}

void
put32(std::vector<std::uint8_t>& v, std::uint32_t x)
{
    for (int i = 0; i < 4; ++i)
        v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

void
put64(std::vector<std::uint8_t>& v, std::uint64_t x)
{
    for (int i = 0; i < 8; ++i)
        v.push_back(static_cast<std::uint8_t>(x >> (8 * i)));
}

std::uint16_t
get16(const std::uint8_t* p)
{
    return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t
get32(const std::uint8_t* p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t
get64(const std::uint8_t* p)
{
    return static_cast<std::uint64_t>(get32(p)) |
           (static_cast<std::uint64_t>(get32(p + 4)) << 32);
}

constexpr std::uint8_t kFlagSalvage = 0x1;
constexpr std::uint8_t kFlagWindowed = 0x2;

// --- socket helpers ---------------------------------------------------------

bool
sendAll(int fd, const std::uint8_t* p, std::size_t n)
{
    while (n > 0) {
        const ssize_t k = ::send(fd, p, n, MSG_NOSIGNAL);
        if (k < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        p += static_cast<std::size_t>(k);
        n -= static_cast<std::size_t>(k);
    }
    return true;
}

/** recv with a polling loop so @p stop can break a stalled read.
 *  Returns bytes read, 0 on EOF, -1 on error/stop. */
ssize_t
recvSome(int fd, std::uint8_t* buf, std::size_t cap,
         const std::atomic<bool>& stop)
{
    while (!stop.load(std::memory_order_relaxed)) {
        pollfd pfd{fd, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 200);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (pr == 0)
            continue; // timeout; re-check stop
        const ssize_t k = ::recv(fd, buf, cap, 0);
        if (k < 0 && errno == EINTR)
            continue;
        return k;
    }
    return -1;
}

std::uint64_t
splitmix64(std::uint64_t& state)
{
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

// ---------------------------------------------------------------------------
// Protocol
// ---------------------------------------------------------------------------

const char*
opName(Op op)
{
    switch (op) {
        case Op::Ping: return "ping";
        case Op::Window: return "window";
        case Op::Profile: return "profile";
        case Op::Loss: return "loss";
        case Op::Stats: return "stats";
        case Op::ServerStats: return "server-stats";
        case Op::Shutdown: return "shutdown";
    }
    return "?";
}

const char*
statusName(Status s)
{
    switch (s) {
        case Status::Ok: return "OK";
        case Status::RetryAfter: return "RETRY_AFTER";
        case Status::Timeout: return "TIMEOUT";
        case Status::BadRequest: return "BAD_REQUEST";
        case Status::NotFound: return "NOT_FOUND";
        case Status::Error: return "ERROR";
        case Status::ShuttingDown: return "SHUTTING_DOWN";
    }
    return "?";
}

std::vector<std::uint8_t>
encodeRequest(const Request& req)
{
    std::vector<std::uint8_t> v;
    const std::size_t body = kRequestFixedBytes + req.name.size();
    v.reserve(8 + body);
    put32(v, kRequestMagic);
    put32(v, static_cast<std::uint32_t>(body));
    put8(v, static_cast<std::uint8_t>(req.op));
    std::uint8_t flags = 0;
    if (req.salvage)
        flags |= kFlagSalvage;
    if (req.windowed)
        flags |= kFlagWindowed;
    put8(v, flags);
    put16(v, req.buckets);
    put32(v, req.deadline_ms);
    put64(v, req.from);
    put64(v, req.to);
    put16(v, static_cast<std::uint16_t>(req.name.size()));
    v.insert(v.end(), req.name.begin(), req.name.end());
    return v;
}

Decode
decodeRequest(const std::uint8_t* data, std::size_t len, Request& out,
              std::size_t& consumed, std::string& error)
{
    consumed = 0;
    error.clear();
    if (len < 8)
        return Decode::NeedMore;
    if (get32(data) != kRequestMagic) {
        error = "bad request magic";
        return Decode::Bad;
    }
    const std::uint32_t body = get32(data + 4);
    if (body < kRequestFixedBytes || body > kMaxRequestBody) {
        error = "request body length " + std::to_string(body) +
                " out of range";
        return Decode::Bad;
    }
    if (len < 8 + static_cast<std::size_t>(body))
        return Decode::NeedMore;
    const std::uint8_t* p = data + 8;
    const std::uint8_t op = p[0];
    if (op < static_cast<std::uint8_t>(Op::Ping) ||
        op > static_cast<std::uint8_t>(Op::Shutdown)) {
        error = "unknown op " + std::to_string(op);
        return Decode::Bad;
    }
    const std::uint8_t flags = p[1];
    if (flags & ~(kFlagSalvage | kFlagWindowed)) {
        error = "unknown request flags";
        return Decode::Bad;
    }
    const std::uint16_t name_len = get16(p + 24);
    if (name_len != body - kRequestFixedBytes) {
        error = "name length does not match body length";
        return Decode::Bad;
    }
    out.op = static_cast<Op>(op);
    out.salvage = (flags & kFlagSalvage) != 0;
    out.windowed = (flags & kFlagWindowed) != 0;
    out.buckets = get16(p + 2);
    out.deadline_ms = get32(p + 4);
    out.from = get64(p + 8);
    out.to = get64(p + 16);
    out.name.assign(reinterpret_cast<const char*>(p + kRequestFixedBytes),
                    name_len);
    consumed = 8 + body;
    return Decode::Ok;
}

std::vector<std::uint8_t>
encodeResponse(const Response& rsp)
{
    std::vector<std::uint8_t> v;
    const std::size_t payload = 9 + rsp.warning.size() + rsp.body.size();
    v.reserve(8 + payload);
    put32(v, kResponseMagic);
    put32(v, static_cast<std::uint32_t>(payload));
    put8(v, static_cast<std::uint8_t>(rsp.status));
    put32(v, static_cast<std::uint32_t>(rsp.warning.size()));
    v.insert(v.end(), rsp.warning.begin(), rsp.warning.end());
    put32(v, static_cast<std::uint32_t>(rsp.body.size()));
    v.insert(v.end(), rsp.body.begin(), rsp.body.end());
    return v;
}

Decode
decodeResponse(const std::uint8_t* data, std::size_t len, Response& out,
               std::size_t& consumed, std::string& error)
{
    consumed = 0;
    error.clear();
    if (len < 8)
        return Decode::NeedMore;
    if (get32(data) != kResponseMagic) {
        error = "bad response magic";
        return Decode::Bad;
    }
    const std::uint32_t payload = get32(data + 4);
    if (payload < 9 || payload > kMaxResponsePayload) {
        error = "response payload length " + std::to_string(payload) +
                " out of range";
        return Decode::Bad;
    }
    if (len < 8 + static_cast<std::size_t>(payload))
        return Decode::NeedMore;
    const std::uint8_t* p = data + 8;
    const std::uint8_t status = p[0];
    if (status > static_cast<std::uint8_t>(Status::ShuttingDown)) {
        error = "unknown status " + std::to_string(status);
        return Decode::Bad;
    }
    const std::uint32_t warn_len = get32(p + 1);
    if (warn_len > payload - 9) {
        error = "warning length exceeds payload";
        return Decode::Bad;
    }
    const std::uint32_t body_len = get32(p + 5 + warn_len);
    if (body_len != payload - 9 - warn_len) {
        error = "body length does not match payload";
        return Decode::Bad;
    }
    out.status = static_cast<Status>(status);
    out.warning.assign(reinterpret_cast<const char*>(p + 5), warn_len);
    out.body.assign(reinterpret_cast<const char*>(p + 9 + warn_len),
                    body_len);
    consumed = 8 + payload;
    return Decode::Ok;
}

// ---------------------------------------------------------------------------
// AdmissionQueue
// ---------------------------------------------------------------------------

AdmissionQueue::AdmissionQueue(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity)
{
}

bool
AdmissionQueue::tryPush(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (closed_ || q_.size() >= capacity_)
            return false;
        q_.push_back(std::move(job));
        peak_ = std::max(peak_, q_.size());
    }
    cv_.notify_one();
    return true;
}

bool
AdmissionQueue::pop(std::function<void()>& out)
{
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return closed_ || !q_.empty(); });
    if (closed_)
        return false; // pending jobs are dropped; conn waits time out
    out = std::move(q_.front());
    q_.pop_front();
    return true;
}

void
AdmissionQueue::close()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        closed_ = true;
        q_.clear();
    }
    cv_.notify_all();
}

std::size_t
AdmissionQueue::depth() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return q_.size();
}

std::size_t
AdmissionQueue::peakDepth() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return peak_;
}

// ---------------------------------------------------------------------------
// ThreadBudget
// ---------------------------------------------------------------------------

ThreadBudget::ThreadBudget(unsigned tokens) : free_(tokens == 0 ? 1 : tokens)
{
}

unsigned
ThreadBudget::acquire(unsigned want, const CancelToken* cancel)
{
    want = std::max(1u, want);
    std::unique_lock<std::mutex> lk(mu_);
    while (free_ == 0) {
        if (cancel) {
            cancel->checkpoint("ThreadBudget::acquire");
            cv_.wait_for(lk, std::chrono::milliseconds(10));
        } else {
            cv_.wait(lk);
        }
    }
    const unsigned granted = std::min(want, free_);
    free_ -= granted;
    return granted;
}

void
ThreadBudget::release(unsigned n)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        free_ += n;
    }
    cv_.notify_all();
}

unsigned
ThreadBudget::available() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return free_;
}

// ---------------------------------------------------------------------------
// ServerStatsSnapshot
// ---------------------------------------------------------------------------

std::string
ServerStatsSnapshot::toText() const
{
    std::ostringstream os;
    os << "accepted=" << accepted << "\n"
       << "rejected_connections=" << rejected_connections << "\n"
       << "requests=" << requests << "\n"
       << "shed=" << shed << "\n"
       << "timeouts=" << timeouts << "\n"
       << "bad_requests=" << bad_requests << "\n"
       << "not_found=" << not_found << "\n"
       << "errors=" << errors << "\n"
       << "salvaged=" << salvaged << "\n"
       << "revalidated=" << revalidated << "\n"
       << "completed=" << completed << "\n"
       << "faults_injected=" << faults_injected << "\n"
       << "queue_depth=" << queue_depth << "\n"
       << "queue_peak=" << queue_peak << "\n"
       << "in_flight=" << in_flight << "\n";
    return os.str();
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/** One accepted connection. The fd is owned by the Conn and closed by
 *  the destructor, never by a raw close() — a worker may still hold a
 *  shared_ptr while writing a late response, and closing under it
 *  would let the kernel recycle the fd mid-write. */
struct Server::Conn
{
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};

    /** One outstanding request per connection: the conn thread parks
     *  here while a worker executes and writes the response. */
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;

    /** Serializes writes (worker response vs conn-thread error reply). */
    std::mutex write_mu;

    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      queue_(cfg_.queue_depth),
      budget_(cfg_.thread_budget != 0
                  ? cfg_.thread_budget
                  : std::max(1u, std::thread::hardware_concurrency())),
      cache_(cfg_.cache_bytes),
      injector_(cfg_.faults)
{
    if (cfg_.workers == 0)
        cfg_.workers = 1;
    if (cfg_.per_query_threads == 0)
        cfg_.per_query_threads = 1;
    if (cfg_.default_deadline_ms == 0)
        cfg_.default_deadline_ms = 10'000;
    if (cfg_.max_deadline_ms < cfg_.default_deadline_ms)
        cfg_.max_deadline_ms = cfg_.default_deadline_ms;
}

Server::~Server()
{
    stop();
}

void
Server::registerTrace(const std::string& name, const std::string& path)
{
    std::lock_guard<std::mutex> lk(corpus_mu_);
    corpus_[name] = Registered{path, std::string()};
}

bool
Server::fireFault(sim::FaultSite site)
{
    if (!injector_.enabled())
        return false;
    // The injector is single-threaded by contract; the serving path
    // serializes every draw behind this mutex (draw ORDER across
    // concurrent requests follows the arrival interleaving, but the
    // set of firing draw indices is fixed by the seed).
    std::lock_guard<std::mutex> lk(fault_mu_);
    return injector_.fire(site, 0);
}

void
Server::start()
{
    if (running_)
        throw std::runtime_error("serve: already running");
    if (cfg_.socket_path.empty())
        throw std::runtime_error("serve: no socket path configured");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (cfg_.socket_path.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("serve: socket path too long: " +
                                 cfg_.socket_path);
    std::strncpy(addr.sun_path, cfg_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
        throw std::runtime_error("serve: socket(): " +
                                 std::string(std::strerror(errno)));
    ::unlink(cfg_.socket_path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 64) != 0) {
        const std::string err = std::strerror(errno);
        ::close(listen_fd_);
        listen_fd_ = -1;
        throw std::runtime_error("serve: cannot bind " + cfg_.socket_path +
                                 ": " + err);
    }

    stopping_ = false;
    shutdown_requested_ = false;
    running_ = true;
    for (unsigned i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
    accept_thread_ = std::thread([this] { acceptLoop(); });
}

void
Server::stop()
{
    if (!running_)
        return;
    stopping_ = true;
    queue_.close();

    // Unblock accept() with shutdown() only; the close (and the write
    // to listen_fd_) waits until the acceptor has joined, so the
    // accept loop never polls a concurrently-closed or reused fd.
    if (listen_fd_ >= 0)
        ::shutdown(listen_fd_, SHUT_RDWR);
    if (accept_thread_.joinable())
        accept_thread_.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        listen_fd_ = -1;
    }

    // Unblock every connection read.
    {
        std::lock_guard<std::mutex> lk(conns_mu_);
        for (const auto& c : conns_)
            if (c->fd >= 0)
                ::shutdown(c->fd, SHUT_RDWR);
    }

    for (std::thread& w : workers_)
        if (w.joinable())
            w.join();
    workers_.clear();

    reapConnections(/*join_all=*/true);

    ::unlink(cfg_.socket_path.c_str());
    running_ = false;
}

void
Server::requestShutdown()
{
    shutdown_requested_ = true;
    shutdown_cv_.notify_all();
}

bool
Server::shutdownRequested() const
{
    return shutdown_requested_;
}

void
Server::waitShutdownRequested()
{
    std::unique_lock<std::mutex> lk(shutdown_mu_);
    while (!shutdown_requested_)
        shutdown_cv_.wait_for(lk, std::chrono::milliseconds(200));
}

ServerStatsSnapshot
Server::stats() const
{
    ServerStatsSnapshot s;
    s.accepted = accepted_;
    s.rejected_connections = rejected_connections_;
    s.requests = requests_;
    s.shed = shed_;
    s.timeouts = timeouts_;
    s.bad_requests = bad_requests_;
    s.not_found = not_found_;
    s.errors = errors_;
    s.salvaged = salvaged_;
    s.revalidated = revalidated_;
    s.completed = completed_;
    s.queue_depth = queue_.depth();
    s.queue_peak = queue_.peakDepth();
    s.in_flight = in_flight_;
    {
        std::lock_guard<std::mutex> lk(fault_mu_);
        const sim::FaultStats& fs = injector_.stats();
        for (std::uint64_t n : fs.injected)
            s.faults_injected += n;
    }
    return s;
}

void
Server::reapConnections(bool join_all)
{
    std::vector<std::shared_ptr<Conn>> dead;
    {
        std::lock_guard<std::mutex> lk(conns_mu_);
        auto it = conns_.begin();
        while (it != conns_.end()) {
            if (join_all || (*it)->finished) {
                dead.push_back(*it);
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const auto& c : dead)
        if (c->thread.joinable())
            c->thread.join();
}

void
Server::acceptLoop()
{
    while (!stopping_) {
        pollfd pfd{listen_fd_, POLLIN, 0};
        const int pr = ::poll(&pfd, 1, 200);
        reapConnections(/*join_all=*/false);
        if (pr <= 0)
            continue;
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        if (stopping_) {
            ::close(fd);
            break;
        }
        if (fireFault(sim::FaultSite::ServeAccept))
            std::this_thread::sleep_for(std::chrono::microseconds(
                cfg_.faults.serve_accept_delay_us));

        std::size_t active;
        {
            std::lock_guard<std::mutex> lk(conns_mu_);
            active = conns_.size();
        }
        if (active >= cfg_.max_connections) {
            // Shed the whole connection with a typed response: the
            // client backs off exactly as it does for a shed request.
            const auto frame = encodeResponse(
                Response{Status::RetryAfter, "",
                         "server at connection limit; retry with backoff"});
            sendAll(fd, frame.data(), frame.size());
            ::close(fd);
            rejected_connections_ += 1;
            continue;
        }

        auto c = std::make_shared<Conn>();
        c->fd = fd;
        {
            std::lock_guard<std::mutex> lk(conns_mu_);
            conns_.push_back(c);
        }
        accepted_ += 1;
        c->thread = std::thread([this, c] { connLoop(c); });
    }
}

void
Server::writeResponse(const std::shared_ptr<Conn>& c, const Response& r)
{
    const std::vector<std::uint8_t> frame = encodeResponse(r);
    std::lock_guard<std::mutex> lk(c->write_mu);
    if (fireFault(sim::FaultSite::ServeWrite)) {
        // Torn write: dribble the frame out in small chunks with a
        // delay between them. The client must reassemble.
        const std::size_t chunk =
            std::max<std::size_t>(1, frame.size() / 8);
        std::size_t off = 0;
        while (off < frame.size()) {
            const std::size_t n = std::min(chunk, frame.size() - off);
            if (!sendAll(c->fd, frame.data() + off, n))
                return; // peer is gone; nothing to clean up
            off += n;
            std::this_thread::sleep_for(std::chrono::microseconds(
                cfg_.faults.serve_write_delay_us));
        }
        return;
    }
    sendAll(c->fd, frame.data(), frame.size());
}

void
Server::connLoop(std::shared_ptr<Conn> c)
{
    std::vector<std::uint8_t> buf;
    bool chop = false;       // torn-read injection for the current frame
    bool drawn = false;      // one ServeRead draw per frame
    while (!stopping_) {
        Request req;
        std::size_t consumed = 0;
        std::string err;
        const Decode d =
            decodeRequest(buf.data(), buf.size(), req, consumed, err);
        if (d == Decode::Ok) {
            buf.erase(buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(consumed));
            drawn = false;
            chop = false;
            handleRequest(c, std::move(req));
            continue;
        }
        if (d == Decode::Bad) {
            // A poisoned stream costs the connection, never the
            // daemon: reply with the parse error and hang up.
            bad_requests_ += 1;
            writeResponse(c, Response{Status::BadRequest, "",
                                      "bad request: " + err});
            break;
        }
        // NeedMore: pull bytes off the socket.
        if (!drawn) {
            drawn = true;
            chop = fireFault(sim::FaultSite::ServeRead);
        }
        std::uint8_t tmp[4096];
        const std::size_t cap = chop ? 1 : sizeof(tmp);
        const ssize_t k = recvSome(c->fd, tmp, cap, stopping_);
        if (k <= 0)
            break; // EOF, error, or server stop
        buf.insert(buf.end(), tmp, tmp + k);
        if (chop)
            std::this_thread::sleep_for(std::chrono::microseconds(
                cfg_.faults.serve_read_delay_us));
    }
    ::shutdown(c->fd, SHUT_RDWR); // fd itself closes with the Conn
    c->finished = true;
}

void
Server::handleRequest(const std::shared_ptr<Conn>& c, Request req)
{
    requests_ += 1;
    if (stopping_) {
        writeResponse(c, Response{Status::ShuttingDown, "",
                                  "server is shutting down"});
        return;
    }
    {
        std::lock_guard<std::mutex> lk(c->mu);
        c->done = false;
    }
    auto job = [this, c, r = std::move(req)] {
        in_flight_ += 1;
        Response rsp = execute(r);
        in_flight_ -= 1;
        writeResponse(c, rsp);
        {
            std::lock_guard<std::mutex> lk(c->mu);
            c->done = true;
        }
        c->cv.notify_all();
    };
    if (!queue_.tryPush(std::move(job))) {
        // Admission control: full queue sheds immediately with a typed
        // status instead of building unbounded backlog.
        shed_ += 1;
        writeResponse(c, Response{stopping_ ? Status::ShuttingDown
                                            : Status::RetryAfter,
                                  "",
                                  "request queue full; retry with backoff"});
        return;
    }
    // Park until the worker answers (one outstanding request per
    // connection keeps responses from interleaving). On server stop
    // the queued job may be dropped — the stop flag breaks the wait.
    std::unique_lock<std::mutex> lk(c->mu);
    while (!c->done && !stopping_)
        c->cv.wait_for(lk, std::chrono::milliseconds(100));
}

void
Server::workerLoop()
{
    std::function<void()> job;
    while (queue_.pop(job)) {
        job();
        job = nullptr; // release the Conn ref before blocking again
    }
}

std::string
Server::runQuery(const Request& req, const std::string& path,
                 unsigned threads, const CancelToken* cancel, bool salvage,
                 std::string& warn)
{
    // Served salvage warnings are the CLI's stderr lines, byte for byte.
    trace::ReadReport rep;
    QueryOptions opt;
    opt.threads = threads;
    opt.salvage = salvage;
    opt.cancel = cancel;
    opt.report = &rep;
    opt.cache = &cache_;
    const auto loadAnalysis = [&] {
        Analysis a = analyzeFile(path, opt);
        warn += salvageDiagnostics(rep);
        return a;
    };
    const auto query = [&] {
        WindowResult w = queryWindowFile(path, req.from, req.to, opt);
        warn += salvageDiagnostics(rep);
        return w;
    };

    std::ostringstream os;
    switch (req.op) {
        case Op::Window:
            return windowReport(query());
        case Op::Profile: {
            const std::uint32_t buckets = req.buckets ? req.buckets : 60;
            if (req.windowed)
                printActivity(os, windowAnalysis(query()), buckets);
            else
                printActivity(os, loadAnalysis(), buckets);
            return os.str();
        }
        case Op::Loss:
            printLossReport(os, loadAnalysis());
            return os.str();
        case Op::Stats:
            printSummary(os, loadAnalysis());
            return os.str();
        default:
            throw std::runtime_error("serve: not a query op");
    }
}

Response
Server::execute(const Request& req)
{
    // Ops that never touch a trace.
    switch (req.op) {
        case Op::Ping:
            completed_ += 1;
            return Response{Status::Ok, "", "pong\n"};
        case Op::ServerStats:
            completed_ += 1;
            return Response{Status::Ok, "", stats().toText()};
        case Op::Shutdown:
            completed_ += 1;
            requestShutdown();
            return Response{Status::Ok, "", "shutting down\n"};
        default:
            break;
    }

    std::string path;
    {
        std::lock_guard<std::mutex> lk(corpus_mu_);
        const auto it = corpus_.find(req.name);
        if (it == corpus_.end()) {
            not_found_ += 1;
            return Response{Status::NotFound, "",
                            "unknown trace: " + req.name};
        }
        path = it->second.path;
    }

    // Deadline: client value clamped to the server ceiling; zero means
    // the server default. Bound to the stop flag so stop() cancels
    // in-flight queries too.
    CancelToken token;
    token.bindStopFlag(&stopping_);
    const std::uint32_t deadline_ms =
        std::min(req.deadline_ms != 0 ? req.deadline_ms
                                      : cfg_.default_deadline_ms,
                 cfg_.max_deadline_ms);
    token.setDeadlineAfter(std::chrono::milliseconds(deadline_ms));

    if (fireFault(sim::FaultSite::ServeCachePressure))
        cache_.clear(); // thrash injection: every block refetches

    std::string warn;

    // Revalidate the registered file's identity. The BlockCache key
    // already carries the fingerprint (stale blocks are impossible);
    // this surfaces the change to the client as a note.
    try {
        const std::string id = BlockCache::fileId(path);
        std::lock_guard<std::mutex> lk(corpus_mu_);
        auto it = corpus_.find(req.name);
        if (it != corpus_.end()) {
            if (!it->second.file_id.empty() && it->second.file_id != id) {
                revalidated_ += 1;
                warn += "note: trace file changed on disk; cache "
                        "identity revalidated\n";
            }
            it->second.file_id = id;
        }
    } catch (const std::exception&) {
        // Unreadable file: fall through, the query will diagnose it.
    }

    unsigned granted = 0;
    try {
        granted = budget_.acquire(
            std::min(cfg_.per_query_threads,
                     std::max(1u, std::thread::hardware_concurrency())),
            &token);
        struct Release
        {
            ThreadBudget& b;
            unsigned n;
            ~Release() { b.release(n); }
        } release{budget_, granted};

        std::string body;
        try {
            body = runQuery(req, path, granted, &token, req.salvage, warn);
        } catch (const DeadlineExceeded&) {
            throw;
        } catch (const std::exception& e) {
            if (req.salvage) {
                errors_ += 1;
                return Response{Status::Error, warn, e.what()};
            }
            // Graceful degradation: a trace that fails strict reading
            // is answered from a salvage analysis with an explicit
            // loss warning instead of an error.
            std::string salvage_warn;
            try {
                body = runQuery(req, path, granted, &token, true,
                                salvage_warn);
            } catch (const DeadlineExceeded&) {
                throw;
            } catch (const std::exception& e2) {
                errors_ += 1;
                return Response{Status::Error, warn,
                                std::string("strict: ") + e.what() +
                                    "; salvage: " + e2.what()};
            }
            salvaged_ += 1;
            warn += "warning: strict read failed (" +
                    std::string(e.what()) +
                    "); degraded to salvage analysis\n";
            warn += salvage_warn;
        }
        completed_ += 1;
        return Response{Status::Ok, warn, body};
    } catch (const DeadlineExceeded& e) {
        timeouts_ += 1;
        return Response{stopping_ ? Status::ShuttingDown : Status::Timeout,
                        warn,
                        std::string(e.what()) + " (deadline " +
                            std::to_string(deadline_ms) + " ms)"};
    } catch (const std::exception& e) {
        errors_ += 1;
        return Response{Status::Error, warn, e.what()};
    }
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

Client::Client(std::string socket_path, ClientOptions opt)
    : path_(std::move(socket_path)), opt_(opt)
{
    if (opt_.max_attempts == 0)
        opt_.max_attempts = 1;
    if (opt_.base_backoff_ms == 0)
        opt_.base_backoff_ms = 1;
    if (opt_.max_backoff_ms < opt_.base_backoff_ms)
        opt_.max_backoff_ms = opt_.base_backoff_ms;
}

Client::~Client()
{
    closeFd();
}

void
Client::closeFd()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
Client::ensureConnected()
{
    if (fd_ >= 0)
        return;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path_.size() >= sizeof(addr.sun_path))
        throw std::runtime_error("client: socket path too long: " + path_);
    std::strncpy(addr.sun_path, path_.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("client: socket(): " +
                                 std::string(std::strerror(errno)));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        const std::string err = std::strerror(errno);
        ::close(fd);
        throw std::runtime_error("client: cannot connect to " + path_ +
                                 ": " + err);
    }
    fd_ = fd;
}

Response
Client::call(const Request& req)
{
    ensureConnected();
    const std::vector<std::uint8_t> frame = encodeRequest(req);
    if (!sendAll(fd_, frame.data(), frame.size())) {
        closeFd();
        throw std::runtime_error("client: send failed: " +
                                 std::string(std::strerror(errno)));
    }
    std::vector<std::uint8_t> buf;
    for (;;) {
        Response rsp;
        std::size_t consumed = 0;
        std::string err;
        const Decode d =
            decodeResponse(buf.data(), buf.size(), rsp, consumed, err);
        if (d == Decode::Ok)
            return rsp;
        if (d == Decode::Bad) {
            closeFd();
            throw std::runtime_error("client: bad response frame: " + err);
        }
        std::uint8_t tmp[65536];
        ssize_t k;
        do {
            k = ::recv(fd_, tmp, sizeof(tmp), 0);
        } while (k < 0 && errno == EINTR);
        if (k <= 0) {
            closeFd();
            throw std::runtime_error(
                "client: connection closed mid-response");
        }
        buf.insert(buf.end(), tmp, tmp + k);
    }
}

Response
Client::callWithRetry(const Request& req)
{
    std::uint64_t rng = opt_.backoff_seed;
    Response last;
    bool have_last = false;
    for (unsigned attempt = 0; attempt < opt_.max_attempts; ++attempt) {
        if (attempt > 0) {
            // Jittered exponential backoff: [b/2, b] where b doubles
            // per attempt up to the cap. Deterministic per seed, so
            // tests replay the same schedule.
            std::uint64_t b = opt_.base_backoff_ms;
            for (unsigned i = 1; i < attempt; ++i) {
                b *= 2;
                if (b >= opt_.max_backoff_ms)
                    break;
            }
            b = std::min<std::uint64_t>(b, opt_.max_backoff_ms);
            const std::uint64_t half = std::max<std::uint64_t>(1, b / 2);
            const std::uint64_t wait =
                half + splitmix64(rng) % (b - half + 1);
            std::this_thread::sleep_for(std::chrono::milliseconds(wait));
        }
        try {
            last = call(req);
            have_last = true;
        } catch (const std::exception&) {
            if (attempt + 1 == opt_.max_attempts)
                throw;
            closeFd();
            continue; // transport failure: reconnect and retry
        }
        if (last.status != Status::RetryAfter &&
            last.status != Status::Timeout)
            return last;
    }
    if (!have_last)
        throw std::runtime_error("client: no response after retries");
    return last; // exhausted: hand back the typed shed/timeout
}

} // namespace cell::ta::serve
