// Serve exchanges: one single-threaded event loop that sends a request list
// open loop (on schedule) or closed loop (one outstanding per connection)
// and routes every response line back to its request, over either the real
// mlpart_serve unix socket or an in-process serve::Service.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "e2e.h"
#include "serve/journal.h"
#include "serve/json.h"
#include "serve/service.h"
#include "stats.h"

namespace mlpart::e2e {

namespace {

using Lines = std::vector<std::pair<int, std::string>>; // (connection, line)

/// Where an exchange's requests go and its responses come from.
class Transport {
public:
    virtual ~Transport() = default;
    /// Sends one request line on `conn`; returns the seconds the call took.
    virtual double send(int conn, const std::string& line) = 0;
    /// Waits up to `timeout` seconds for response lines and appends them.
    virtual void poll(double timeout, Lines& out) = 0;
};

int connectUnix(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) return -1;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    const int fd = socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        close(fd);
        return -1;
    }
    return fd;
}

class SocketTransport final : public Transport {
public:
    SocketTransport(const std::string& path, int conns) : bufs_(static_cast<std::size_t>(conns)) {
        for (int c = 0; c < conns; ++c) {
            const int fd = connectUnix(path);
            if (fd < 0) throw std::runtime_error("cannot connect to " + path);
            fds_.push_back(fd);
        }
    }
    ~SocketTransport() override {
        for (const int fd : fds_)
            if (fd >= 0) close(fd);
    }
    SocketTransport(const SocketTransport&) = delete;
    SocketTransport& operator=(const SocketTransport&) = delete;

    double send(int conn, const std::string& line) override {
        const double t0 = nowSeconds();
        const std::string data = line + "\n";
        const int fd = fds_[static_cast<std::size_t>(conn)];
        if (fd < 0) throw std::runtime_error("request on a connection the server closed");
        std::size_t off = 0;
        while (off < data.size()) {
            const ssize_t n = ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) throw std::runtime_error("request write failed");
            off += static_cast<std::size_t>(n);
        }
        return nowSeconds() - t0;
    }

    void poll(double timeout, Lines& out) override {
        std::vector<pollfd> pfds;
        for (const int fd : fds_) pfds.push_back({fd, POLLIN, 0});
        timespec ts{};
        const double t = std::max(0.0, timeout);
        ts.tv_sec = static_cast<time_t>(t);
        ts.tv_nsec = static_cast<long>((t - static_cast<double>(ts.tv_sec)) * 1e9);
        if (ppoll(pfds.data(), pfds.size(), &ts, nullptr) <= 0) return;
        char chunk[65536];
        for (std::size_t c = 0; c < pfds.size(); ++c) {
            if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
            const ssize_t n = read(fds_[c], chunk, sizeof chunk);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) {
                // The server hung up: stop polling the connection; the
                // responses it still owed show up as missing in the checks.
                close(fds_[c]);
                fds_[c] = -1;
                continue;
            }
            std::string& buf = bufs_[c];
            buf.append(chunk, static_cast<std::size_t>(n));
            std::size_t nl;
            while ((nl = buf.find('\n')) != std::string::npos) {
                out.emplace_back(static_cast<int>(c), buf.substr(0, nl));
                buf.erase(0, nl + 1);
            }
        }
    }

private:
    std::vector<int> fds_;
    std::vector<std::string> bufs_;
};

class InProcessTransport final : public Transport {
public:
    InProcessTransport(const ServeConfig& c, const std::string& stateDir, int conns)
        : service_(serviceConfig(c, stateDir), [this](const std::string& l) { push(-1, l); }) {
        for (int i = 0; i < conns; ++i)
            tokens_.push_back(
                service_.registerClient([this, i](const std::string& l) { push(i, l); }));
    }

    double send(int conn, const std::string& line) override {
        const double t0 = nowSeconds();
        service_.handleLine(line, tokens_[static_cast<std::size_t>(conn)]);
        return nowSeconds() - t0;
    }

    void poll(double timeout, Lines& out) override {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait_for(lock, std::chrono::duration<double>(std::max(0.0, timeout)),
                     [this] { return !queue_.empty(); });
        for (auto& l : queue_) out.push_back(std::move(l));
        queue_.clear();
    }

private:
    static serve::ServiceConfig serviceConfig(const ServeConfig& c, const std::string& stateDir) {
        serve::ServiceConfig sc;
        sc.workers = c.workers;
        sc.queueLimit = c.queue;
        sc.cacheEntries = c.cache;
        sc.usePool = true;
        sc.stateDir = stateDir;
        return sc;
    }

    void push(int conn, const std::string& line) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            queue_.emplace_back(conn, line);
        }
        cv_.notify_one();
    }

    // Declared before service_: its dispatchers emit into these until it
    // is destroyed.
    std::mutex mu_;
    std::condition_variable cv_;
    Lines queue_; ///< guarded by mu_
    serve::Service service_;
    std::vector<std::uint64_t> tokens_;
};

Exchange runExchange(Transport& t, std::vector<ServeRequest>& reqs, Loop loop, int conns,
                     double window, double drain, Tracer* tracer) {
    Exchange s;
    s.outs.resize(reqs.size());
    std::unordered_map<std::string, std::size_t> resultOf, cancelOf;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        (reqs[i].cancel ? cancelOf : resultOf)[reqs[i].id] = i;

    const double t0 = nowSeconds();
    const auto now = [t0] { return nowSeconds() - t0; };
    const double shift = tracer != nullptr ? tracer->now() - nowSeconds() + t0 : 0;
    std::vector<int> outstanding(static_cast<std::size_t>(conns), 0);
    std::vector<double> idleSince(static_cast<std::size_t>(conns), 0.0);
    std::size_t next = 0;
    std::int64_t awaiting = 0;
    double firstSend = -1, lastSend = 0, lastRecv = 0;

    const auto sendOne = [&](std::size_t i, int conn, double ready) {
        ServeOutcome& o = s.outs[i];
        o.conn = conn;
        o.ready = ready;
        o.sent = now();
        o.origin = loop == Loop::kOpen ? reqs[i].due : o.sent;
        if (firstSend < 0) firstSend = o.sent;
        o.admitSec = t.send(conn, reqs[i].line);
        lastSend = now();
        ++awaiting;
        if (reqs[i].cancel) {
            const auto it = resultOf.find(reqs[i].id);
            if (it != resultOf.end()) s.outs[it->second].cancelled = true;
        } else {
            ++outstanding[static_cast<std::size_t>(conn)];
        }
    };

    const auto route = [&](int conn, const std::string& line, double at) {
        serve::JsonObject o;
        try {
            o = serve::parseJsonObject(line);
        } catch (const std::exception&) {
            s.stray.push_back(line);
            return;
        }
        const std::string event = serve::getString(o, "event", "");
        const std::string id = serve::getString(o, "id", "");
        if (event == "warning") { // service-wide, not a response
            s.warnings.push_back(line);
            return;
        }
        const auto& index = event == "cancel" ? cancelOf : resultOf;
        const auto it = index.find(id);
        if ((event != "result" && event != "cancel") || it == index.end()) {
            s.stray.push_back(line);
            return;
        }
        ServeOutcome& out = s.outs[it->second];
        if (out.conn != conn) {
            s.stray.push_back("response on the wrong connection: " + line);
            return;
        }
        if (++out.responses > 1) return;
        out.received = at;
        lastRecv = at;
        --awaiting;
        if (event == "cancel") {
            out.status = serve::getString(o, "outcome", "");
            return;
        }
        out.status = serve::getString(o, "status", "");
        out.ok = serve::getBool(o, "ok", false);
        out.cached = serve::getBool(o, "cached", false);
        out.retried = serve::getBool(o, "retried", false);
        out.cut = serve::getInt(o, "cut", -1);
        out.crc = serve::getInt(o, "part_crc", -1);
        out.computeSec = serve::getNumber(o, "seconds", 0);
        out.queueSec = serve::getNumber(o, "queue_seconds", 0);
        --outstanding[static_cast<std::size_t>(conn)];
        idleSince[static_cast<std::size_t>(conn)] = at;
        if (tracer != nullptr) {
            const double tr = nowSeconds();
            const std::int64_t root =
                tracer->add("request", 0, out.origin + shift, at + shift);
            tracer->add("serve.queue", root, out.sent + shift, out.sent + out.queueSec + shift);
            tracer->add("serve.compute", root, at - out.computeSec + shift, at + shift);
            s.traceSec += nowSeconds() - tr;
        }
    };

    Lines lines;
    for (;;) {
        if (loop == Loop::kOpen) {
            while (next < reqs.size() && reqs[next].due <= now()) {
                sendOne(next, reqs[next].conn, reqs[next].due);
                ++next;
            }
        } else {
            for (int c = 0; c < conns && next < reqs.size() && now() < window; ++c)
                if (outstanding[static_cast<std::size_t>(c)] == 0) {
                    sendOne(next, c, idleSince[static_cast<std::size_t>(c)]);
                    ++next;
                }
        }
        const double tn = now();
        const bool sending = next < reqs.size() && (loop == Loop::kOpen || tn < window);
        if (!sending && awaiting == 0) break;
        if (!sending && tn - lastSend > drain) break;
        double timeout = drain - (tn - lastSend);
        if (sending) timeout = loop == Loop::kOpen ? reqs[next].due - tn : window - tn;
        lines.clear();
        t.poll(timeout, lines);
        const double at = now();
        for (const auto& [conn, line] : lines) route(conn, line, at);
    }
    if (loop == Loop::kClosed) {
        reqs.resize(next);
        s.outs.resize(next);
    }
    s.elapsed = firstSend < 0 ? 0 : std::max(lastRecv, lastSend) - firstSend;
    return s;
}

} // namespace

Exchange exchangeOverSocket(const std::string& socketPath, int conns,
                            std::vector<ServeRequest>& reqs, Loop loop, double window,
                            double drain, Tracer* tracer) {
    SocketTransport t(socketPath, conns);
    return runExchange(t, reqs, loop, conns, window, drain, tracer);
}

Exchange exchangeInProcess(const ServeConfig& c, const std::string& stateDir, int conns,
                           std::vector<ServeRequest>& reqs, Loop loop, double window,
                           double drain) {
    InProcessTransport t(c, stateDir, conns);
    return runExchange(t, reqs, loop, conns, window, drain, nullptr);
}

void checkResponses(Report& report, const std::string& what, const std::vector<ServeRequest>& reqs,
                    const Exchange& s) {
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const ServeRequest& r = reqs[i];
        const ServeOutcome& o = s.outs[i];
        if (o.responses != 1) {
            report.fail(what + ": request " + r.id + (r.cancel ? " (cancel)" : "") + " got " +
                        std::to_string(o.responses) + " responses, want exactly 1");
            continue;
        }
        if (r.cancel) continue;
        // A deliberate cancel may land (CANCELLED) or lose the race (OK).
        if (!o.ok && !(o.cancelled && o.status == "CANCELLED"))
            report.fail(what + ": request " + r.id + " answered " + o.status);
    }
    for (const std::string& line : s.stray) report.fail(what + ": unexpected line " + line);
    for (const std::string& line : s.warnings) report.note(what + ": " + line);
}

void noteServerWarnings(Report& report, const std::string& logPath) {
    std::ifstream in(logPath);
    std::string line;
    while (std::getline(in, line))
        if (line.find("\"event\":\"warning\"") != std::string::npos)
            report.note("mlpart_serve: " + line);
}

void checkCacheHits(Report& report, const std::vector<ServeRequest>& reqs,
                    const std::vector<ServeOutcome>& outs) {
    std::map<std::pair<std::string, std::uint64_t>, const ServeOutcome*> first;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const ServeOutcome& o = outs[i];
        if (reqs[i].cancel || !o.answeredOk()) continue;
        const auto key = std::make_pair(reqs[i].instance, reqs[i].seed);
        if (!o.cached) {
            first.emplace(key, &o);
            continue;
        }
        const auto it = first.find(key);
        if (it == first.end())
            report.fail("cache hit " + reqs[i].id + " has no earlier reply for its key");
        else if (it->second->cut != o.cut || it->second->crc != o.crc)
            report.fail("cache hit " + reqs[i].id + " differs from its key's first reply");
    }
}

bool ServerProcess::start(const std::string& bin, const ServeConfig& c,
                          const std::string& socketPath, const std::string& stateDir,
                          const std::string& logPath) {
    std::filesystem::remove(socketPath);
    const std::vector<std::string> args = {
        bin, "--socket", socketPath, "--pool", "--workers", std::to_string(c.workers),
        "--queue", std::to_string(c.queue), "--cache", std::to_string(c.cache),
        "--state-dir", stateDir};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    const int log = open(logPath.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (log < 0) return false;
    const pid_t pid = fork();
    if (pid == 0) {
        const int devnull = open("/dev/null", O_RDONLY);
        if (devnull >= 0) dup2(devnull, STDIN_FILENO);
        dup2(log, STDOUT_FILENO);
        dup2(log, STDERR_FILENO);
        execv(bin.c_str(), argv.data());
        _exit(127);
    }
    close(log);
    if (pid < 0) return false;
    pid_ = pid;
    // Set-up ends when the socket accepts a connection.
    for (int i = 0; i < 10000; ++i) {
        const int fd = connectUnix(socketPath);
        if (fd >= 0) {
            close(fd);
            return true;
        }
        int status = 0;
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
            pid_ = -1;
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    (void)stop();
    return false;
}

double ServerProcess::stop() {
    if (pid_ <= 0) return -1;
    kill(pid_, SIGTERM);
    int status = 0;
    rusage ru{};
    bool exited = false;
    for (int i = 0; i < 3000 && !exited; ++i) {
        if (wait4(pid_, &status, WNOHANG, &ru) == pid_) exited = true;
        else std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (!exited) {
        kill(pid_, SIGKILL);
        while (wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
        }
    }
    pid_ = -1;
    const bool clean = exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return clean ? static_cast<double>(ru.ru_maxrss) / 1024.0 : -1;
}

std::vector<double> replayJournal(Report& report, const std::string& dir,
                                  const std::vector<ServeRequest>& reqs,
                                  const std::vector<ServeOutcome>& outs) {
    std::vector<double> ms;
    serve::Journal journal(dir);
    (void)journal.recover();
    // A degraded journal turns appends into no-ops: nothing would be timed.
    if (journal.degraded()) {
        report.fail("journal in " + dir + " opened degraded");
        return ms;
    }
    std::uint64_t seq = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const ServeOutcome& o = outs[i];
        if (reqs[i].cancel || o.received < 0) continue;
        const serve::JobRequest req = serve::parseJobRequest(reqs[i].line);
        serve::JobResult res;
        res.id = reqs[i].id;
        res.cached = o.cached;
        res.queueSeconds = o.queueSec;
        res.outcome.cut = o.cut;
        res.outcome.partitionCrc = static_cast<std::uint32_t>(o.crc);
        res.outcome.seconds = o.computeSec;
        res.outcome.runsOk = 1;
        const double t0 = nowSeconds();
        const robust::Status a = journal.appendAdmit(++seq, req);
        const robust::Status d = journal.appendDone(seq, res);
        ms.push_back((nowSeconds() - t0) * 1e3);
        if (!a.ok() || !d.ok()) report.fail("journal append failed: " + (a.ok() ? d : a).message);
    }
    return ms;
}

void emitServeLayers(Report& r, const std::vector<ServeRequest>& reqs, const Exchange& socket,
                     const std::vector<ServeRequest>& inprocReqs, const Exchange& inproc,
                     const std::vector<double>& journalMs) {
    std::vector<double> queue, compute, overhead, hit, late, freshPrefix;
    std::int64_t answered = 0, hits = 0, retried = 0, rejected = 0, cancelled = 0;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const ServeOutcome& o = socket.outs[i];
        if (o.sent >= 0) late.push_back((o.sent - o.ready) * 1e3);
        if (reqs[i].cancel || o.received < 0) continue;
        ++answered;
        retried += o.retried ? 1 : 0;
        rejected += o.status == "REJECTED" || o.status == "RESOURCE_EXHAUSTED" ? 1 : 0;
        cancelled += o.status == "CANCELLED" ? 1 : 0;
        if (!o.ok || o.cancelled) continue;
        if (o.cached) {
            ++hits;
            hit.push_back(o.latency() * 1e3);
            continue;
        }
        queue.push_back(o.queueSec * 1e3);
        compute.push_back(o.computeSec * 1e3);
        overhead.push_back((o.latency() - o.queueSec - o.computeSec) * 1e3);
        if (i < inprocReqs.size()) freshPrefix.push_back(overhead.back());
    }
    std::vector<double> admit, inprocFresh;
    for (std::size_t i = 0; i < inprocReqs.size(); ++i) {
        const ServeOutcome& o = inproc.outs[i];
        if (inprocReqs[i].cancel || o.sent < 0) continue;
        admit.push_back(o.admitSec * 1e3);
        if (o.answeredOk() && !o.cached && !o.cancelled)
            inprocFresh.push_back((o.latency() - o.queueSec - o.computeSec) * 1e3);
    }
    r.set("serve.queue_ms_p50", percentile(queue, 50), "ms", queue.size());
    r.set("serve.queue_ms_p99", percentile(queue, 99), "ms", queue.size());
    r.set("serve.compute_ms_p50", percentile(compute, 50), "ms", compute.size());
    r.set("serve.overhead_ms_p50", percentile(overhead, 50), "ms", overhead.size());
    r.set("serve.overhead_ms_p99", percentile(overhead, 99), "ms", overhead.size());
    r.set("serve.hit_ms_p50", percentile(hit, 50), "ms", hit.size());
    r.set("serve.admit_ms_p50", percentile(admit, 50), "ms", admit.size());
    // What the socket front end adds: per-request overhead over the socket
    // minus the same requests' overhead through handleLine in process.
    r.set("serve.frontend_ms_p50", median(freshPrefix) - median(inprocFresh), "ms",
          std::min(freshPrefix.size(), inprocFresh.size()));
    r.set("serve.cache_hit_frac",
          answered > 0 ? static_cast<double>(hits) / static_cast<double>(answered) : 0, "ratio",
          static_cast<std::size_t>(answered));
    r.set("serve.retried", static_cast<double>(retried), "count",
          static_cast<std::size_t>(answered));
    r.set("serve.rejected", static_cast<double>(rejected), "count",
          static_cast<std::size_t>(answered));
    r.set("serve.cancelled", static_cast<double>(cancelled), "count",
          static_cast<std::size_t>(answered));
    r.set("journal.append_ms_p50", percentile(journalMs, 50), "ms", journalMs.size());
    r.set("gen.late_ms_p99", percentile(late, 99), "ms", late.size());
}

} // namespace mlpart::e2e
