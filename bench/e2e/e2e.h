// Shared pieces of mlpart_benchmark, the end-to-end benchmark (README.md): run
// options, the per-start probe that decorates a refinement engine, the
// coarsening replay, the per-layer tally, and the serve exchanges both
// workload families use.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "calibrate.h"
#include "core/multilevel.h"
#include "report.h"
#include "stats.h"
#include "trace.h"

namespace mlpart::e2e {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;     ///< measured window
    bool trace = false;
    double scale = 1.0;      ///< synthetic-instance scale (toy runs < 1)
    int starts = 0;          ///< > 0: exactly this many timed starts
    double rate = 75;        ///< serve-small phase A arrivals per second
    std::string workDir;     ///< instances, sockets, state dirs, trace file
    std::string serveBin;    ///< the mlpart_serve binary
    Calibrator* calib = nullptr; ///< host-speed samples, taken between operations
};

/// Seconds on the steady clock (an arbitrary but fixed origin).
[[nodiscard]] double nowSeconds();

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double selfPeakRssMb();

/// parallelMultiStart's first-attempt stream seed for run `run` of `seed`
/// (core/parallel_multistart.cpp): start i of a workload run with seed S
/// is run i of `mlpart partition --seed S`, and start 0 is what a serve
/// job {"seed": S, "runs": 1} computes.
[[nodiscard]] std::uint64_t streamSeed(std::uint64_t seed, std::int64_t run);

/// Generates Table I stand-in `name` at `scale` and writes it as .hgr to
/// `path`, in a forked child so the generator's memory never counts toward
/// this process's peak. Returns false when the child fails.
[[nodiscard]] bool writeInstanceFile(const std::string& name, double scale,
                                     const std::string& path);

/// "latency_tail_ms: pXX of N samples has only K beyond it" — for a tail
/// that rests on fewer than ten samples.
[[nodiscard]] std::string tailNote(const Summary& s);

/// Empties (or creates) directory `path` and returns it: durable serve
/// state left by an earlier run must never leak into this one.
std::string freshDir(const std::string& path);

/// Request id `prefix` + `n` (built by appending, which keeps GCC 12's
/// -Wrestrict false positive on "literal" + std::string away).
[[nodiscard]] std::string requestId(const std::string& prefix, std::size_t n);

/// A one-start serve job ({"op":"partition", ..., "runs":1}) on `instance`
/// with stream seed `seed`, as one NDJSON request line.
[[nodiscard]] std::string partitionRequest(const std::string& id, const std::string& instance,
                                           std::uint64_t seed, int k, const std::string& engine,
                                           int vcycleThreads);

/// CRC of a partition's binary encoding — what a serve result reports as
/// part_crc.
[[nodiscard]] std::uint32_t partitionCrc(const Partition& p);

// ---------------------------------------------------------------------------
// Refinement probe: a decorated RefinerFactory.

/// A span measured inside an operation, attached once the operation's own
/// span exists.
struct ChildSpan {
    std::string name;
    double start;
    double end;
};

/// Counters and child spans of one traced start, filled by the decorated
/// engines the start's V-cycle creates.
struct StartProbe {
    const Hypergraph* h0 = nullptr; ///< the flat netlist (level-0 detection)
    std::int64_t calls = 0;
    std::int64_t passes = 0;
    refine::RefineProfile profile;
    double refineSec = 0;
    double level0Sec = 0;
    double cutInLevel0 = 0;
    double cutOutLevel0 = 0;
    double cutInSum = 0; ///< over every refine() call
    double cutOutSum = 0;
    std::vector<ChildSpan> children; ///< refine calls + the probe's cut reads
};

/// Wraps `inner` so every engine it creates reports into `probe`: each
/// refine() call is timed, its cut taken before and after, its passes
/// summed, and the engine's RefineProfile attached through setProfile.
[[nodiscard]] RefinerFactory probedFactory(RefinerFactory inner, StartProbe* probe);

/// Result of replaying a start's coarsening outside the start.
struct CoarsenReplay {
    std::vector<ModuleId> levelModules; ///< |V_i| for i = 0..m
    std::vector<ChildSpan> spans;       ///< coarsen.match / coarsen.induce
    double matchSec = 0;
    double induceSec = 0;
};

/// Re-runs the V-cycle's coarsening phase for a start whose rng was seeded
/// with `rngSeed`: the same matcher (runMatcher, or matchParallel on the
/// workspace pool when vcycleThreads > 0), induceInto, and MultilevelPartitioner's
/// adaptive net-size-limit rule. Matching is the only rng consumer before
/// the initial partition, so the replay must reproduce the start's
/// MLResult::levelModules exactly. The start's own coarsening time is
/// MLResult::timings.coarsenSec; the replay exists to split it into
/// matching and inducing, which the program does not time separately.
[[nodiscard]] CoarsenReplay replayCoarsening(const Hypergraph& h0, const MLConfig& cfg,
                                             std::uint64_t rngSeed, MLWorkspace& ws);

/// Adds a finished start (or job) `r`, given in nowSeconds() time, to the
/// tracer: the start span; as its children a `coarsen` span placed at its
/// beginning with the start's own coarsening time, and the probe's refine
/// and cut-read spans; and the replay's spans under a separate
/// `coarsen.replay` root. Returns the start's span id.
std::int64_t recordStart(Tracer& tracer, const std::string& name, double start, double end,
                         const MLResult& r, const StartProbe& probe, const CoarsenReplay& replay);

/// Accumulates the traced starts of a run and turns them into the
/// coarsen / core / refine per-layer metrics (per-start means).
class LayerTally {
public:
    void add(const Tracer& tracer, std::int64_t startSpan, double startSec, const MLResult& r,
             const StartProbe& probe, const CoarsenReplay& replay);
    void emit(Report& report) const;

private:
    std::size_t starts_ = 0;
    double startSec_ = 0, selfSec_ = 0, coarsenSec_ = 0, matchSec_ = 0, induceSec_ = 0;
    double levels_ = 0, shrinkSum_ = 0;
    std::size_t shrinkN_ = 0;
    StartProbe sum_;
};

// ---------------------------------------------------------------------------
// Serve exchanges (serve_exchange.cpp).

/// One request of a serve exchange.
struct ServeRequest {
    std::string id;
    std::string line;     ///< the NDJSON request, no newline
    double due = 0;       ///< open loop: seconds after the exchange starts
    int conn = 0;         ///< open loop: connection index
    bool cancel = false;  ///< {"op":"cancel"} of the request `id` names
    bool repeat = false;  ///< re-sends an earlier (instance, seed)
    std::string instance; ///< partition requests: instance file
    std::uint64_t seed = 0;
};

/// What came back for one request.
struct ServeOutcome {
    int conn = -1;
    double ready = -1;    ///< when it could first be sent (due / conn idle)
    double sent = -1;     ///< exchange seconds; -1 = never sent
    double origin = -1;   ///< latency origin: due (open loop) or sent (closed)
    double received = -1; ///< first response; -1 = none
    double admitSec = 0;  ///< in-process only: handleLine return time
    int responses = 0;    ///< response lines routed to this request
    bool ok = false;
    bool cached = false;
    bool retried = false;
    bool cancelled = false; ///< a later cancel request targets this one
    std::string status;     ///< result status, or the cancel outcome
    std::int64_t cut = -1;
    std::int64_t crc = -1;
    double queueSec = 0;
    double computeSec = 0;

    [[nodiscard]] double latency() const { return received - origin; }
    [[nodiscard]] bool answeredOk() const { return received >= 0 && ok; }
};

enum class Loop {
    kOpen,   ///< send each request at its due time, whatever is outstanding
    kClosed, ///< each connection sends its next request when answered
};

struct Exchange {
    std::vector<ServeOutcome> outs;    ///< parallel to the exchange's requests
    std::vector<std::string> stray;    ///< lines no request can claim
    std::vector<std::string> warnings; ///< {"event":"warning"} lines
    double elapsed = 0;                ///< first send to last response
    double traceSec = 0;               ///< spent recording spans
};

/// Service shape shared by the socket server and the in-process replay.
struct ServeConfig {
    int workers = 2;
    int queue = 64;
    int cache = 512;
};

/// Runs `reqs` over `conns` connections to the mlpart_serve listening on
/// `socketPath`. Open loop sends every request; closed loop sends while
/// `window` seconds last and drops the unsent tail of `reqs`. Waits up to
/// `drain` seconds after the last send for outstanding responses. When
/// `tracer` is set, every answered request is recorded as spans the moment
/// its result arrives (after its arrival time is taken).
[[nodiscard]] Exchange exchangeOverSocket(const std::string& socketPath, int conns,
                                          std::vector<ServeRequest>& reqs, Loop loop,
                                          double window, double drain, Tracer* tracer);

/// The same exchange through an in-process serve::Service of shape `c`
/// (pre-forked pool, result cache, durable state in `stateDir`), driven by
/// handleLine with one registered client per connection.
[[nodiscard]] Exchange exchangeInProcess(const ServeConfig& c, const std::string& stateDir,
                                         int conns, std::vector<ServeRequest>& reqs, Loop loop,
                                         double window, double drain);

/// Records in `report` every request that broke the one-response rule or
/// (unless cancelled on purpose) came back non-OK, and every stray line;
/// notes service-wide warnings.
void checkResponses(Report& report, const std::string& what,
                    const std::vector<ServeRequest>& reqs, const Exchange& s);

/// Checks every cache hit against the first reply for its key.
void checkCacheHits(Report& report, const std::vector<ServeRequest>& reqs,
                    const std::vector<ServeOutcome>& outs);

/// A running mlpart_serve on a unix socket; stopped (SIGTERM, then
/// SIGKILL) and reaped by stop() or the destructor.
class ServerProcess {
public:
    ServerProcess() = default;
    ~ServerProcess() { (void)stop(); }
    ServerProcess(const ServerProcess&) = delete;
    ServerProcess& operator=(const ServerProcess&) = delete;

    /// Spawns `bin` serving `socketPath` with shape `c` and durable state
    /// in `stateDir`, output to `logPath`, and waits until the socket
    /// accepts. Returns false (process reaped) on failure.
    [[nodiscard]] bool start(const std::string& bin, const ServeConfig& c,
                             const std::string& socketPath, const std::string& stateDir,
                             const std::string& logPath);

    /// Drains (SIGTERM), reaps, and returns the server's peak RSS in MB as
    /// wait4 reports it; -1 when it had to be killed or was not running.
    double stop();

private:
    int pid_ = -1;
};

/// Notes every {"event":"warning"} line a server wrote to `logPath` (its
/// client-0 output, where service-wide warnings go).
void noteServerWarnings(Report& report, const std::string& logPath);

/// Replays the answered partition requests of `reqs` (their outcomes lead
/// `outs`) through a standalone serve::Journal in `dir` (appendAdmit +
/// appendDone each) and returns the per-request append time in ms; failed
/// appends are recorded in `report`.
[[nodiscard]] std::vector<double> replayJournal(Report& report, const std::string& dir,
                                                const std::vector<ServeRequest>& reqs,
                                                const std::vector<ServeOutcome>& outs);

/// The serve / journal / generator per-layer metrics of a traced run, from
/// a socket exchange and an in-process replay of the same requests.
void emitServeLayers(Report& report, const std::vector<ServeRequest>& reqs, const Exchange& socket,
                     const std::vector<ServeRequest>& inprocReqs, const Exchange& inproc,
                     const std::vector<double>& journalMs);

// ---------------------------------------------------------------------------
// Workloads.

[[nodiscard]] bool isPartitionWorkload(const std::string& name);
/// Both return false when set-up fails before anything could be measured.
[[nodiscard]] bool runPartitionWorkload(const Options& o, Report& report, Tracer* tracer);
[[nodiscard]] bool runServeWorkload(const Options& o, Report& report, Tracer* tracer);

} // namespace mlpart::e2e
