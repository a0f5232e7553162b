// Worker side of the supervised fork (DESIGN.md §11, §13).
//
// executeJob() is the pure library path — request in, outcome out, no
// process machinery — shared by the worker child and the unit tests that
// want to exercise job semantics without forking. workerPoolMain() is
// what actually runs inside every worker process the pool forks: it
// installs the SIGTERM→cancel handler and then, per job, arms the
// request's deterministic fault spec (the containment tests' handle),
// visits the serve.worker_crash / serve.worker_hang / serve.pipe sites,
// and frames the outcome onto the result pipe. It always leaves via
// _exit() — a worker never returns into the parent's stack.
#pragma once

#include <atomic>
#include <initializer_list>

#include "serve/job.h"

namespace mlpart::serve {

/// Runs the partitioning job in the current process and classifies every
/// failure into JobOutcome::status — this function does not throw. A
/// non-null `cancel` flag is bound to the run's deadline so an external
/// signal (drain) winds the job down cooperatively: the in-flight start
/// finishes, the rest are skipped, best-so-far + checkpoint are kept.
[[nodiscard]] JobOutcome executeJob(const JobRequest& req, const std::atomic<bool>* cancel);

#if !defined(_WIN32)
/// Post-fork hygiene, called first thing in every worker child: closes
/// every inherited descriptor except std{in,out,err} and `keep` (the
/// child's own pipe ends). Workers never exec, so FD_CLOEXEC cannot do
/// this. Without it a long-lived pool worker holds duplicates of client
/// sockets, sibling pipes, and the listen socket — a client whose
/// connection the front end closed would then never see EOF, and a
/// rebound socket path could still have a live listener in a child.
void closeInheritedFds(std::initializer_list<int> keep);

/// Child entry for a pool worker (DESIGN.md §13): loops reading
/// CRC-framed JobRequests from `jobFd` and answering each with one
/// CRC-framed JobOutcome on `resultFd`. Per job it clears the cancel flag
/// and re-arms fault injection from the request spec (or the environment
/// when the spec is empty), so a worker's Nth job behaves exactly like its
/// first. EOF on `jobFd` — retirement after a job, or pool shutdown — is
/// the clean exit (_exit(0)); any framing damage on the job pipe is fatal
/// to the worker, never guessed around. Never returns.
[[noreturn]] void workerPoolMain(int jobFd, int resultFd);
#endif

} // namespace mlpart::serve
