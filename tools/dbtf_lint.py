#!/usr/bin/env python3
"""DBTF project linter: structural rules the compiler cannot check.

Scans src/**/*.{h,cc} and enforces the layering and locking discipline of
the driver/worker runtime (see DESIGN.md, "Correctness tooling"):

  worker-include      dist/worker.h may be included only inside src/dist/
                      and by src/dbtf/engine.cc (the routing call sites).
                      Driver code must go through Cluster routing and the
                      provisioning seam (dist/provision.h).
  naked-mutex         every mutex member (std::mutex or dbtf::Mutex, named
                      with a trailing underscore) must guard something: the
                      declaring file must annotate at least one member with
                      DBTF_GUARDED_BY(<that mutex>). A mutex protecting
                      nothing is either dead or hiding unguarded state.
  thread-construction std::thread objects are created only by the pool
                      (src/dist/thread_pool.{h,cc}). Reading static members
                      such as std::thread::hardware_concurrency() is fine.
  comm-stats-mutation the CommStats ledger is mutated (Record*/Reset) only
                      by Cluster's charging layer (src/dist/cluster.cc), so
                      every routed message is charged exactly once.
  fault-handling      failure is expressed only through dist/fault.h: no
                      wall-clock sleeps anywhere in src/dist/ or src/dbtf/
                      (faults cost virtual time, never real time), and
                      Status::Unavailable is constructed only by the fault
                      seam (dist/fault.cc) and the retrying router
                      (dist/cluster.cc) — ad-hoc failure flags elsewhere
                      would bypass the retry policy and the recovery ledger.
  recovery-stats-mutation
                      the RecoveryLedger is mutated (Record*) only by
                      Cluster's charging layer (src/dist/cluster.cc), so
                      every retry/re-provision is counted exactly once.
  filesystem-write    durable state leaves the process only through the two
                      sanctioned seams: the checkpoint store (src/ckpt/) and
                      the text tensor/matrix codecs (src/tensor/io.cc).
                      std::ofstream, fopen, and rename anywhere else would
                      create files outside the atomic-write discipline
                      (tmp + fsync + rename) that crash recovery relies on.
  transport-syscalls  raw process and socket syscalls (socket/bind/listen/
                      accept/connect, fork/exec/waitpid/kill, mkdtemp,
                      send/recv) appear only in src/dist/transport/, where
                      the socket transport owns process lifecycles and frame
                      I/O. Anywhere else they would spawn workers or move
                      bytes outside the transport seam, invisible to the
                      CommStats ledger and the fault injector.
  async-seam          the runtime is blocking: routing calls deliver under
                      Cluster's per-machine delivery locks, on the pool or
                      the calling thread, and return when done. So
                      std::promise, std::future, std::packaged_task, and
                      std::async appear nowhere in src/, and
                      std::condition_variable only in the two places that
                      block on one: common/mutex.h (MutexLock::Wait) and
                      dist/thread_pool.h. A hand-rolled future or signal
                      would deliver outside the delivery locks, breaking the
                      call-order delivery that keeps fault injection
                      deterministic.

Exit status 0 when clean; 1 with "file:line: [rule] message" diagnostics
otherwise. Run as a CTest case (dbtf_lint) and in CI.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# (rule, regex) pairs are matched per line, after comment stripping.
WORKER_INCLUDE_RE = re.compile(r'#\s*include\s+"dist/worker\.h"')
MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:(?:std|dbtf)::)?[Mm]utex\s+(\w+_)\s*;")
THREAD_RE = re.compile(r"\bstd::thread\b(?!\s*::)")
COMM_MUTATION_RE = re.compile(
    r"(?:\.|->)\s*(?:Record(?:Shuffle|Broadcast|Collect|Query)|Reset)\s*\(")
# Reset() is only a ledger mutation when called on a CommStats; restrict the
# Reset arm to lines that name the ledger to avoid flagging unrelated Resets.
COMM_RESET_RE = re.compile(r"\bcomm(?:_|\(\))\s*\.\s*Reset\s*\(")
COMM_RECORD_RE = re.compile(
    r"(?:\.|->)\s*Record(?:Shuffle|Broadcast|Collect|Query)\s*\(")
GUARDED_BY_RE = re.compile(r"(?:DBTF_)?GUARDED_BY\((\w+_?)\)")
# Wall-clock sleeps in the runtime (src/dist/, src/dbtf/). Faults, backoff,
# and stalls are charged to the virtual clocks; a real sleep would leak wall
# time into what the virtual makespan is supposed to model.
SLEEP_RE = re.compile(
    r"\bstd::this_thread::sleep_(?:for|until)\b|\busleep\s*\(|"
    r"\bnanosleep\s*\(|(?<![\w:])sleep\s*\(")
UNAVAILABLE_RE = re.compile(r"\bStatus::Unavailable\s*\(")
RECOVERY_RECORD_RE = re.compile(
    r"(?:\.|->)\s*Record(?:FailedDelivery|Retry|MachineLost|Reprovision|"
    r"Stall)\s*\(")
# Filesystem writes (and the rename that publishes them) are confined to the
# checkpoint store and the tensor text codecs; see `filesystem-write` above.
FILESYSTEM_WRITE_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:ofstream\b|fopen\s*\(|rename\s*\()")
# Raw process/socket syscalls belong to the socket transport. The lookbehind
# keeps qualified names like std::bind out; string literals are blanked
# before matching (usage text mentions "socket (" legitimately).
TRANSPORT_SYSCALL_RE = re.compile(
    r"(?<![\w:])(?:socket|socketpair|bind|listen|accept|connect|setsockopt|"
    r"send|sendmsg|recv|recvmsg|fork|vfork|exec[vl][pe]*|waitpid|kill|"
    r"mkdtemp)\s*\(")
STRING_LITERAL_RE = re.compile(r'"(?:\\.|[^"\\])*"')
ASYNC_PRIMITIVE_RE = re.compile(
    r"\bstd::(?:promise|future|shared_future|packaged_task|async)\b")
CONDVAR_RE = re.compile(r"\bstd::condition_variable(?:_any)?\b")

BLOCK_COMMENT_RE = re.compile(r"/\*.*?\*/", re.DOTALL)


def relative_posix(path: Path, root: Path) -> str:
    return path.relative_to(root).as_posix()


def strip_comments(text: str) -> str:
    """Blanks comments while preserving line numbers."""
    def blank(match: re.Match) -> str:
        return re.sub(r"[^\n]", " ", match.group(0))

    text = BLOCK_COMMENT_RE.sub(blank, text)
    return "\n".join(line.split("//", 1)[0] for line in text.split("\n"))


def check_file(rel: str, text: str) -> list[tuple[int, str, str]]:
    """Returns (line, rule, message) findings for one source file."""
    findings = []
    lines = strip_comments(text).split("\n")

    allow_worker_include = rel.startswith("dist/") or rel == "dbtf/engine.cc"
    allow_thread = rel in ("dist/thread_pool.h", "dist/thread_pool.cc")
    allow_comm_mutation = rel == "dist/cluster.cc"
    # The fault seam itself and the retrying router are the only places that
    # may manufacture kUnavailable; everyone else receives it through routing.
    allow_unavailable = rel in ("dist/fault.cc", "dist/cluster.cc",
                                "common/status.h", "common/status.cc")
    check_fault_handling = rel.startswith("dist/") or rel.startswith("dbtf/")
    # RecoveryLedger's own method definitions use :: qualification, which the
    # mutation regex (object '.'/'->' prefix) deliberately does not match.
    allow_recovery_mutation = rel == "dist/cluster.cc"
    # The checkpoint store owns the atomic-write discipline; the tensor text
    # codecs are the only other sanctioned writers (CLI output goes through
    # them).
    allow_filesystem_write = (rel.startswith("ckpt/")
                              or rel in ("tensor/io.cc", "tensor/io.h"))
    allow_transport_syscall = rel.startswith("dist/transport/")
    # MutexLock::Wait wraps the condvar; the pool waits on two of them.
    allow_condvar = rel in ("common/mutex.h", "dist/thread_pool.h")
    # common/mutex.h wraps the underlying std::mutex; comm_stats.h defines
    # the Record* methods themselves (no object prefix, so the mutation
    # regexes would not fire there anyway).
    check_mutex_members = rel != "common/mutex.h"

    guarded = set(GUARDED_BY_RE.findall(text))

    for lineno, line in enumerate(lines, start=1):
        if not allow_worker_include and WORKER_INCLUDE_RE.search(line):
            findings.append((
                lineno, "worker-include",
                "dist/worker.h is only visible to src/dist/ and "
                "src/dbtf/engine.cc; drive workers through Cluster routing "
                "or dist/provision.h"))
        if check_mutex_members:
            m = MUTEX_MEMBER_RE.match(line)
            if m and m.group(1) not in guarded:
                findings.append((
                    lineno, "naked-mutex",
                    f"mutex member '{m.group(1)}' guards nothing: annotate "
                    f"the protected members with "
                    f"DBTF_GUARDED_BY({m.group(1)})"))
        if not allow_thread and THREAD_RE.search(line):
            findings.append((
                lineno, "thread-construction",
                "std::thread objects are created only by "
                "src/dist/thread_pool.{h,cc}; submit work to the pool "
                "instead"))
        if not allow_comm_mutation and (COMM_RECORD_RE.search(line)
                                        or COMM_RESET_RE.search(line)):
            findings.append((
                lineno, "comm-stats-mutation",
                "the CommStats ledger is charged only by Cluster "
                "(src/dist/cluster.cc) so routed bytes are counted exactly "
                "once"))
        if check_fault_handling and SLEEP_RE.search(line):
            findings.append((
                lineno, "fault-handling",
                "no wall-clock sleeps in the runtime: faults, stalls, and "
                "retry backoff are charged to the virtual clocks via "
                "dist/fault.h"))
        if (check_fault_handling and not allow_unavailable
                and UNAVAILABLE_RE.search(line)):
            findings.append((
                lineno, "fault-handling",
                "Status::Unavailable is manufactured only by the fault seam "
                "(dist/fault.cc) and the retrying router (dist/cluster.cc); "
                "express failures through dist/fault.h"))
        if not allow_recovery_mutation and RECOVERY_RECORD_RE.search(line):
            findings.append((
                lineno, "recovery-stats-mutation",
                "the RecoveryLedger is charged only by Cluster "
                "(src/dist/cluster.cc) so every retry and re-provision is "
                "counted exactly once"))
        if not allow_filesystem_write and FILESYSTEM_WRITE_RE.search(line):
            findings.append((
                lineno, "filesystem-write",
                "filesystem writes are confined to the checkpoint store "
                "(src/ckpt/) and the tensor text codecs (src/tensor/io.cc); "
                "durable state written elsewhere escapes the atomic "
                "tmp+fsync+rename discipline"))
        if (not allow_transport_syscall
                and TRANSPORT_SYSCALL_RE.search(STRING_LITERAL_RE.sub('""',
                                                                      line))):
            findings.append((
                lineno, "transport-syscalls",
                "raw process/socket syscalls live only in "
                "src/dist/transport/ (the socket transport owns process "
                "lifecycles and frame I/O); route work through the "
                "transport seam"))
        if ASYNC_PRIMITIVE_RE.search(line):
            findings.append((
                lineno, "async-seam",
                "no std:: futures, promises, packaged tasks or async in "
                "src/: route through Cluster's blocking calls, which "
                "deliver under the per-machine delivery locks in call "
                "order"))
        if not allow_condvar and CONDVAR_RE.search(line):
            findings.append((
                lineno, "async-seam",
                "std::condition_variable is confined to common/mutex.h and "
                "dist/thread_pool.h; wait with MutexLock::Wait or "
                "ThreadPool::ParallelFor instead of hand-rolled "
                "signalling"))
    return findings


def lint_tree(root: Path) -> list[str]:
    src = root / "src"
    diagnostics = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in (".h", ".cc") or not path.is_file():
            continue
        rel = relative_posix(path, src)
        text = path.read_text(encoding="utf-8")
        for lineno, rule, message in check_file(rel, text):
            diagnostics.append(
                f"{relative_posix(path, root)}:{lineno}: [{rule}] {message}")
    return diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root containing src/ (default: this repo)")
    args = parser.parse_args(argv)

    if not (args.root / "src").is_dir():
        print(f"dbtf_lint: no src/ under {args.root}", file=sys.stderr)
        return 2
    diagnostics = lint_tree(args.root.resolve())
    for diagnostic in diagnostics:
        print(diagnostic)
    if diagnostics:
        print(f"dbtf_lint: {len(diagnostics)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
