"""Deterministic backtracking searches over bitset candidate masks.

Both searches hold each set of differences that still has capacity as a
doubled mask: bits d and d + n are both set for a difference d.  The
values v with v - s in such a set D are then the low n bits of
``D >> (n - s)``, with no rotation and no ``% n``.  Candidates are taken
lowest bit first, so values are tried in ascending order.  A mask's
update for value x in row a is read from a step table built once: row a,
entry x holds the doubled bits of x - a.

Third-column search: depth-first over rows in fixed order, against the
fixed first two columns, the identity and the odd-then-even column.  The
candidates for row i are the unused values that keep both constrained
column pairs within their difference capacities: 0 for the zero residue,
2 for n/2, 1 otherwise.  Each node computes its child's candidate mask
and recurses only when that is not empty, handing the mask down; the
value that uses the last free one completes the column.  The solution
list is in lexicographic order.

HDM search: columns 1 and 2 are assigned jointly row by row; the next row
is the pending one with the fewest remaining (value, value) options, with
ties and candidates resolved in ascending order.  Row choice affects only
speed, never the set of solutions, and is deterministic.  The pending rows
are held as the shifts of their masks, n - a for row a, so the scan over
them subtracts nothing, and it stops at the first row with no option.  A
value of column 1 that leaves column 2 no candidate builds no masks.

Both searches take their settings as keyword arguments: ``node_budget``
(nodes before BudgetExhausted), ``status_interval`` and ``status`` (a
callback given a counter dict every ``status_interval`` nodes when the
interval is positive, and once more at the end with a ``"reason"``:
``solution``, ``exhausted``, ``budget`` or ``interrupt``), and for the
third-column search ``result_limit`` (stop after this many solutions).

Budget and status share one compare per node: ``nodes >= stop_at``,
where ``stop_at`` is the smaller of ``node_budget + 1`` and the next
multiple of the interval.

Deep subtrees are counted on forked workers.  Each search splits at a
fixed depth (row n // 3 of the third column, (n - h) // 2 assigned rows of
the HDM) into subtrees numbered in depth-first order; a third-column row
with no candidate is no subtree, since no call enters it.  After ``_WARMUP``
(4,096) nodes alone, the main process forks one worker per available CPU
(at most eight).  Each worker walks the same shallow rows on a thread of
its own, claims the next subtree that no worker has claimed through a
counter in shared memory, counts it with status off and posts its node
count, or -1 when it holds a solution or the worker stopped inside it.
The main process keeps its own depth-first search for the shallow rows; at
each subtree it adds the posted count when that passes neither the budget
nor a multiple of the status interval, and otherwise searches the subtree
itself.  Node counts, status events, solutions and exceptions are
therefore those of the sequential search, although events may arrive in
bursts.  A worker stops counting a subtree where its count would pass the
budget's end or the next status multiple, as seen at the fork, and posts
-1.  A search runs alone when that cap is below ``_WARMUP`` nodes, when
``os.fork`` is missing or fails, when fewer than two CPUs are available,
or when another thread is running.  Workers are born with SIGINT and
SIGTERM blocked, and are killed and reaped on every way out.  A worker
that dies without posting a claim, killed by a signal or ending with a
status other than 0, is found within ``_PATIENCE_MS`` (100 ms) of waiting
for a post; the main process then ends the other workers and searches the
rest alone.

Searches never self-certify; callers verify outputs independently.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Callable

from .core import BudgetExhausted, Form, Kind, NoSolution, ResidueArray
from .tables import odd_even_column

StatusFn = Callable[[dict[str, int]], None]


# Frames left below the recursion limit for the search's callers and its
# status callback.
_CALLER_FRAMES = 100

# Nodes a search runs alone before it forks workers.  Forking, the
# workers' first copied pages and reaping them cost 10-15 ms on two vCPUs,
# so third column 12 (3,919 nodes) and HDM 12,2 (3,903) never fork.
# Searches of 10,000 to 16,000 nodes take 3-10 ms longer forked than alone
# (third column 14 9-20 against 6-10 ms, HDM 24,6 21-24 against 11-14 ms),
# HDM 16,2 (55,672 nodes) about as long, and third column 16 (100,335)
# 20-28 % less.  A warm-up of 16,384 ran the small ones alone but took third
# column 18 (48,546) 1-2 ms longer, and every larger search shares 12,288
# fewer nodes with its workers (BENCH_25.json).  A search also runs alone
# when its workers could count fewer nodes of a subtree: at status
# intervals of 1,000 and 2,500, workers made third column 20 and 22 17 to
# 47 % slower (BENCH_22.json).
_WARMUP = 1 << 12
_MAX_WORKERS = 8
# How long the main process waits on the pipe before it looks for a dead
# worker.  A wait this long is rare: subtrees of the searches here take
# microseconds to milliseconds.
_PATIENCE_MS = 100


class _Workers:
    """A search's stop rule, and forked processes that count its subtrees
    ahead of it.

    The search first stops at ``next_stop(0)`` nodes and takes each later
    stop from ``tick``.  It calls ``count`` at every node of its split
    depth, with the arguments of that node's call.  ``run(args, stop)``,
    called only in a worker, where status is off, searches from
    ``dfs(*args)`` with its own node count and ``stop`` as its only stop,
    and returns that count, or -1 when it found a solution; ``root`` holds
    the arguments of the search's first call.

    Workers claim subtrees through a counter in shared memory rather than
    taking every k-th one: on the ``search`` benchmark workload a fixed
    split took 7 to 21 % longer in four alternating runs.
    """

    def __init__(self, run: Callable, root: tuple, message: str,
                 node_budget: int, status_interval: int, status: StatusFn | None) -> None:
        self.run, self.root, self.node_budget, self.status, self.message = run, root, node_budget, status, message
        self.every = status_interval if status is not None else 0
        self.t = -1  # the subtree the process is at, in depth-first order
        self.pids: list[int] | None = None  # None until the fork is tried
        self.posts: int | None = None  # read end of the pipe the workers post to
        self.part = b""  # the start of a post whose end is still in the pipe
        self.counts: dict[int, int] = {}

    def next_stop(self, nodes: int) -> int:
        """The node after ``nodes`` at which the budget runs out or the
        next status is due, whichever comes first."""
        return min(self.node_budget + 1, nodes + (self.every or self.node_budget + 1))

    def tick(self, nodes: int, depth: int, solutions: int) -> int:
        """Report the status and return the next stop, or raise
        BudgetExhausted with ``message`` past the budget or with status
        off."""
        if nodes > self.node_budget or not self.every:
            raise BudgetExhausted(self.message)
        self.status({"nodes": nodes, "depth": depth, "solutions": solutions})
        return self.next_stop(nodes)

    def count(self, nodes: int, stop_at: int, args: tuple) -> int | None:
        """Enter the next subtree: its posted node count when adding that
        to ``nodes`` stays below ``stop_at``, else None, and the caller
        searches the subtree itself."""
        self.t += 1
        if self.pids is None:
            if nodes >= _WARMUP:
                self._start(nodes)
            return None
        # Some worker claims each later subtree and posts once for it,
        # unless it dies; the workers are then ended and the pipe closed.
        if self.posts is not None and self.t not in self.counts:
            self._take()
        c = self.counts.pop(self.t, -1)
        return c if 0 <= c < stop_at - nodes else None

    def _take(self) -> None:
        """Wait until subtree t is posted, taking in every post that comes
        meanwhile; each read's posts are all taken in, so none waits in a
        buffer while this waits on the pipe.  After each ``_PATIENCE_MS``
        of waiting, look for a worker that died and may hold a claim it
        never posted.  When there is one, or every worker has ended, end
        the rest: the search goes on alone."""
        check = time.monotonic() + _PATIENCE_MS / 1000
        while self.t not in self.counts:
            if self.poll.poll(_PATIENCE_MS):
                data = os.read(self.posts, 1 << 16)
                if not data:
                    break
                *lines, self.part = (self.part + data).split(b"\n")
                for line in lines:
                    t, c = line.split()
                    self.counts[int(t)] = int(c)
            if time.monotonic() >= check:
                if self._died():
                    break
                check = time.monotonic() + _PATIENCE_MS / 1000
        else:
            return
        self.close()

    def _died(self) -> bool:
        """Reap the workers that have ended, and tell whether one ended
        other than by finishing its walk, which it ends with status 0
        after posting every claim."""
        for pid in self.pids[:]:
            try:
                done, status = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                done, status = pid, -1  # reaped elsewhere: how it ended is unknown
            if done:
                self.pids.remove(pid)
                if status:
                    return True
        return False

    def _start(self, nodes: int) -> None:
        """Fork the workers, which take the subtrees after this one,
        unless the search should run alone."""
        self.pids = []
        # A count is of use only below the next status multiple and the
        # budget's end, so no worker counts a subtree further.
        cap = self.next_stop(nodes) - nodes
        if cap < _WARMUP or not hasattr(os, "fork") or _threads() > 1:
            return
        try:
            cpus = len(os.sched_getaffinity(0))
        except AttributeError:
            cpus = os.cpu_count() or 1
        if cpus < 2:
            return
        import mmap
        import select
        import signal

        # The first subtree no worker has claimed.  Two workers may claim
        # one subtree at once; both count it, and the counts agree.
        self.claimed = memoryview(mmap.mmap(-1, 8)).cast("Q")
        self.claimed[0] = self.t + 1
        r, w = os.pipe()
        # Workers are born with SIGINT and SIGTERM blocked, so that no
        # handler of the caller's runs in one; close() ends them.
        mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            for _ in range(min(cpus, _MAX_WORKERS)):
                pid = os.fork()
                if not pid:
                    self._serve(cap, r, w)
                self.pids.append(pid)
        except OSError:
            pass  # the workers forked so far claim every subtree
        finally:
            os.close(w)
            self.posts = r
            self.poll = select.poll()
            self.poll.register(r, select.POLLIN)
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)

    def _serve(self, cap: int, r: int, w: int) -> None:
        """A worker's life, which ends in os._exit, so that it never
        returns, prints or flushes: walk the shallow rows from the root
        and count each subtree it claims there up to ``cap`` nodes.  Every
        claimed subtree gets one post: its count, or -1.  The status is 0
        only after the whole walk, when every subtree is claimed and each
        claim posted, and 1 on any other way out."""
        try:
            import threading

            os.close(r)
            self.every = 0
            busy = False

            def claim(nodes: int, stop_at: float, args: tuple) -> int | None:
                nonlocal busy
                if busy:
                    return None  # the first call of the subtree being counted
                self.t += 1
                if self.t >= self.claimed[0]:
                    self.claimed[0] = self.t + 1
                    busy, c = True, -1
                    try:
                        c = self.run(args, cap)
                    except BudgetExhausted:
                        pass
                    finally:
                        busy = False
                        os.write(w, b"%d %d\n" % (self.t, c))
                return 0

            def walk() -> None:
                try:
                    self.run(self.root, float("inf"))
                    os._exit(0)
                finally:
                    os._exit(1)

            self.t, self.count = -1, claim
            # The walk runs on a new thread, whose frames start on an empty
            # stack.  Stacked on the caller's frames, the worker's deeper
            # recursion can straddle a boundary of CPython's frame-stack
            # chunks, which then maps and unmaps a chunk on nearly every
            # node: a caller 64 frames deep made the workers three times
            # slower.
            thread = threading.Thread(target=walk)
            thread.start()
            thread.join()
        finally:
            os._exit(1)

    def walk(self, start: Callable[[], bool], depth: int, counts: Callable[[bool], tuple[int, int]]) -> bool:
        """Run ``start()``, close, and give status a final event: ``counts(found)`` and the reason it ended."""
        found = reason = None
        try:
            found = start()
            reason = "solution" if found else "exhausted"
            return found
        except (BudgetExhausted, KeyboardInterrupt) as exc:
            reason = "budget" if isinstance(exc, BudgetExhausted) else "interrupt"
            raise
        finally:
            self.close()
            if reason is not None and self.status is not None:
                nodes, solutions = counts(bool(found))
                self.status({"nodes": min(nodes, self.node_budget), "depth": depth, "solutions": solutions,
                             "reason": reason})

    def close(self) -> None:
        """Kill and reap every worker and close the pipe; the search runs
        alone from here.  A worker that ended by itself may be gone
        already, when SIGCHLD is ignored or the caller reaped it."""
        try:
            if self.pids:
                import signal

                # Every worker stops before any is reaped: reaping one
                # while the others still run took 3-4 ms instead of 1.
                for pid in self.pids:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                for pid in self.pids:
                    try:
                        os.waitpid(pid, 0)
                    except ChildProcessError:
                        pass
        finally:
            self.pids = []
            if self.posts is not None:
                os.close(self.posts)
                self.posts = None


def _threads() -> int:
    """The threads of this process: every one where the system lists them
    (Linux), else those the threading module knows of."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        import threading

        return threading.active_count()


def _check_settings(node_budget: int, status_interval: int, result_limit: int | None = None) -> None:
    if node_budget < 1:
        raise ValueError(f"node budget must be positive, got {node_budget}")
    if result_limit is not None and result_limit < 1:
        raise ValueError(f"result limit must be positive, got {result_limit}")
    if status_interval < 0:
        raise ValueError(f"status interval must be non-negative, got {status_interval}")


def _check_depth(depth: int) -> None:
    """Refuse a search that needs ``depth`` nested calls when they do not
    fit under the recursion limit beside the caller's frames."""
    room = sys.getrecursionlimit() - _CALLER_FRAMES
    if depth > room:
        raise ValueError(f"search needs {depth} nested calls, more than the {room} the recursion limit leaves")


def _doubled_bits(n: int) -> list[int]:
    """Entry d is bits d and d + n.  Indexed by a difference in (-n, n),
    Python's negative indexing reduces it mod n."""
    return [1 << d | 1 << d + n for d in range(n)]


def _step_table(dbl: list[int]) -> list[list[int]]:
    """Row a, entry x is dbl[x - a]; the rows share dbl's entries."""
    return [dbl[-a:] + dbl[:-a] for a in range(len(dbl))]


def search_third_column(
    order: int,
    *,
    node_budget: int = 10**9,
    result_limit: int | None = None,
    status_interval: int = 0,
    status: StatusFn | None = None,
) -> list[tuple[int, ...]]:
    """All third columns completing the identity and the odd-then-even
    column to a strict reduced DCA(4, n+1; n), in lexicographic order, up
    to ``result_limit``.

    Raises BudgetExhausted only when the budget runs out with nothing
    found; a partial list is returned otherwise.
    """
    _check_settings(node_budget, status_interval, result_limit)
    n = order
    if n % 2 or n < 6:
        raise ValueError(f"order must be even and at least 6, got {n}")
    # One call per row, and one frame to spare.
    _check_depth(n + 1)
    col1 = odd_even_column(n)

    full = (1 << n) - 1
    dbl = _doubled_bits(n)
    # n/2 has capacity 2.  Its entry in dbl is 0, which sends it to the
    # spare bit 2n: its first use clears the spare, its second its bits.
    half = dbl[n // 2]
    spare = 1 << 2 * n
    dbl[n // 2] = 0
    # Row i's steps against both fixed columns, then the shifts of row
    # i + 1's masks, unused after the last row, whose value completes it.
    step = _step_table(dbl)
    after = col1[1:] + (0,)
    rows = [(step[i], step[col1[i]], n - 1 - i, n - after[i]) for i in range(n)]
    column = [0] * n
    solutions: list[tuple[int, ...]] = []
    nodes = 0
    split = n // 3

    def dfs(i: int, free: int, a0: int, a1: int, cand: int) -> bool:
        nonlocal nodes, stop_at
        if i == split:
            c = workers.count(nodes, stop_at, (i, free, a0, a1, cand))
            if c is not None:
                nodes += c
                return False
        t0, t1, s0, s1 = rows[i]
        while cand:
            b = cand & -cand
            cand ^= b
            nodes += 1
            if nodes >= stop_at:
                stop_at = workers.tick(nodes, i, len(solutions))
            v = b.bit_length() - 1
            column[i] = v
            f = free ^ b
            if not f:
                solutions.append(tuple(column))
                return len(solutions) == result_limit
            x0 = a0 ^ (t0[v] or (spare if a0 & spare else half))
            x1 = a1 ^ (t1[v] or (spare if a1 & spare else half))
            m = f & x0 >> s0 & x1 >> s1
            if m and dfs(i + 1, f, x0, x1, m):
                return True
        return False

    def run(args: tuple, stop: float) -> int:
        """A worker's entry; see _Workers."""
        nonlocal nodes, stop_at, result_limit
        outer = nodes, stop_at
        nodes, stop_at, result_limit = 0, stop, 1
        solutions.clear()
        try:
            return -1 if dfs(*args) else nodes
        finally:
            nodes, stop_at = outer

    # Every difference but 0 has capacity, and n/2 has its spare.
    avail = (full | full << n) ^ dbl[0] | spare
    root = (0, full, avail, avail, full & avail >> n & avail >> n - col1[0])
    workers = _Workers(run, root, f"no solution within {node_budget} nodes", node_budget, status_interval, status)
    stop_at = workers.next_stop(0)
    try:
        workers.walk(lambda: dfs(*root), n, lambda found: (nodes, len(solutions)))
    except BudgetExhausted:
        if not solutions:
            raise
    finally:
        dfs = None  # it holds itself through its closure
    return solutions


def search_hdm(
    n: int,
    h: int,
    *,
    node_budget: int = 10**9,
    status_interval: int = 0,
    status: StatusFn | None = None,
) -> ResidueArray:
    """First cyclic HDM(4, n; h) found, with the last column all zero and
    the first column the non-hole residues ascending (both lossless row
    and column normalizations).

    Raises NoSolution when the space is exhausted, BudgetExhausted when
    the node budget runs out first.
    """
    _check_settings(node_budget, status_interval)
    if h < 1 or h >= n or n % h:
        raise ValueError(f"hole {h} must divide order {n} with 1 <= h < n")
    # One call per non-hole row, and one more once every row is filled.
    _check_depth(n - h + 1)
    u = n // h
    hole = {j * u for j in range(h)}
    nonhole = [v for v in range(n) if v not in hole]
    nonhole_mask = sum(1 << v for v in nonhole)
    step = _step_table(_doubled_bits(n))
    col1 = [0] * n
    col2 = [0] * n
    nodes = 0
    split = (n - h) // 2

    def dfs(pending: list[int], depth: int, free1: int, free2: int, d10: int, d20: int, d21: int) -> bool:
        nonlocal nodes, stop_at
        if not pending:
            return True
        if depth == split:
            c = workers.count(nodes, stop_at, (pending, depth, free1, free2, d10, d20, d21))
            if c is not None:
                nodes += c
                return False
        # Most-constrained row first: fewest (b, c) candidate combinations,
        # the first row in ascending order among ties.  No row has more
        # than n * n, and a row with none ends the scan.
        best_score = n * n + 1
        for sa in pending:
            mb = d10 >> sa & free1
            mc = d20 >> sa & free2
            score = mb.bit_count() * mc.bit_count()
            if score < best_score:
                if not score:
                    return False
                best, best_score, best_mb, best_mc = sa, score, mb, mc
        rest = pending.copy()
        rest.remove(best)
        a = n - best
        ta = step[a]
        below = depth + 1
        mb = best_mb
        while mb:
            b = mb & -mb
            mb ^= b
            bv = b.bit_length() - 1
            nodes += 1
            if nodes >= stop_at:
                stop_at = workers.tick(nodes, depth, 0)
            mc = best_mc & d21 >> n - bv
            if not mc:
                continue
            f1, x10, tb = free1 ^ b, d10 ^ ta[bv], step[bv]
            while mc:
                c = mc & -mc
                mc ^= c
                cv = c.bit_length() - 1
                nodes += 1
                if nodes >= stop_at:
                    stop_at = workers.tick(nodes, depth, 0)
                if dfs(rest, below, f1, free2 ^ c, x10, d20 ^ ta[cv], d21 ^ tb[cv]):
                    col1[a] = bv
                    col2[a] = cv
                    return True
        return False

    def run(args: tuple, stop: float) -> int:
        """A worker's entry; see _Workers."""
        nonlocal nodes, stop_at
        outer = nodes, stop_at
        nodes, stop_at = 0, stop
        try:
            return -1 if dfs(*args) else nodes
        finally:
            nodes, stop_at = outer

    # The allowed differences are the non-hole residues, doubled.  Each
    # pending row a is held as n - a, the shift of its masks, in ascending
    # order of a.
    avail = nonhole_mask | nonhole_mask << n
    root = ([n - a for a in nonhole], 0, nonhole_mask, nonhole_mask, avail, avail, avail)
    message = f"no HDM(4,{n};{h}) within {node_budget} nodes"
    workers = _Workers(run, root, message, node_budget, status_interval, status)
    stop_at = workers.next_stop(0)
    try:
        found = workers.walk(lambda: dfs(*root), n - h, lambda found: (nodes, int(found)))
    finally:
        dfs = None  # it holds itself through its closure
    if not found:
        raise NoSolution(f"no cyclic HDM(4,{n};{h}) with the fixed normalizations")
    found_cols = (tuple([col1[a] for a in nonhole]), tuple([col2[a] for a in nonhole]))
    return ResidueArray(Kind.HDM, n, h, Form.FULL, (tuple(nonhole), *found_cols, (0,) * len(nonhole)))
