import io
import itertools
import json
import multiprocessing
import os
import random
import time
import tracemalloc

import pytest

from mgeneral import affine, search
from mgeneral.affine import PointSet, _decode, add_point_preserves, is_m_general
from mgeneral.bounds import refined_bound
from mgeneral.field import field_for_order, make_field
from mgeneral.search import (
    AmbientMismatchError,
    MalformedCertificateError,
    SearchCertificate,
    _Flats,
    _kernel,
    _Lifted,
    _SubsetSums,
    certificate_to_json,
    read_certificate,
    search_exact,
    search_greedy,
    verify_certificate,
    write_certificate,
)
from oracles import brute_force_max, greedy_by_shuffle, greedy_reference, pruned_search_replay


def test_trivial_line():
    cert = search_exact(1, 3, 3)
    assert cert.value == 2 and cert.exact
    assert cert.witness == ((0,), (1,))


def test_plane_cap():
    cert = search_exact(2, 3, 3)
    assert cert.value == 4 and cert.exact
    ps = cert.point_set()
    assert is_m_general(ps, 3)


def test_f2_cube_sidon():
    cert = search_exact(3, 2, 4)
    assert cert.value == 4 and cert.exact
    assert cert.witness == ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_matches_oracle_small(f2, f3, f4):
    for field, n, m in [
        (f2, 2, 3), (f2, 2, 4), (f2, 3, 4), (f2, 3, 5), (f2, 4, 4),
        (f3, 1, 3), (f3, 2, 3), (f3, 2, 4),
        (f4, 1, 3), (f4, 2, 3),
    ]:
        val, wit, _ = brute_force_max(field, n, m)
        cert = search_exact(n, field, m)
        assert cert.exact
        assert cert.value == val, (field.q, n, m)
        assert cert.witness == wit, (field.q, n, m)


def test_limit_exhaustion_reports_inexact():
    cert = search_exact(4, 3, 3, max_nodes=50)
    assert not cert.exact
    assert cert.value >= 2
    assert verify_certificate(cert)


def test_deadline_bounds_whole_run_with_workers():
    # max_seconds is one deadline for every span, not a clock per span
    start = time.monotonic()
    cert = search_exact(4, 3, 3, workers=2, max_seconds=1.0)
    assert not cert.exact
    assert time.monotonic() - start < 2.5
    assert verify_certificate(cert)


def test_expired_deadline_stops_every_span_at_its_first_node():
    # each span reads the clock on its first node, not after 1024
    cert = search_exact(4, 3, 3, workers=2, max_seconds=0.0)
    assert not cert.exact
    assert cert.nodes_explored <= 8


def test_clock_read_at_every_node(monkeypatch):
    # a fake clock one second later at each reading: the deadline 0 + s is
    # passed at node s + 1, which is the last one counted, and the clock is
    # read once for the deadline and once per node.  No cap stops (3, 3, 4)
    # before its 2,722 nodes; (5, 2, 4) passes its deadline at node 13,
    # inside the 14 leaves after node 6 that the leaf pass counts.
    for n, q, m, seconds in [(3, 3, 4, 5), (5, 2, 4, 12)]:
        readings = itertools.count()
        monkeypatch.setattr(search.time, "monotonic", readings.__next__)
        cert = search_exact(n, q, m, max_seconds=seconds)
        assert not cert.exact
        assert cert.nodes_explored == seconds + 1
        assert next(readings) == 1 + cert.nodes_explored


@pytest.mark.parametrize("max_seconds", [float("nan"), -1.0])
def test_max_seconds_must_be_nonnegative(max_seconds):
    # no clock reading exceeds a NaN deadline, so NaN would switch it off
    with pytest.raises(ValueError, match="max_seconds"):
        search_exact(4, 3, 3, max_nodes=1000, max_seconds=max_seconds)


@pytest.mark.parametrize("n, q, m, kwargs, expected", [
    (4, 2, 4, {}, (6, True, 4)),  # stops at the cap
    (5, 2, 4, {}, (7, True, 117150)),
    (5, 2, 4, {"workers": 2}, (7, True, 117185)),
    (3, 3, 4, {}, (5, True, 2722)),
    (3, 3, 4, {"workers": 2}, (5, True, 2734)),
    (2, 5, 3, {}, (6, True, 4)),  # stops at the arc cap q + 1
    (2, 9, 4, {}, (3, True, 1)),  # stops at the dimension cap n + 1
    (3, 3, 4, {"workers": 3}, (5, True, 2746)),
    (5, 2, 4, {"workers": 3}, (7, True, 117182)),
    (3, 4, 4, {}, (5, True, 153554)),  # lifted, d = 2: two rotations per coordinate
    (2, 9, 3, {}, (10, True, 23)),  # stops at the arc cap q + 1; lifted, d = 2
    (4, 3, 3, {"max_nodes": 60}, (18, False, 61)),
    (6, 2, 4, {"max_nodes": 200_000}, (9, False, 200_001)),
], ids=["q2n4m4", "q2n5m4", "q2n5m4w2", "q3n3m4", "q3n3m4w2", "q5n2m3", "q9n2m4", "q3n3m4w3", "q2n5m4w3",
        "q4n3m4", "q9n2m3", "q3n4m3lim", "q2n6m4lim"])
def test_exact_search_node_counts(n, q, m, kwargs, expected):
    # the stop rule fixes these: the node that reaches the cap is not counted,
    # and a span stops on the node past its budget
    cert = search_exact(n, q, m, **kwargs)
    assert (cert.value, cert.exact, cert.nodes_explored) == expected


_REPLAY_CELLS = [
    (4, 2, 4, search.DEFAULT_MAX_NODES, 1), (3, 3, 4, search.DEFAULT_MAX_NODES, 1),
    (5, 2, 4, 12, 1), (5, 2, 4, 130, 1), (5, 2, 4, 190, 1), (3, 3, 3, 500, 1), (4, 3, 3, 60, 1),
] + [(5, 2, 4, 13, w) for w in (2, 3)] + [(5, 2, 4, 190, w) for w in (2, 3)] + [
    (3, 3, 4, search.DEFAULT_MAX_NODES, w) for w in (2, 3)] + [(4, 3, 3, 60, w) for w in (2, 3)]


@pytest.mark.parametrize("n, q, m, max_nodes, workers", _REPLAY_CELLS, ids=[
    f"{n}-{q}-{m}-{max_nodes}" + (f"-w{w}" if w > 1 else "") for n, q, m, max_nodes, w in _REPLAY_CELLS])
def test_node_counts_match_rank_test_replay(n, q, m, max_nodes, workers):
    """The search's nodes, value, witness and exact flag equal those of the
    same tree replayed on the rank test (`oracles.pruned_search_replay`),
    which shares no code with the kernels, the leaf pass or the span
    driver.  (5, 2, 4) stops inside leaf runs: at nodes 13, 131 and 191, in
    the runs of 14, 15 and 15 leaves after nodes 6, 123 and 182.  With 2 and
    3 workers each span has its own share of the budget and its own window
    of second points, with every allowed point above the window's start in
    its size bound."""
    field = field_for_order(q)
    cert = search_exact(n, field, m, max_nodes=max_nodes, workers=workers)
    got = (cert.value, cert.witness, cert.exact, cert.nodes_explored)
    assert got == pruned_search_replay(field, n, m, max_nodes, workers)


def test_worker_partition_determinism(f3):
    seq = search_exact(2, f3, 3)
    par = search_exact(2, f3, 3, workers=2)
    assert par.value == seq.value and par.exact
    assert par.witness == seq.witness


def test_arc_cap_with_workers():
    # the first span holds the lex-least 12-arc and reaches the arc cap in
    # the nodes one worker takes; the run ends there and stops the others
    seq = search_exact(2, 11, 3)
    start = time.monotonic()
    par = search_exact(2, 11, 3, workers=2)
    assert time.monotonic() - start < 5  # the helpers' spans take 15 s to exhaust
    assert multiprocessing.active_children() == []
    assert (par.value, par.witness, par.exact) == (seq.value, seq.witness, seq.exact)
    assert (seq.value, seq.exact) == (12, True)
    assert par.nodes_explored == seq.nodes_explored == 449
    assert "arc-cap" in par.reductions


@pytest.mark.parametrize("budget", [0, 5, 20_000])
@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("n, q, m", [(6, 2, 4), (4, 3, 3)])
def test_node_budget_bounds_whole_run(n, q, m, workers, budget):
    # the spans share max_nodes equally, and each counts the node past its share
    cert = search_exact(n, q, m, max_nodes=budget, workers=workers)
    assert not cert.exact
    assert cert.nodes_explored <= budget + 4 * workers


@pytest.mark.parametrize("n, q, m, reduction", [
    (3, 2, 3, None), (3, 2, 5, "refined-bound-cap"), (2, 9, 4, "dimension-cap"), (2, 5, 3, "arc-cap"),
])
def test_reductions_name_the_cap_in_force(n, q, m, reduction):
    # (3, 2, 5): the counting cap 4 ties the dimension cap and is kept
    caps = ("refined-bound-cap", "dimension-cap", "arc-cap")
    got = [r for r in search_exact(n, q, m).reductions if r in caps]
    assert got == ([] if reduction is None else [reduction])


@pytest.mark.parametrize("n, nodes", [(7, 6), (9, 8)])
def test_f2_dimension_cap_at_m_n_plus_1(n, nodes):
    # r_{n+1}(n,2) = n + 1 for odd n: the search stops at the frame, where
    # under the counting cap alone (9 at n = 7) it spent 100M nodes unproven
    cert = search_exact(n, 2, n + 1, max_nodes=1000)
    assert (cert.value, cert.exact, cert.nodes_explored) == (n + 1, True, nodes)
    assert "dimension-cap" in cert.reductions
    assert verify_certificate(cert)


@pytest.mark.parametrize("workers, cpus, helpers", [(1, 64, 0), (2, 1, 0), (2, 64, 1), (100_000, 64, 2)])
def test_helpers_started_and_joined(monkeypatch, workers, cpus, helpers):
    # min(workers, CPUs, spans) - 1 helpers: AG(2,2) has 3 spans for workers > 1
    # (m = 4: at m = 3 no search runs).  Each is joined (reaped) before
    # search_exact returns.
    started, real = [], multiprocessing.get_context()

    class Recorder:
        def __getattr__(self, name):
            return getattr(real, name)

        def Process(self, **kwargs):
            started.append(real.Process(**kwargs))
            return started[-1]

    monkeypatch.setattr(search.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "get_context", Recorder)
    cert = search_exact(2, 2, 4, workers=workers)
    assert len(started) == helpers
    for proc in started:
        with pytest.raises(ChildProcessError):
            os.waitpid(proc.pid, os.WNOHANG)
    seq = search_exact(2, 2, 4)
    assert (cert.value, cert.witness, cert.exact) == (seq.value, seq.witness, seq.exact)


def test_one_cpu_runs_every_span_in_process(monkeypatch):
    # with no helper the search process runs all 7 spans of q3n3m4w2 in order
    monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
    cert = search_exact(3, 3, 4, workers=2)
    assert multiprocessing.active_children() == []
    assert (cert.value, cert.exact, cert.nodes_explored) == (5, True, 2734)


def test_spans_finishing_out_of_order_are_collected_in_order(monkeypatch):
    # AG(2,8), 4 workers, 10 nodes a span: span 0 stops at 9 points and span 1
    # (second points 5-8) reaches the arc cap 10.  Span 1 sleeps, so the other
    # helpers report later spans first; the certificate is the one a single
    # process gets running the spans in order, ended at span 1.
    monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
    expected = search_exact(2, 8, 3, max_nodes=160, workers=4)
    real = search._Run.run

    def run(self, kernel):
        time.sleep(0.5 if self.lo == 5 else 0)
        return real(self, kernel)

    monkeypatch.setattr(search.os, "cpu_count", lambda: 4)
    monkeypatch.setattr(search._Run, "run", run)
    assert search_exact(2, 8, 3, max_nodes=160, workers=4) == expected
    assert (expected.value, expected.exact) == (10, True)


def test_every_span_runs_once_with_more_helpers_than_cpus(monkeypatch, tmp_path):
    # 7 helpers take the 26 spans of q3n3m4 at 8 workers from one counter:
    # each span runs once, and the certificate is the one of the spans run in order
    monkeypatch.setattr(search.os, "cpu_count", lambda: 1)
    expected = search_exact(3, 3, 4, workers=8)
    log, real = tmp_path / "spans", search._Run.run

    def run(self, kernel):
        with open(log, "a") as fh:
            fh.write(f"{self.lo}\n")
        return real(self, kernel)

    monkeypatch.setattr(search.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(search._Run, "run", run)
    assert search_exact(3, 3, 4, workers=8) == expected
    assert sorted(map(int, log.read_text().split())) == list(range(1, 27))
    assert multiprocessing.active_children() == []


def _failing_second_span(monkeypatch, fail):
    """Two processes, and every span but the first calls fail."""
    real = search._Run.run

    def run(self, kernel):
        if self.lo > 1:
            fail(self)
        return real(self, kernel)

    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(search._Run, "run", run)


def test_helper_exception_reaches_the_caller(monkeypatch):
    def fail(run):
        raise ZeroDivisionError(f"span at {run.lo}")

    _failing_second_span(monkeypatch, fail)
    with pytest.raises(ZeroDivisionError, match="span at") as info:
        search_exact(5, 2, 4, workers=2)
    assert "in fail" in str(info.value.__cause__)  # the helper's traceback
    assert multiprocessing.active_children() == []


def test_dead_helper_makes_the_run_raise(monkeypatch):
    _failing_second_span(monkeypatch, lambda run: os._exit(0))
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="exited without reporting"):
        search_exact(5, 2, 4, workers=2)
    assert time.monotonic() - start < 5
    assert multiprocessing.active_children() == []


def test_helpers_under_spawn(monkeypatch):
    # every argument a helper gets pickles: spawn sends them, fork does not
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", lambda: spawn)
    cert = search_exact(3, 3, 4, workers=2)
    assert (cert.value, cert.exact, cert.nodes_explored) == (5, True, 2734)
    assert multiprocessing.active_children() == []


def test_result_pipes_closed(monkeypatch):
    """Every result pipe is closed before the run returns or raises: none is
    left for the collector, which would close it unreported.  (Comparing the
    open descriptors after the run would not tell: refcounting collects an
    unclosed pipe as `_run_in_order` returns.)"""
    import gc
    from multiprocessing.connection import Connection

    unclosed, real = [], Connection.__del__

    def __del__(conn):
        if conn._handle is not None:
            unclosed.append(conn._handle)
        real(conn)

    monkeypatch.setattr(Connection, "__del__", __del__)
    monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
    assert search_exact(3, 3, 4, workers=2).nodes_explored == 2734
    gc.collect()
    assert unclosed == []

    def fail(run):
        raise ZeroDivisionError(f"span at {run.lo}")

    _failing_second_span(monkeypatch, fail)
    with pytest.raises(ZeroDivisionError):
        search_exact(5, 2, 4, workers=2)
    gc.collect()
    assert unclosed == []


def test_monotonicity_of_exact_values(f2, f3):
    # r_m(n, q) <= r_m(n+1, q) and r_{m+1}(n, q) <= r_m(n, q)
    vals = {}
    for field, n, m in [(f2, 2, 4), (f2, 3, 4), (f2, 3, 5), (f3, 1, 3), (f3, 2, 3)]:
        vals[(field.q, n, m)] = search_exact(n, field, m).value
    assert vals[(2, 2, 4)] <= vals[(2, 3, 4)]
    assert vals[(2, 3, 5)] <= vals[(2, 3, 4)]
    assert vals[(3, 1, 3)] <= vals[(3, 2, 3)]


def test_greedy_examples_and_determinism(f3):
    cert = search_greedy(2, f3, 3, seed=1, restarts=100)
    assert cert.value == 4 and not cert.exact
    again = search_greedy(2, f3, 3, seed=1, restarts=100)
    assert cert == again
    small = search_greedy(4, 2, 4, seed=9, restarts=3)
    assert small.value >= 2
    assert verify_certificate(small)


def test_greedy_seed_changes_witness_order(f3):
    a = search_greedy(2, f3, 3, seed=1, restarts=1)
    b = search_greedy(2, f3, 3, seed=2, restarts=1)
    assert a.value >= 2 and b.value >= 2  # both valid; witnesses may differ


def test_certificate_round_trip(tmp_path):
    """write -> read gives the same certificate and read -> write the same
    bytes, for exact, node-limited, greedy and two-worker certificates."""
    path = tmp_path / "cert.json"
    for cert in [search_exact(2, 3, 3), search_exact(3, 3, 3, max_nodes=50),
                 search_greedy(4, 3, 3, seed=2, restarts=3), search_exact(5, 2, 4, workers=2)]:
        write_certificate(path, cert)
        loaded = read_certificate(path)
        assert loaded == cert
        assert certificate_to_json(loaded) == path.read_text()
        assert verify_certificate(loaded)


def test_certificate_fields_follow_the_key_table():
    assert list(SearchCertificate.__match_args__) == [key for key, _, _ in search._KEYS]


def test_certificate_witness_mutation_detected():
    cert = search_exact(2, 3, 3)
    doc = json.loads(certificate_to_json(cert))
    doc["witness"][1] = "2 2"  # corrupt one point
    buf = io.StringIO(json.dumps(doc))
    assert verify_certificate(read_certificate(buf)) is False


def test_certificate_value_mismatch_detected():
    cert = search_exact(3, 2, 4)
    doc = json.loads(certificate_to_json(cert))
    doc["value"] = 5
    buf = io.StringIO(json.dumps(doc))
    assert verify_certificate(read_certificate(buf)) is False


def test_certificate_bound_violation_detected():
    cert = search_exact(3, 2, 4)
    doc = json.loads(certificate_to_json(cert))
    # claim more points than the counting bound allows; also pad the witness
    doc["witness"] = ["0 0 0", "0 0 1", "0 1 0", "0 1 1", "1 0 0", "1 0 1", "1 1 0"]
    doc["value"] = 7
    buf = io.StringIO(json.dumps(doc))
    assert verify_certificate(read_certificate(buf)) is False


def test_certificate_malformed_and_mismatch_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedCertificateError):
        read_certificate(bad)
    cert = search_exact(2, 3, 3)
    doc = json.loads(certificate_to_json(cert))
    doc["witness"] = ["0 0 0"]  # wrong arity for n = 2
    doc["value"] = 1
    buf = io.StringIO(json.dumps(doc))
    with pytest.raises(AmbientMismatchError):
        verify_certificate(read_certificate(buf))


def test_certificate_records_provenance():
    cert = search_exact(2, 3, 3)
    assert cert.q_spec == "3^1:3"
    assert cert.toolchain["modulus_id"] == 3
    assert "fix-origin" in cert.reductions
    assert cert.prune_bound_used is None  # m = 3 has no counting bound
    cert4 = search_exact(3, 2, 4)
    assert cert4.prune_bound_used == pytest.approx(refined_bound(3, 2, 4), rel=1e-5)


def test_ambient_guard():
    with pytest.raises(ValueError, match="ambient too large"):
        search_exact(21, 2, 4)


def _all_points(q, n):
    return [tuple(c // q ** (n - 1 - j) % q for j in range(n)) for c in range(q**n)]


_GRID = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]
# (p, d, kernel class, dimensions n): every kernel and layout, by field
_KERNEL_GRID = pytest.mark.parametrize(
    "p,d,kernel,ns",
    [(p, d, _Lifted, (2, 3)) for p, d in _GRID] + [(p, d, _Flats, (2, 3)) for p, d in _GRID]
    + [(2, 1, _SubsetSums, (2, 3, 4, 5))],
    ids=[f"{p}-{d}" for p, d in _GRID] + [f"flats-{p}-{d}" for p, d in _GRID] + ["subsetsums-2-1"],
)


@pytest.mark.parametrize("p,d", _GRID, ids=[f"{p}-{d}" for p, d in _GRID])
def test_point_codes_round_trip(p, d):
    """`_decode` inverts `PointSet.encode` on all of AG(n,q), n <= 3, and
    code order is the lex order of `_all_points`."""
    field = make_field(p, d)
    q = field.q
    for n in (1, 2, 3):
        A = PointSet.of(field, n, [])
        for code, x in enumerate(_all_points(q, n)):
            assert A.encode(x) == code and _decode(q, n, code) == x


def _kernel_ms(kernel, n):
    """The m in range for n that kernel serves: 3..n+2, from 4 for
    `_SubsetSums`, whose tested m is 2 floor(m/2) >= 4."""
    return range(4 if kernel is _SubsetSums else 3, n + 3)


@_KERNEL_GRID
def test_flat_kernel_matches_rank_test(p, d, kernel, ns, monkeypatch):
    """After each point of a seeded m-general set joins, the kernel's allowed
    points are exactly those the incremental rank test accepts, for every m
    of `_kernel_ms`.  Each kernel is built directly, whichever one `_kernel`
    would pick.  `_SubsetSums` at n = 4, 5 reaches m = 6, 7, k = 3.
    `_Lifted` runs with 1, ceil((m-1)/2) and m-1 of its m-1 blocks to an
    int, PACK_BITS set to fit them: the top int full or not, and a carry
    between ints or none."""
    field = make_field(p, d)
    for per in [lambda m: 1, lambda m: m // 2, lambda m: m - 1] if kernel is _Lifted else [None]:
        _check_kernel_layout(field, kernel, ns, per, monkeypatch)


def _check_kernel_layout(field, kernel, ns, per, monkeypatch):
    q = field.q
    rng = random.Random(f"flats:{q}")
    for n in ns:
        everything = _all_points(q, n)
        for m in _kernel_ms(kernel, n):
            if per is not None:
                monkeypatch.setattr(search, "PACK_BITS", per(m) * q ** (n + 1))
            blocks = kernel(field, n, m)
            if per is not None:  # one int per per(m) blocks, plus the blocked mask
                assert len(blocks.empty) == 1 + -(-(m - 1) // per(m)), (n, m)
            limit = m + (1 if q**n > 100 else 3)
            pts, state = [], blocks.empty
            for _ in range(50 * limit):
                if len(pts) == limit:
                    break
                x = rng.choice(everything)
                A = PointSet.of(field, n, pts)
                if x in A or not add_point_preserves(A, x, m):
                    continue
                state = blocks.extend(state, A.encode(x))
                pts.append(x)
                A = A.with_point(x)
                allowed = ~state[0] & blocks.full
                want = {A.encode(y) for y in everything if y not in A and add_point_preserves(A, y, m)}
                assert {c for c in range(q**n) if allowed >> c & 1} == want, (n, m, pts)
            assert len(pts) >= min(limit, m - 1), (n, m)


@pytest.mark.parametrize("p,d", _GRID, ids=[f"{p}-{d}" for p, d in _GRID])
def test_lifted_plans_are_reused_unchanged(p, d, monkeypatch):
    """`_Lifted` builds a code's plan on its first extend by that code and
    reuses it on every later one.  A kernel that has extended every code
    once from empty, so holds every plan, extends like a fresh kernel, which
    builds each plan on the spot, by every free code along a seeded
    m-general path, for m in 3..n+2, with one block to an int and with all
    m-1."""
    field = make_field(p, d)
    q = field.q
    rng = random.Random(f"plans:{q}")
    for per in [lambda m: 1, lambda m: m - 1]:
        for n in (2, 3):
            for m in range(3, n + 3):
                monkeypatch.setattr(search, "PACK_BITS", per(m) * q ** (n + 1))
                warm = _Lifted(field, n, m)
                for code in range(q**n):
                    warm.extend(warm.empty, code)
                assert len(warm.plans) == q**n
                state = warm.empty
                for _ in range(m):  # the empty set, then up to m - 1 points
                    free = [c for c in range(q**n) if not state[0] >> c & 1]
                    if not free:
                        break
                    fresh = _Lifted(field, n, m)
                    assert not fresh.plans  # no plan is shared between kernels
                    for c in free:
                        assert warm.extend(state, c) == fresh.extend(state, c), (n, m, c)
                    state = warm.extend(state, rng.choice(free))


@_KERNEL_GRID
def test_leading_leaves_matches_extend_recount(p, d, kernel, ns, monkeypatch):
    """The leaf question, which decides the leading leaves the search counts:
    at random states along random m-general sets, for every m of
    `_kernel_ms` and every free code x but the last (64 of them drawn at
    random where more are free), the kernel's `leaf(state, x, above)` equals
    the recount from extend on sets above of 1, 2, 3, 5 and 64 free codes
    above x drawn at random (fewer where fewer are left).  Both
    answers occur, and `_SubsetSums` runs both its bit tests (above holds no
    more codes than x has set bits) and its translate of E_{k-1}.
    `_Lifted` runs with one block to an int and with all m-1."""
    field = make_field(p, d)
    q = field.q
    rng = random.Random(f"leaves:{q}:{kernel.__name__}")
    answers, branches = set(), set()
    for per in [lambda m: 1, lambda m: m - 1] if kernel is _Lifted else [None]:
        for n in ns:
            for m in _kernel_ms(kernel, n):
                if per is not None:
                    monkeypatch.setattr(search, "PACK_BITS", per(m) * q ** (n + 1))
                blocks = kernel(field, n, m)
                state = blocks.empty
                for _ in range(m + 3):
                    free = [c for c in range(q**n) if not state[0] >> c & 1]
                    if not free:
                        break
                    for x in sorted(rng.sample(free[:-1], min(64, len(free) - 1))):
                        later = free[free.index(x) + 1:]
                        blocked = blocks.extend(state, x)[0]  # leaf by its definition
                        for size in (1, 2, 3, 5, 64):
                            above = rng.sample(later, min(size, len(later)))
                            got = blocks.leaf(state, x, sum(1 << y for y in above))
                            assert got == all(blocked >> y & 1 for y in above), (n, m, state, x, above)
                            answers.add(got)
                            branches.add(len(above) <= x.bit_count())
                    state = blocks.extend(state, rng.choice(free))
    assert answers == {False, True}
    if kernel is _SubsetSums:
        assert branches == {False, True}


def test_kernel_choice_at_the_ambient_limit(monkeypatch):
    """Outside the theorem cells (q = 2 with m = 3, and n = 1): subset sums
    for q = 2 at every n and m, built for m = 2 floor(m/2); for q > 2 lifted
    masks exactly for q^(n+1) < AMBIENT_LIMIT = 2^20, flats otherwise, with
    no lifted mask built."""
    tracemalloc.start()
    flats = _kernel(field_for_order(4), 9, 3)  # 4^10 = 2^20 lifted codes: at the limit
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert isinstance(flats, _Flats)
    # _Lifted would hold 20 digit masks of 2^20 bits (2.5 MiB); the flats'
    # blocked masks have 2^18 bits
    assert peak < 2 * (1 << 20) // 8
    for m in range(4, 8):
        assert isinstance(_kernel(make_field(2), 5, m), _SubsetSums), m

    # stand-ins record each kernel asked for, so no masks are built
    built = []
    for name in ("_SubsetSums", "_Lifted", "_Flats"):
        monkeypatch.setattr(search, name, lambda field, n, m, name=name: built.append((name, field.q, n, m)))
    cells = [(n, m) for n in range(2, 21) for m in range(4, n + 3)]
    for n, m in cells:
        _kernel(make_field(2), n, m)
    assert built == [("_SubsetSums", 2, n, m - m % 2) for n, m in cells]
    built.clear()
    _kernel(make_field(101), 2, 3)  # 101^3 = 1,030,301: just below
    flat_cells = [(4, 9), (32, 3)]  # at the limit, and above it
    for q, n in flat_cells:
        _kernel(field_for_order(q), n, 3)
    assert built == [("_Lifted", 101, 2, 3)] + [("_Flats", q, n, 3) for q, n in flat_cells]


@pytest.mark.parametrize("q, n, m", [(101, 2, 3), (13, 4, 3)])
def test_lifted_keeps_one_block_per_int_on_large_ambients(q, n, m):
    """Where S = q^(n+1) > PACK_BITS, `_Lifted` keeps each W_j in its own int
    and builds its digit masks on S bits, so the (n+1) d (p-1) of them stay
    within their S/8 bytes each (39 MB at q = 101); packing two blocks would
    double that."""
    field = field_for_order(q)
    size = q ** (n + 1)
    tracemalloc.start()
    lifted = _kernel(field, n, m)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert isinstance(lifted, _Lifted) and size > search.PACK_BITS
    assert len(lifted.empty) == 1 + (m - 1)
    masks = [mask for step in lifted.steps for coordinate in step for rots in coordinate
             for rot in rots for mask in rot[::3]]
    assert max(mask.bit_length() for mask in masks) <= size
    assert peak < 1.1 * (n + 1) * field.d * (field.p - 1) * size / 8


@pytest.mark.parametrize("n,m,value,seconds", [(19, 6, 60, 10), (16, 3, 1 << 16, 5)])
def test_f2_greedy_at_large_n(n, m, value, seconds):
    """One greedy pass over AG(n,2): m = 6 runs the subset-sum kernel, and
    m = 3 builds none, since every point joins."""
    start = time.perf_counter()
    cert = search_greedy(n, 2, m, seed=1)
    assert time.perf_counter() - start < seconds
    assert cert.value == value


@pytest.mark.parametrize("m", [3, 5, 7])
def test_f2_search_depends_on_half_m(m):
    """Over F_2 an m-general set is exactly a 2 floor(m/2)-general one, so an
    odd m searches like m - 1: same value, witness and nodes.  m - 1 = 2 is
    out of range; there every set of distinct points qualifies, and both
    drivers answer with the whole space, the exact search in 0 nodes."""
    for n in range(m - 2, 7):
        limit = {"max_nodes": 20_000} if n == 6 else {}
        got = search_exact(n, 2, m, **limit)
        greedy = search_greedy(n, 2, m, seed=n, restarts=3)
        if m == 3:
            everything = tuple(_all_points(2, n))
            assert (got.value, got.exact, got.witness, got.nodes_explored) == (
                2**n, True, everything, 0)
            assert (greedy.value, greedy.witness, greedy.nodes_explored) == (
                2**n, everything, 3 * 2**n)
            continue
        want = search_exact(n, 2, m - 1, **limit)
        assert (got.value, got.exact, got.witness, got.nodes_explored) == (
            want.value, want.exact, want.witness, want.nodes_explored), n
        want = search_greedy(n, 2, m - 1, seed=n, restarts=3)
        assert (greedy.value, greedy.witness, greedy.nodes_explored) == (
            want.value, want.witness, want.nodes_explored), n
        assert got.m == greedy.m == m


def test_f2_rule_bounds_the_rank_oracle(monkeypatch):
    """Over F_2 `is_m_general` runs the rank oracle `_all_independent` for
    no m <= 5 and with at most 6 points for m = 6, 7, so `check` of a
    146-point q = 2, m = 5 greedy certificate is a pair-sum scan plus the
    arithmetic oracle."""
    sizes = []
    real = affine._all_independent
    monkeypatch.setattr(affine, "_all_independent",
                        lambda field, base, others, size: sizes.append(size) or real(field, base, others, size))
    f2 = make_field(2)
    rng, reached = random.Random(15), set()
    for n in (4, 6, 8):
        space = _all_points(2, n)
        for _ in range(20):
            ps = PointSet.of(f2, n, rng.sample(space, rng.randint(1, 12)))
            for m in range(3, min(7, n + 2) + 1):
                sizes.clear()
                is_m_general(ps, m)
                if m <= 5:
                    assert sizes == [], (ps.points, m)
                else:
                    assert max(sizes, default=0) <= 6, (ps.points, m)
                    reached.update(sizes)
    assert reached == {3, 4, 5, 6}  # the m = 6, 7 runs did reach the rank oracle
    monkeypatch.undo()
    cert = search_greedy(16, 2, 5, seed=1)
    assert cert.value == 146
    start = time.perf_counter()
    assert verify_certificate(cert)
    assert time.perf_counter() - start < 10


def test_exact_cap_in_ag33():
    cert = search_exact(3, 3, 3)
    assert cert.exact and cert.value == 9
    assert is_m_general(cert.point_set(), 3)


@pytest.mark.parametrize(
    "p,d,n,m",
    [(3, 1, 3, 3), (5, 1, 2, 3), (3, 1, 3, 4), (2, 2, 3, 4), (3, 2, 2, 4), (2, 1, 4, 3), (2, 1, 4, 4),
     (3, 1, 5, 3), (2, 1, 8, 5), (3, 1, 1, 3), (2, 11, 1, 3)],
)
def test_greedy_matches_reference(p, d, n, m):
    field = make_field(p, d)
    for seed, restarts in [(0, 1), (1, 2), (7, 3)]:
        cert = search_greedy(n, field, m, seed=seed, restarts=restarts)
        want = greedy_reference(field, n, m, seed, restarts)
        assert (cert.value, cert.witness, cert.nodes_explored) == want


@pytest.mark.parametrize("total", [2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 243, 1023, 1024, 1025, 4096])
def test_greedy_order_is_shuffle(total):
    """The greedy draws its Fisher-Yates order from `getrandbits` itself, in
    bands of equal bit length; on this interpreter it is `shuffle`'s order,
    at every band edge."""
    for s in range(50):
        want = list(range(total))
        random.Random(f"{s}:{total}").shuffle(want)
        assert search._shuffled(f"{s}:{total}", total) == want, s


@pytest.mark.parametrize("n,q,m,restarts", [(12, 2, 4, 40), (11, 2, 4, 40), (10, 2, 4, 8), (5, 3, 3, 1),
                                            (2, 9, 3, 30), (3, 4, 4, 5), (16, 2, 3, 2)])
def test_greedy_matches_shuffle_loop(n, q, m, restarts):
    """The same certificate, bytes included, as the restart loop on
    `random.Random.shuffle` that scans every code: the early end once every
    code is blocked changes nothing."""
    cert = search_greedy(n, q, m, seed=1, restarts=restarts)
    want = greedy_by_shuffle(n, q, m, seed=1, restarts=restarts)
    assert cert == want
    assert certificate_to_json(cert) == certificate_to_json(want)


def test_theorem_cells_build_no_kernel(monkeypatch):
    """q = 2 with m = 3 (every set of distinct points) and n = 1 (two points,
    the dimension cap) are answered by theorem: with `_kernel` made to raise,
    the exact search returns the r lowest codes, exact in 0 nodes, and the
    greedy r points, for n <= 12 and for q up to 2^16."""
    def no_kernel(field, n, m):
        raise AssertionError(f"kernel built for q={field.q}, n={n}, m={m}")

    monkeypatch.setattr(search, "_kernel", no_kernel)
    cells = [(n, 2, 3, 2**n, "f2-even-support") for n in range(2, 13)]
    cells += [(1, q, 3, 2, "dimension-cap") for q in (2, 3, 4, 5, 7, 8, 9, 16, 101, 2048, 65536)]
    for n, q, m, value, reduction in cells:
        cert = search_exact(n, q, m, max_nodes=0)
        assert (cert.value, cert.exact, cert.nodes_explored, cert.reductions) == (
            value, True, 0, (reduction,)), (n, q)
        assert cert.witness == tuple(_all_points(q, n)[:value])
        greedy = search_greedy(n, q, m, seed=n, restarts=2)
        assert (greedy.value, greedy.exact, greedy.nodes_explored) == (value, False, 2 * q**n), (n, q)
    assert verify_certificate(search_exact(1, 65536, 3))
