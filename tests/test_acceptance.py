"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line with its elapsed time (run pytest with
``-s`` to see them live) and enforces both the functional tolerance and
the runtime budget.
"""

import hashlib
import itertools
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import mpmath
import numpy as np
import pytest

from ts3ra import auth, ddos, hopfield, offload, sched, slicenet
from ts3ra.cli import main as cli_main
from ts3ra.domain import ServiceType, SliceRequest
from ts3ra.engine import run_scenario
from ts3ra.scenario import Scenario

mpmath.mp.dps = 50


def _report(criterion: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"[{status}] {criterion}: {detail} ({elapsed:.2f}s / budget {budget:.0f}s)"
    print(line, file=sys.stderr)
    assert ok, line
    assert elapsed < budget, line


# -- 1: key derivation ---------------------------------------------------------

RFC6070 = [
    (b"password", b"salt", 1, 20, "0c60c80f961f0e71f3a9b524af6012062fe037a6"),
    (b"password", b"salt", 2, 20, "ea6c014dc72d6f8ccd1ed92ace1d41f0d8de8957"),
    (b"password", b"salt", 4096, 20, "4b007901b765489abead49d926f721d065a429c1"),
    (
        b"passwordPASSWORDpassword",
        b"saltSALTsaltSALTsaltSALTsaltSALTsalt",
        4096,
        25,
        "3d2eec4fe41c849b80c8d83662c0e44a8b291a964cf2f07038",
    ),
    (b"pass\0word", b"sa\0lt", 4096, 16, "56fa6aa75548099dcc37d7f03425e0c3"),
]


def test_criterion_1_key_derivation():
    t0 = time.perf_counter()
    ok = True
    for pwd, salt, iters, dklen, expected in RFC6070:
        ok &= auth.pbkdf2_bytes(pwd, salt, iters, dklen, "sha1").hex() == expected
    rng = np.random.default_rng(1234)
    for _ in range(30):
        pwd = bytes(rng.integers(0, 256, size=int(rng.integers(1, 64)), dtype=np.uint8))
        salt = bytes(rng.integers(0, 256, size=int(rng.integers(8, 40)), dtype=np.uint8))
        iters = int(rng.integers(1, 100))
        dklen = int(rng.integers(1, 100))
        prf = ["sha1", "sha256", "sha512"][int(rng.integers(3))]
        mine = auth.pbkdf2_bytes(pwd, salt, iters, dklen, prf)
        ok &= mine == hashlib.pbkdf2_hmac(prf, pwd, salt, iters, dklen)
    ok &= auth.KeyDerivationParams(b"pw", b"salt-salt").iteration_count == 1000
    _report(
        "1 key derivation",
        ok,
        time.perf_counter() - t0,
        5.0,
        "published vectors + independent reference byte-identical, default 1000 iterations",
    )


# -- 2: admission gate ----------------------------------------------------------


def test_criterion_2_admission_gate():
    t0 = time.perf_counter()
    ok = True
    for t, p, k in itertools.product((0, 1), repeat=3):
        symbolic = int((not ((t and p) and (t or p))) and k)
        ok &= auth.boolean_gate_literal(t, p, k) == symbolic
    rng = np.random.default_rng(2)
    va = auth.VirtualAuthority()
    puf = auth.SimulatedPuf(b"\x07" * 32)
    auth.register_device(va, "dev", b"pw", puf, rng)

    def verdict(password, ts, response):
        return auth.authenticate(
            va, "dev", password, timestamp=ts, puf_response=response, now=100.0, rng=rng
        )

    ok &= verdict(b"pw", 100.0, puf.respond).accepted
    ok &= not verdict(b"pw", 10.0, puf.respond).accepted
    ok &= not verdict(b"pw", 100.0, b"bogus").accepted
    ok &= not verdict(b"nope", 100.0, puf.respond).accepted
    _report(
        "2 admission gate",
        ok,
        time.perf_counter() - t0,
        1.0,
        "8-row truth table matches symbolic evaluation; admission is the 3-way conjunction",
    )


# -- 3: incremental learning rule ------------------------------------------------


def _brute_force_storkey(we_prev, xi):
    n = we_prev.shape[0]

    def h(i, j):
        return sum(we_prev[i][k] * xi[k] for k in range(n) if k not in (i, j))

    out = np.array(we_prev, copy=True)
    for i in range(n):
        for j in range(n):
            if i != j:
                out[i][j] = we_prev[i][j] + (
                    xi[i] * xi[j] - xi[i] * h(j, i) - h(i, j) * xi[j]
                ) / n
    return out


def test_criterion_3_storkey_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        we = hopfield.zero_weights(n)
        ref = hopfield.zero_weights(n)
        for _ in range(int(rng.integers(1, 5))):
            xi = np.where(rng.random(n) < 0.5, 1.0, -1.0)
            we = hopfield.storkey_update(we, xi)
            ref = _brute_force_storkey(ref, xi)
            worst = max(worst, float(np.max(np.abs(we - ref))))
            ok &= np.all(np.diag(we) == 0.0)
            ok &= np.array_equal(we, we.T)
    ok &= worst < 1e-12
    _report(
        "3 learning-rule oracle",
        ok,
        time.perf_counter() - t0,
        10.0,
        f"200 cases N in 2..8, max |dev| {worst:.2e} < 1e-12, symmetry and zero diagonal exact",
    )


# -- 4: associative recall --------------------------------------------------------


def test_criterion_4_recall():
    t0 = time.perf_counter()
    patterns = [hopfield.encode_pattern(st.indicator) for st in ServiceType]
    we = hopfield.train_patterns(patterns)
    thetas = np.zeros(hopfield.PATTERN_LENGTH)
    ok = all(
        np.array_equal(hopfield.update_state(we, thetas, p), p) for p in patterns
    )
    successes = 0
    for pattern in patterns:
        for bit in range(hopfield.PATTERN_LENGTH):
            probe = pattern.copy()
            probe[bit] *= -1
            res = hopfield.recall(we, thetas, probe, max_iters=10)
            successes += int(np.array_equal(res.state, pattern))
    ok &= successes == 36
    _report(
        "4 associative recall",
        ok,
        time.perf_counter() - t0,
        5.0,
        f"3 stored codes are fixed points; {successes}/36 single-bit probes recalled",
    )


# -- 5: order-alpha entropy -------------------------------------------------------


def _mp_renyi(p, alpha):
    total = mpmath.mpf(0)
    for x in p:
        if x > 0:
            total += mpmath.mpf(repr(float(x))) ** alpha
    return float(mpmath.log(total, 2) / (1 - mpmath.mpf(alpha)))


def test_criterion_5_renyi_entropy():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    ok = True
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 64))
        raw = rng.random(k) + 1e-9
        p = raw / raw.sum()
        values = []
        for alpha in (0.5, 2.0, 3.0):
            mine = ddos.renyi_entropy(p, alpha)
            worst = max(worst, abs(mine - _mp_renyi(p, alpha)))
            values.append(mine)
        ok &= values[0] >= values[1] >= values[2]  # non-increasing in alpha
    ok &= worst < 1e-9
    for k in (2, 8, 32):
        uniform = np.full(k, 1.0 / k)
        for alpha in (0.5, 2.0, 3.0):
            ok &= abs(ddos.renyi_entropy(uniform, alpha) - math.log2(k)) < 1e-9
    _report(
        "5 order-alpha entropy",
        ok,
        time.perf_counter() - t0,
        5.0,
        f"100 distributions x 3 orders vs extended precision, max |dev| {worst:.2e}",
    )


# -- 6: offload optimality ----------------------------------------------------------


def test_criterion_6_offload_optimality():
    t0 = time.perf_counter()
    from tests.test_offload import brute_force_assignment, random_instance

    rng = np.random.default_rng(66)
    ok = True
    for case in range(200):
        graph = random_instance(rng, uniform_rates=(case % 2 == 0))
        result = offload.max_weight_assignment(graph)
        ok &= result.optimal
        ok &= abs(result.total_weight - brute_force_assignment(graph)) < 1e-9
        used = {sw.switch_id: 0.0 for sw in graph.switches}
        budget = {sw.switch_id: b for sw, b in zip(graph.switches, graph.budgets)}
        for flow in graph.flows:
            dest = result.assignment.get(flow.flow_id)
            if dest is not None:
                used[dest] += flow.rate
        ok &= all(used[s] <= budget[s] + 1e-9 for s in used)
    _report(
        "6 offload optimality",
        ok,
        time.perf_counter() - t0,
        30.0,
        "200 seeded instances equal exhaustive optimum; all plans capacity-feasible",
    )


# -- 7: slice-selection numerics ------------------------------------------------------


def test_criterion_7_slicenet_numerics():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    model = slicenet.SliceNetModel(n_features=4, d_model=8, rng=rng)
    feats = rng.uniform(0, 1, size=(2, 4))
    labels = np.array([0, 2])
    _, flat_grad = model.loss_and_flat_grad(feats, labels)
    grads = model.tensor_views(flat_grad)

    h = 1e-5
    worst = 0.0
    for name, p in model.parameters().items():
        flat = p.ravel()
        g = grads[name].ravel()
        step = max(1, flat.size // 6)
        for i in range(0, flat.size, step):
            original = flat[i]
            flat[i] = original + h
            lp, _ = model.loss_and_flat_grad(feats, labels)
            flat[i] = original - h
            lm, _ = model.loss_and_flat_grad(feats, labels)
            flat[i] = original
            numeric = (lp - lm) / (2 * h)
            denom = max(abs(numeric), abs(g[i]), 1e-8)
            worst = max(worst, abs(numeric - g[i]) / denom)
    ok = worst < 1e-4

    z = np.random.default_rng(8).normal(size=(100, 3)) * 20
    ok &= bool(np.allclose(slicenet.softmax(z).sum(axis=-1), 1.0, atol=1e-9))

    data_rng = np.random.default_rng(42)
    feats_full, labels_full = slicenet.make_separable_dataset(1000, data_rng)
    trained = slicenet.SliceNetModel(rng=np.random.default_rng(1))
    curve = slicenet.train(
        trained, feats_full, labels_full, epochs=10, learning_rate=0.01,
        rng=np.random.default_rng(2),
    )
    accuracy = curve.accuracies[-1]
    ok &= accuracy >= 0.95
    _report(
        "7 slice-selection numerics",
        ok,
        time.perf_counter() - t0,
        60.0,
        f"gradient check rel err {worst:.2e} < 1e-4; softmax rows sum to 1; "
        f"accuracy {accuracy:.3f} >= 0.95 after {len(curve.epochs)} of at most 10 epochs",
    )


# -- 8: scheduler contract ---------------------------------------------------------------


def test_criterion_8_scheduler():
    t0 = time.perf_counter()
    ok = True
    try:
        sched.validate_config(sched.SchedulerConfig(mu1=0.6, mu2=0.5))
        ok = False
    except sched.SchedulerConfigError:
        pass
    sched.validate_config(sched.SchedulerConfig(mu1=0.55, mu2=0.45))

    cfg = sched.SchedulerConfig(mu1=0.6, mu2=0.4, delta=0.75, hp_capacity=40, lp_capacity=40)
    state = sched.DualQueueState()
    service_rng = np.random.default_rng(88)
    arrival_rng = np.random.default_rng(77)
    exclusivity_ok = True
    serving_exclusively = False
    for slot in range(100_000):
        if arrival_rng.random() < 0.55:
            cls = sched.QueueClass.HP if arrival_rng.random() < 0.45 else sched.QueueClass.LP
            request = SliceRequest(origin=f"r{slot}", demand_slots=int(arrival_rng.integers(1, 4)))
            sched.enqueue(state, request, cls, cfg)
        hp_before = len(state.hp)
        occupancy = hp_before / cfg.hp_capacity
        if occupancy >= cfg.delta:
            serving_exclusively = True
        if hp_before == 0:
            serving_exclusively = False
        result = sched.step_slot(state, cfg, service_rng)
        if serving_exclusively and hp_before > 0:
            exclusivity_ok &= result.decision is not sched.Decision.SERVE_LP
        ok &= state.conservation_holds()
    ok &= exclusivity_ok
    hp_counters = state.counters[sched.QueueClass.HP]
    detail = (
        f"rate-sum invariant enforced; conservation exact over 100000 slots "
        f"(HP enq {hp_counters.enqueued}); HP exclusivity above delta verified"
    )
    _report("8 scheduler", ok, time.perf_counter() - t0, 30.0, detail)


# -- 9: qualitative per-slice trends ----------------------------------------------------------


def _run_seed(seed: int):
    report = run_scenario(Scenario(seed=seed))
    m = {st: report.slices[st] for st in ServiceType}
    return {
        "ptr": (m[ServiceType.EMBB].ptr, m[ServiceType.URLLC].ptr, m[ServiceType.MMTC].ptr),
        "resp": (
            m[ServiceType.EMBB].response_s,
            m[ServiceType.URLLC].response_s,
            m[ServiceType.MMTC].response_s,
        ),
        "max_plr": max(x.plr for x in m.values()),
    }


def test_criterion_9_qualitative_trends():
    t0 = time.perf_counter()
    seeds = [1, 2, 3, 4, 5]
    with ProcessPoolExecutor(max_workers=5) as pool:
        results = list(pool.map(_run_seed, seeds))
    ptr_ok = sum(1 for r in results if r["ptr"][1] > r["ptr"][0] > r["ptr"][2])
    resp_ok = sum(1 for r in results if r["resp"][1] < r["resp"][2] < r["resp"][0])
    plr_ok = all(r["max_plr"] <= 0.25 for r in results)
    ok = ptr_ok >= 4 and resp_ok >= 4 and plr_ok
    worst_plr = max(r["max_plr"] for r in results)
    _report(
        "9 qualitative trends",
        ok,
        time.perf_counter() - t0,
        300.0,
        f"delivery-ratio ordering S2>S1>S3 in {ptr_ok}/5 seeds, "
        f"response ordering S2<S3<S1 in {resp_ok}/5, worst per-slice loss ratio "
        f"{worst_plr:.3f} <= 0.25 with offloading enabled",
    )


# -- 10: flood detection -------------------------------------------------------------------


def test_criterion_10_flood_detection():
    t0 = time.perf_counter()
    from tests.test_ddos import baseline_of, benign_window, flood_window

    recalls, fprs = [], []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        baseline = baseline_of([benign_window(rng, i) for i in range(20)])
        fp = sum(
            ddos.classify_window(benign_window(rng, 100 + i), baseline).verdict
            == ddos.VERDICT_ATTACK
            for i in range(100)
        )
        tp = sum(
            ddos.classify_window(
                flood_window(rng, 300 + i, share=float(rng.uniform(0.25, 0.5))),
                baseline,
            ).verdict
            == ddos.VERDICT_ATTACK
            for i in range(60)
        )
        recalls.append(tp / 60)
        fprs.append(fp / 100)
    ok = min(recalls) >= 0.9 and max(fprs) <= 0.05
    _report(
        "10 flood detection",
        ok,
        time.perf_counter() - t0,
        60.0,
        f"5-10% flooder corpus: worst recall {min(recalls):.2f} >= 0.90, "
        f"worst false-positive rate {max(fprs):.2f} <= 0.05",
    )


# -- 11: determinism ------------------------------------------------------------------------


DETERMINISM_SCENARIO = """
[network]
devices = 60
duration = 60.0
seed = 2024

[slicenet]
train_samples = 300
epochs = 3
"""


def test_criterion_11_determinism(tmp_path):
    t0 = time.perf_counter()
    scenario_path = tmp_path / "repro.cfg"
    scenario_path.write_text(DETERMINISM_SCENARIO)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli_main(
            ["run", "--scenario", str(scenario_path), "--out", str(out), "--trace"]
        )
        assert code == 0
        outs.append(out)
    metrics_equal = (outs[0] / "metrics.csv").read_bytes() == (
        outs[1] / "metrics.csv"
    ).read_bytes()
    trace_equal = (outs[0] / "trace.csv").read_bytes() == (
        outs[1] / "trace.csv"
    ).read_bytes()
    ok = metrics_equal and trace_equal
    _report(
        "11 determinism",
        ok,
        time.perf_counter() - t0,
        120.0,
        "two invocations byte-identical in metrics and trace CSVs",
    )
