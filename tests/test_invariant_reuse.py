"""The engine computes each program's invariant map once per process.

Every portfolio rung and the refutation probe of a pair analyze the
same two programs with the same widening knobs, and the invariant map
depends on nothing else, so :func:`repro.engine.jobs.run_job` keeps a
content-keyed memo (program text, ``widening_delay``,
``narrowing_passes``) shared by every job kind.  These tests pin down
that the memo saves the work, never changes a reported byte, keys on
exactly the right fields, stores nothing for a failed generation and
stays bounded.
"""

import json
import time

import pytest

import repro.core.diffcost
import repro.engine.executor
from repro.bench.suite import pair_sources
from repro.config import AnalysisConfig, EngineConfig
from repro.engine import ParallelExecutor, batch_to_json, run_batch, run_portfolio
from repro.engine import jobs as jobs_module
from repro.engine.jobs import AnalysisJob, clear_invariant_memo, run_job
from repro.obs import get_registry
from repro.serve.shard import canonical_json

PAIRS = ("dis2", "simple_single2")

COUNT = """
proc count(n) {{
  assume(1 <= n && n <= {cap});
  var i = 0;
  while (i < n) {{ tick(1); i = i + 1; }}
}}
"""


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_invariant_memo()
    yield
    clear_invariant_memo()


@pytest.fixture
def generations(monkeypatch):
    """Counts calls of ``generate_invariants`` (one per computed map)."""
    original = repro.core.diffcost.generate_invariants
    calls = []

    def counted(system, *args, **kwargs):
        calls.append(system.name)
        return original(system, *args, **kwargs)

    monkeypatch.setattr(repro.core.diffcost, "generate_invariants", counted)
    return calls


def _without_reuse(monkeypatch):
    """From now on, clear the memo before every job the executor runs."""
    def run_cold(job):
        clear_invariant_memo()
        return run_job(job)

    monkeypatch.setattr(repro.engine.executor, "run_job", run_cold)


def _best_with_refutation(name):
    old_source, new_source = pair_sources(name)
    with ParallelExecutor(jobs=1) as executor:
        return run_portfolio(old_source, new_source, name, executor,
                             mode="best", refute=True)


def _summary(portfolio):
    probe = portfolio.refutation
    return {
        "rung": portfolio.chosen_rung_index(),
        "threshold": portfolio.chosen.threshold,
        "threshold_str": portfolio.chosen.threshold_str,
        "probe_outcome": probe.outcome,
        "gap": probe.threshold,
        "gap_str": probe.threshold_str,
        "rungs": [(rung.outcome, rung.threshold, rung.threshold_str)
                  for rung in portfolio.rungs],
    }


def _single(source, config=None, name="single"):
    return AnalysisJob(kind="single", old_source=source,
                       config=config or AnalysisConfig(), name=name)


def _pair_dir(tmp_path):
    directory = tmp_path / "pairs"
    directory.mkdir()
    for name in PAIRS:
        old_source, new_source = pair_sources(name)
        (directory / f"{name}_old.imp").write_text(old_source)
        (directory / f"{name}_new.imp").write_text(new_source)
    return directory


class TestPortfolioSharing:
    @pytest.mark.parametrize("name", PAIRS)
    def test_rungs_and_probe_generate_two_maps_per_pair(self, name,
                                                        generations):
        portfolio = _best_with_refutation(name)
        assert len(portfolio.rungs) == 4
        assert portfolio.refutation is not None
        assert portfolio.refutation.status == "ok"
        # Old and new program, once each, for 4 rungs and the probe.
        assert generations == [f"{name}[d1K1:scipy]_old",
                               f"{name}[d1K1:scipy]_new"]

    @pytest.mark.parametrize("name", PAIRS)
    def test_verdicts_equal_a_run_without_reuse(self, name, monkeypatch):
        shared = _summary(_best_with_refutation(name))
        _without_reuse(monkeypatch)
        assert _summary(_best_with_refutation(name)) == shared

    def test_batch_report_bytes_equal_a_run_without_reuse(self, tmp_path,
                                                          monkeypatch):
        directory = _pair_dir(tmp_path)
        engine = EngineConfig(jobs=1, portfolio=True,
                              portfolio_mode="best", refute=True)
        shared = run_batch(directory, engine=engine)
        _without_reuse(monkeypatch)
        cold = run_batch(directory, engine=engine)
        assert shared.ok and cold.ok
        assert all(p.refutation is not None for p in shared.portfolios)
        assert canonical_json(json.loads(batch_to_json(shared))) \
            == canonical_json(json.loads(batch_to_json(cold)))


class TestEveryJobKind:
    def test_diff_bound_refute_share_the_pair_maps(self, generations):
        old, new = COUNT.format(cap=7), COUNT.format(cap=9)
        config = AnalysisConfig(degree=1, max_products=1)
        diff = run_job(AnalysisJob(kind="diff", old_source=old,
                                   new_source=new, config=config))
        bound = run_job(AnalysisJob(kind="bound", old_source=old,
                                    new_source=new, config=config,
                                    bound="n"))
        refute = run_job(AnalysisJob(kind="refute", old_source=old,
                                     new_source=new, config=config,
                                     candidate=diff.threshold - 1))
        assert [r.status for r in (diff, bound, refute)] == ["ok"] * 3
        assert len(generations) == 2

    def test_entry_points_use_supplied_maps(self, generations):
        from repro.core import (
            analyze_diffcost,
            prove_symbolic_bound,
            refute_threshold,
        )
        from repro.core.diffcost import DiffCostAnalyzer
        from repro.lang import load_program
        from repro.poly import parse_polynomial

        old = load_program(COUNT.format(cap=7))
        new = load_program(COUNT.format(cap=9))
        config = AnalysisConfig(degree=1, max_products=1)
        maps = DiffCostAnalyzer(old, new, config).invariants()
        assert len(generations) == 2
        supplied = dict(old_invariants=maps[0], new_invariants=maps[1])
        result = analyze_diffcost(old, new, config, **supplied)
        assert result.threshold == analyze_diffcost(old, new, config).threshold
        generations.clear()
        analyze_diffcost(old, new, config, **supplied)
        prove_symbolic_bound(old, new, parse_polynomial("n"), config,
                             **supplied)
        refute_threshold(old, new, 0, config, **supplied)
        assert generations == []


class TestMemoKey:
    def test_widening_knobs_are_keyed(self, generations):
        source = COUNT.format(cap=7)
        base = AnalysisConfig()
        run_job(_single(source, base))
        run_job(_single(source, base))
        assert len(generations) == 1
        run_job(_single(source, AnalysisConfig(
            widening_delay=base.widening_delay + 1)))
        assert len(generations) == 2
        run_job(_single(source, AnalysisConfig(
            narrowing_passes=base.narrowing_passes + 1)))
        assert len(generations) == 3

    def test_template_shape_and_backend_are_not_keyed(self, generations):
        source = COUNT.format(cap=7)
        for degree, max_products, backend in ((1, 1, "scipy"),
                                              (2, 2, "exact-warm")):
            run_job(_single(source, AnalysisConfig(
                degree=degree, max_products=max_products,
                lp_backend=backend)))
        assert len(generations) == 1

    def test_other_name_reuses_the_map_for_its_own_system(
            self, generations, monkeypatch):
        import repro.core

        seen = []
        original = repro.core.analyze_single_program

        def capture(program, config=None, invariants=None):
            seen.append(invariants)
            return original(program, config, invariants=invariants)

        monkeypatch.setattr(repro.core, "analyze_single_program", capture)
        source = COUNT.format(cap=7)
        first = run_job(_single(source, name="alpha"))
        second = run_job(_single(source, name="beta"))
        assert len(generations) == 1
        assert first.threshold_str == second.threshold_str
        assert first.threshold == second.threshold
        assert str(seen[0]).startswith("invariants for alpha_old:")
        assert str(seen[1]).startswith("invariants for beta_old:")
        assert seen[1].system.name == "beta_old"
        assert seen[0].invariants is seen[1].invariants

    def test_key_is_the_parsed_text_not_the_path(self, tmp_path,
                                                 generations):
        path = tmp_path / "count.imp"
        path.write_text(COUNT.format(cap=7))
        run_job(_single(str(path)))
        run_job(_single(COUNT.format(cap=7)))
        assert len(generations) == 1
        path.write_text(COUNT.format(cap=8))
        run_job(_single(str(path)))
        assert len(generations) == 2


class TestMemoStorage:
    def test_failed_generation_stores_nothing(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("generation failed")

        monkeypatch.setattr(repro.core.diffcost, "generate_invariants",
                            broken)
        source = COUNT.format(cap=7)
        with pytest.raises(RuntimeError, match="generation failed"):
            run_job(_single(source))
        old, new = pair_sources("dis2")
        with pytest.raises(RuntimeError, match="generation failed"):
            run_job(AnalysisJob(kind="diff", old_source=old,
                                new_source=new, name="dis2"))
        assert len(jobs_module._INVARIANT_MEMO) == 0
        failed = repro.engine.executor.execute_job(_single(source))
        assert failed.status == "error"
        assert len(jobs_module._INVARIANT_MEMO) == 0

    def test_timed_out_generation_stores_nothing(self, monkeypatch):
        original = repro.core.diffcost.generate_invariants

        def slow(*args, **kwargs):
            time.sleep(5)
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.core.diffcost, "generate_invariants",
                            slow)
        result = repro.engine.executor.execute_job(
            _single(COUNT.format(cap=7)), timeout=0.05)
        assert result.status == "timeout"
        assert len(jobs_module._INVARIANT_MEMO) == 0

    def test_lru_cap_evicts_least_recently_used(self, monkeypatch,
                                                generations):
        monkeypatch.setattr(jobs_module, "INVARIANT_MEMO_SIZE", 2)
        a, b, c = (COUNT.format(cap=cap) for cap in (5, 6, 7))
        run_job(_single(a))
        run_job(_single(b))
        run_job(_single(a))          # a is now the most recently used
        assert len(generations) == 2
        run_job(_single(c))          # evicts b
        assert len(jobs_module._INVARIANT_MEMO) == 2
        assert len(generations) == 3
        run_job(_single(a))
        assert len(generations) == 3
        run_job(_single(b))
        assert len(generations) == 4


class TestInvariantMapMetric:
    def _counter(self):
        return get_registry().counter(
            "repro_invariant_maps_total",
            "Program invariant maps computed or reused from the memo.",
            ("outcome",),
        )

    def test_inline_portfolio_counts_computed_and_reused(self):
        counter = self._counter()
        computed = counter.value(outcome="computed")
        reused = counter.value(outcome="reused")
        _best_with_refutation("dis2")
        # 5 jobs x 2 programs: 2 computed by the first rung, 8 reused.
        assert counter.value(outcome="computed") - computed == 2
        assert counter.value(outcome="reused") - reused == 8

    def test_worker_deltas_merge_exactly(self):
        counter = self._counter()
        before = (counter.value(outcome="computed")
                  + counter.value(outcome="reused"))
        jobs = [_single(COUNT.format(cap=cap), name=f"w{index}")
                for index, cap in enumerate((5, 6, 5, 6, 5))]
        with ParallelExecutor(jobs=2) as executor:
            results = executor.run(jobs)
        assert all(result.status == "ok" for result in results)
        assert all(result.metrics == {} for result in results)
        after = (counter.value(outcome="computed")
                 + counter.value(outcome="reused"))
        # One map per single job, whichever worker's memo answered it.
        assert after - before == len(jobs)
