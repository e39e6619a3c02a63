"""End-to-end tests for the ``repro paper`` pipeline.

Small scales throughout (shape verdicts at these lengths are allowed to
FAIL — the pipeline must still run, resume, and render; CI's full-scale
run is what validates the science).
"""

import pytest

from repro.core.generations import GenerationRecord
from repro.core.metrics import MissCorrelation
from repro.figures.pipeline import (
    _build_artifact,
    derive_figures,
    load_suite,
    plan_cells,
    render_report,
    run_paper,
)
from repro.figures.registry import select_specs
from repro.sim.store import RunStore
from repro.traces.workloads import SPEC2000

WORKLOADS = ["gzip", "swim", "mcf"]
SCALE = dict(length=1200, workloads=WORKLOADS, trace_cache=False)


class TestPlanCells:
    def test_shared_config_planned_once(self):
        """fig01 and fig04 both need `base`: one group, no duplicate cells."""
        groups = plan_cells(select_specs(["fig01", "fig04"]))
        assert len(groups) == 1
        workloads, configs = groups[0]
        assert workloads == tuple(SPEC2000)
        assert set(configs) == {"base", "perfect"}

    def test_groups_split_by_workload_set(self):
        """fig20 needs pf_tk only on its best performers; base spans the suite."""
        groups = plan_cells(select_specs(["fig04", "fig20"]))
        by_configs = {tuple(sorted(configs)): workloads for workloads, configs in groups}
        assert ("base",) in by_configs
        assert by_configs[("base",)] == tuple(SPEC2000)
        assert ("pf_tk",) in by_configs
        assert 0 < len(by_configs[("pf_tk",)]) < len(SPEC2000)

    def test_union_covers_every_spec_cell(self):
        specs = select_specs(["fig02", "fig13", "fig19"])
        groups = plan_cells(specs)
        planned = {
            (w, c) for workloads, configs in groups for w in workloads for c in configs
        }
        for spec in specs:
            assert set(spec.cells(tuple(SPEC2000))) <= planned


class TestRoundTrip:
    def test_warm_rerun_is_byte_identical(self, tmp_path):
        out = str(tmp_path)
        first = run_paper(only=["fig02"], out_dir=out, **SCALE)
        assert first.executed == len(WORKLOADS) * 2  # base + perfect
        assert first.replayed == 0

        second = run_paper(only=["fig02"], out_dir=out, resume=True, **SCALE)
        assert second.executed == 0
        assert second.replayed == first.executed
        assert second.report_text == first.report_text

        with open(first.report_path, encoding="utf-8") as fh:
            assert fh.read() == second.report_text

    def test_report_structure(self, tmp_path):
        run = run_paper(only=["fig02"], out_dir=str(tmp_path), **SCALE)
        text = run.report_text
        assert "# Paper Reproduction Report" in text
        assert "## Verdicts" in text
        assert "| fig02 |" in text
        assert "```text" in text
        assert "## Sweep phase breakdown" in text

    def test_absent_workloads_skip_not_fail(self, tmp_path):
        """Guarded checks on workloads outside the subset record SKIP."""
        run = run_paper(only=["fig02"], out_dir=str(tmp_path), **SCALE)
        (artifact,) = run.artifacts
        assert any(c.passed is None for c in artifact.checks)
        assert "SKIP" in run.report_text

    def test_store_holds_metrics_for_rederivation(self, tmp_path):
        """Figures derive from the store alone, so metric banks persist."""
        run = run_paper(only=["fig04"], out_dir=str(tmp_path), **SCALE)
        with RunStore(run.store_path) as store:
            suite, failed = load_suite(store)
        assert failed == 0
        assert suite["gzip"]["base"].metrics is not None


class TestDeriveScansOnce:
    def test_one_store_scan_per_derive(self, tmp_path, monkeypatch):
        """The suite and the phase table come from one store scan, and
        the report matches the one built from two separate scans."""
        run = run_paper(only=["fig02"], out_dir=str(tmp_path), **SCALE)
        specs = select_specs(["fig02"])
        scans = []
        real_load_report = RunStore.load_report

        def counting_load_report(self):
            scans.append(self.path)
            return real_load_report(self)

        with RunStore(run.store_path) as store:
            suite, failed = load_suite(store)
            two_scan_text = render_report(
                specs=specs,
                artifacts=[_build_artifact(spec, suite) for spec in specs],
                suite=suite,
                store=store,
                length=SCALE["length"],
                seed=0,
                warmup=SCALE["length"] // 2,
                failed_cells=failed,
            )
            monkeypatch.setattr(RunStore, "load_report", counting_load_report)
            _, text, _ = derive_figures(specs, store, length=SCALE["length"])
        assert len(scans) == 1
        assert text == two_scan_text
        assert text == run.report_text


class TestDeriveBuildsNoRecords:
    def test_derive_constructs_no_record_objects(self, tmp_path, monkeypatch):
        """Every figure reads the metric banks' columns: deriving the
        whole report builds no per-generation or per-miss object."""
        run = run_paper(out_dir=str(tmp_path), **SCALE)
        built = []
        for cls in (GenerationRecord, MissCorrelation):
            real_init = cls.__init__

            def counting_init(self, *args, _real=real_init, **kwargs):
                built.append(type(self).__name__)
                _real(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting_init)
        with RunStore(run.store_path) as store:
            _, text, _ = derive_figures(select_specs(None), store,
                                        length=SCALE["length"])
        assert built == []
        assert text == run.report_text
        # The counter does see objects when something builds them.
        suite, _ = load_suite(RunStore(run.store_path))
        assert suite["gzip"]["base"].metrics.generations
        assert "GenerationRecord" in built


class TestResumeAfterKill:
    def test_midrun_kill_then_resume_completes(self, tmp_path):
        out = str(tmp_path)
        calls = []

        def kill_third_cell(workload, config, attempt):
            calls.append((workload, config))
            if len(calls) == 3:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_paper(only=["fig02"], out_dir=out, fault_hook=kill_third_cell, **SCALE)

        with RunStore(str(tmp_path / "paper_store.jsonl")) as store:
            _, cells = store.load()
        done_before = len(cells)
        assert 0 < done_before < len(WORKLOADS) * 2

        resumed = run_paper(only=["fig02"], out_dir=out, resume=True, **SCALE)
        assert resumed.replayed == done_before
        assert resumed.executed == len(WORKLOADS) * 2 - done_before
        assert resumed.failures == 0

        warm = run_paper(only=["fig02"], out_dir=out, resume=True, **SCALE)
        assert warm.executed == 0
        assert warm.report_text == resumed.report_text
