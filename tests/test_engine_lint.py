"""The REP6xx engine self-lint and the static lock-order analyzer.

Every rule gets a firing example *and* a quiet twin — the twin encodes
what absolves the pattern (an epoch bump, a ``finally`` release, a
snapshot) so the rules stay anchored to the invariant, not the syntax.
The real engine tree must be clean, which is itself part of the
acceptance bar for this subsystem.
"""

import json
import textwrap

from repro.analysis import (
    analyze_lock_order,
    cycles_in_wait_edges,
    find_cycles,
    lint_engine,
    lint_source,
    to_sarif,
    verify_engine_invariants,
)
from repro.cli import main


def lint(source, path="mod.py"):
    return lint_source(textwrap.dedent(source), path=path, rel=path)


def codes(findings):
    return sorted({d.code for d in findings})


def scan_lockorder(source, name="mod"):
    """Analyze one module's source as its own engine tree."""
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, f"{name}.py"), "w") as f:
            f.write(textwrap.dedent(source))
        return analyze_lock_order(tmp)


class TestRep601RawAttrsWrite:
    """REP601 targets calls of the raw cell setter ``_write_cell``."""

    def test_write_without_epoch_bump_fires(self):
        findings = lint(
            """
            class Store:
                def poke(self, obj, value):
                    obj._write_cell("Length", value)
            """
        )
        assert codes(findings) == ["REP601"]
        assert findings[0].severity == "warning"

    def test_epoch_bump_absolves(self):
        findings = lint(
            """
            class Store:
                def poke(self, obj, value):
                    obj._write_cell("Length", value)
                    obj._mutation_epoch += 1

                def restore(self, obj, value):
                    obj._write_cell("Width", value)
                    obj._restore_attribute("Length", value)
            """
        )
        assert findings == []

    def test_mutating_calls_fire(self):
        findings = lint(
            """
            def wipe(obj):
                obj._write_cell("Length", UNSET)

            def merge(obj, other):
                for name, value in other.items():
                    obj._write_cell(name, value)

            def nested(obj, value):
                obj._mutation_epoch += 1

                def later():
                    obj._write_cell("Length", value)
                return later
            """
        )
        assert [d.code for d in findings] == ["REP601", "REP601", "REP601"]

    def test_pragma_suppresses(self):
        findings = lint(
            """
            def fresh_copy(obj, value):
                obj._write_cell("Length", value)  # lint: allow(REP601)
            """
        )
        assert findings == []


class TestRep602EventOutsideBus:
    def test_bare_event_construction_fires(self):
        findings = lint(
            """
            def notify():
                return Event("attribute_updated", None)
            """
        )
        assert codes(findings) == ["REP602"]

    def test_events_module_is_the_authority(self):
        findings = lint(
            """
            def notify():
                return Event("attribute_updated", None)
            """,
            path="engine/events.py",
        )
        assert findings == []


class TestRep603ReleaseNotInFinally:
    def test_release_outside_finally_fires(self):
        findings = lint(
            """
            class Table:
                def work(self):
                    self._mutex.acquire()
                    self.step()
                    self._mutex.release()
            """
        )
        assert codes(findings) == ["REP603"]
        assert findings[0].severity == "error"

    def test_finally_release_is_quiet(self):
        findings = lint(
            """
            class Table:
                def work(self):
                    self._mutex.acquire()
                    try:
                        self.step()
                    finally:
                        self._mutex.release()
            """
        )
        assert findings == []

    def test_with_statement_is_quiet(self):
        findings = lint(
            """
            class Table:
                def work(self):
                    with self._mutex:
                        self.step()
            """
        )
        assert findings == []


class TestRep604UnsnapshottedIteration:
    def test_bare_iteration_over_shared_dict_fires(self):
        findings = lint(
            """
            class Table:
                def drain(self):
                    for txn, entry in self._locks.items():
                        self.visit(txn, entry)
            """
        )
        assert codes(findings) == ["REP604"]

    def test_snapshot_absolves(self):
        findings = lint(
            """
            class Table:
                def drain(self):
                    for txn, entry in list(self._locks.items()):
                        self.visit(txn, entry)
            """
        )
        assert findings == []

    def test_mutex_held_iteration_is_quiet(self):
        findings = lint(
            """
            class Table:
                def drain(self):
                    with self._mutex:
                        for txn in self._locks:
                            self.visit(txn)
            """
        )
        assert findings == []


class TestRealTree:
    def test_engine_is_clean(self):
        result = lint_engine()
        assert result.diagnostics == []
        assert result.files_scanned > 50
        # The legacy raw-write sites are pragma-annotated, not rewritten.
        assert result.suppressed >= 4

    def test_lockorder_engine_has_no_cycles(self):
        report = analyze_lock_order()
        assert report.cycles == []
        assert report.reentrant == []
        names = set(report.locks)
        assert any(name.endswith("LockTable._mutex") for name in names)
        assert any(name.endswith("RaceSanitizer._mutex") for name in names)


class TestLockOrder:
    ABBA = """
        import threading
        import time

        A = threading.Lock()
        B = threading.Lock()

        def forward():
            with A:
                with B:
                    pass

        def backward():
            with B:
                with A:
                    pass

        def sleepy():
            with A:
                time.sleep(1.0)

        def twice():
            with A:
                A.acquire()
    """

    def test_seeded_inversion_fires_all_codes(self):
        report = scan_lockorder(self.ABBA, name="bad")
        held = {(e.held, e.acquired) for e in report.edges}
        assert ("bad.A", "bad.B") in held
        assert ("bad.B", "bad.A") in held
        assert report.cycles == [("bad.A", "bad.B")]
        assert [b.call for b in report.blocking] == ["time.sleep"]
        assert [r.lock for r in report.reentrant] == ["bad.A"]
        assert codes(report.diagnostics()) == ["REP610", "REP611", "REP612"]

    def test_condition_aliases_its_lock(self):
        report = scan_lockorder(
            """
            import threading

            class Table:
                def __init__(self):
                    self._mutex = threading.Lock()
                    self._cond = threading.Condition(self._mutex)

                def wait_turn(self):
                    with self._mutex:
                        self._cond.wait()
            """
        )
        # Condition.wait releases the aliased mutex: not a blocking call
        # under a lock, and no self-edge.
        assert report.blocking == []
        assert report.reentrant == []
        assert report.edges == []
        decls = report.locks
        cond = next(d for d in decls.values() if d.kind == "condition")
        assert cond.aliases is not None and cond.aliases.endswith("._mutex")

    def test_find_cycles_canonicalises_rotation(self):
        graph = {1: {2}, 2: {3}, 3: {1}, 4: {1}}
        assert find_cycles(graph) == [(1, 2, 3)]

    def test_cycles_in_wait_edges_matches_runtime_shape(self):
        assert cycles_in_wait_edges({(1, 2), (2, 3), (3, 1), (4, 1)}) == [
            (1, 2, 3)
        ]
        assert cycles_in_wait_edges({(1, 2), (2, 3)}) == []


class TestSarifGolden:
    def test_rep6xx_rules_are_in_the_catalog(self):
        sarif = to_sarif([])
        rules = {r["id"]: r for r in sarif["runs"][0]["tool"]["driver"]["rules"]}
        for code in ("REP601", "REP602", "REP603", "REP604",
                     "REP610", "REP611", "REP612"):
            assert code in rules
        assert rules["REP603"]["defaultConfiguration"]["level"] == "error"
        assert rules["REP612"]["defaultConfiguration"]["level"] == "error"
        assert rules["REP601"]["defaultConfiguration"]["level"] == "warning"
        assert rules["REP601"]["name"] == "raw-cell-write-without-epoch"

    def test_engine_findings_serialise_with_locations(self):
        findings = lint(
            """
            def poke(obj, value):
                obj._write_cell("Length", value)
            """,
            path="src/repro/somewhere.py",
        )
        sarif = to_sarif(findings)
        result = sarif["runs"][0]["results"][0]
        assert result["ruleId"] == "REP601"
        assert result["level"] == "warning"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "src/repro/somewhere.py"
        assert location["region"]["startLine"] == 3


class TestCli:
    def test_engine_lint_clean_exits_zero(self, capsys):
        assert main(["lint", "--engine"]) == 0
        captured = capsys.readouterr()
        assert "0 errors" in captured.out
        assert "engine lint:" in captured.err

    def test_engine_lint_sarif_is_machine_readable(self, capsys):
        assert main(["lint", "--engine", "--format", "sarif"]) == 0
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["runs"][0]["results"] == []

    def test_engine_lint_fails_on_seeded_tree(self, tmp_path, capsys):
        bad = tmp_path / "engine"
        bad.mkdir()
        (bad / "mod.py").write_text(textwrap.dedent(
            """
            class Table:
                def work(self):
                    self._mutex.acquire()
                    self.step()
                    self._mutex.release()
            """
        ))
        assert main([
            "lint", "--engine", "--engine-root", str(bad),
        ]) == 2
        assert "REP603" in capsys.readouterr().out

    def test_engine_lint_fail_on_never(self, tmp_path):
        bad = tmp_path / "engine"
        bad.mkdir()
        (bad / "mod.py").write_text(
            "class T:\n"
            "    def w(self):\n"
            "        self._mutex.acquire()\n"
            "        self.step()\n"
            "        self._mutex.release()\n"
        )
        assert main([
            "lint", "--engine", "--engine-root", str(bad),
            "--fail-on", "never",
        ]) == 0

    def test_lint_without_schema_or_engine_errors(self, capsys):
        assert main(["lint"]) == 1
        assert "needs a schema file" in capsys.readouterr().err

    def test_engine_verify_exits_zero(self, capsys):
        assert main(["lint", "--engine", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "engine concurrency verification: ok" in out

    def test_race_wrapper_clean_command(self, capsys):
        assert main(["race", "--", "paper", "gate"]) == 0
        captured = capsys.readouterr()
        assert "race sanitizer:" in captured.err
        assert "0 candidate race(s)" in captured.err

    def test_race_wrapper_refuses_recursion(self, capsys):
        assert main(["race", "--", "race", "--", "paper", "gate"]) == 1
        assert "refusing" in capsys.readouterr().err


class TestVerifyHarness:
    def test_differential_harness_passes(self):
        report = verify_engine_invariants()
        assert report.ok
        assert len(report.checks) == 6
        assert "ok (6 checks)" in report.render()
