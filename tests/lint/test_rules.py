"""Unit tests for each replint rule against synthetic violation trees.

Each test writes a minimal fake package layout into ``tmp_path`` that
reproduces one contract violation, runs the single rule over it, and
asserts the finding (and that the equivalent compliant code is clean).
The R1 and R2 classes test what replaced those two rules: errors at
class definition, instantiation or registration, not findings.
"""

import textwrap

import pytest

from repro.lint import run_lint

pytestmark = pytest.mark.lint


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def lint(tmp_path, rule):
    return run_lint([str(tmp_path)], rules=[rule])


def _subclasses(root):
    """Every class below ``root`` that the product (not a test) defines
    at module level."""
    found, stack = [], [root]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("repro.") and "<locals>" not in cls.__qualname__:
                found.append(cls)
    return found


class TestR1Operators:
    """R1 is not a lint rule any more: ``Operator.__init_subclass__``
    holds its protocol clauses when a class is defined, wherever it is
    defined, and its export clause is one walk over the subclasses."""

    def test_incomplete_operator_flagged(self):
        from repro.execution.operators import Operator

        with pytest.raises(TypeError, match="_produce"):
            class NoProduce(Operator):
                op_name = "NoProduce"

        with pytest.raises(TypeError, match="op_name"):
            class NoName(Operator):
                def _produce(self):
                    yield from ()

    def test_complete_exported_operator_clean(self):
        import repro.execution.operators as operators

        concrete = [
            cls for cls in _subclasses(operators.Operator)
            if not cls.__name__.startswith("_")
        ]
        assert len(concrete) >= 19
        for cls in concrete:
            assert cls.__name__ in operators.__all__, cls
            assert getattr(operators, cls.__name__) is cls

    def test_protocol_inherited_through_intermediate(self):
        from repro.execution.operators import Operator

        class Base(Operator):
            op_name = "Base"

            def _produce(self):
                yield from ()

        class Derived(Base):
            pass

        assert list(Derived().blocks()) == [] and Derived().label() == "Base"

    def test_private_helper_exempt(self):
        # a private, function-local operator (union._PipelineSource is
        # the product's one) is exempt from the export clause only: the
        # lint rule skipped it altogether, the class definition does not.
        from repro.execution.operators import Operator

        def pipeline_source():
            class _PipelineSource(Operator):
                def _produce(self):
                    yield from ()

            return _PipelineSource()

        with pytest.raises(TypeError, match="op_name"):
            pipeline_source()


class TestR2Encodings:
    """R2 is not a lint rule any more: ``Encoding`` is an ABC, so an
    incomplete codec cannot be instantiated, ``register()`` refuses a
    nameless one, and registry completeness is one walk."""

    def test_incomplete_encoding_flagged(self):
        from repro.errors import EncodingError
        from repro.storage.encodings import ENCODINGS, Encoding, register

        class NoDecode(Encoding):
            name = "NO_DECODE"

            def encode(self, values):
                return b""

        with pytest.raises(TypeError, match="decode"):
            NoDecode()

        class Nameless(NoDecode):
            name = ""

            def decode(self, data, count):
                return []

        with pytest.raises(EncodingError, match="no name"):
            register(Nameless())
        assert "" not in ENCODINGS

    def test_registered_complete_encoding_clean(self):
        import inspect

        from repro.storage.encodings import ENCODINGS, Encoding

        concrete = [
            cls for cls in _subclasses(Encoding) if not inspect.isabstract(cls)
        ]
        assert len(concrete) >= 8
        registered = {type(encoding) for encoding in ENCODINGS.values()}
        for cls in concrete:
            assert cls in registered, cls
        for name, encoding in ENCODINGS.items():
            assert name and encoding.name == name

    def test_abstract_intermediate_exempt(self):
        import inspect
        from abc import abstractmethod

        from repro.storage.encodings import Encoding

        class IntegerEncoding(Encoding):
            @abstractmethod
            def encode_ints(self, values):
                ...

        assert inspect.isabstract(IntegerEncoding)
        with pytest.raises(TypeError):
            IntegerEncoding()


class TestR4QueryPathMutation:
    def test_mutation_from_execution_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/execution/evil.py",
            """
            class EvilOperator:
                def run(self, node):
                    node.storage.remove_containers("p", [1])
            """,
        )
        findings = lint(tmp_path, "R4")
        assert len(findings) == 1
        assert "storage.remove_containers" in findings[0].message

    def test_catalog_mutation_from_sql_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/sql/evil.py",
            """
            def sneaky(db):
                db.catalog.drop_table("t")
            """,
        )
        findings = lint(tmp_path, "R4")
        assert len(findings) == 1
        assert "catalog.drop_table" in findings[0].message

    def test_reads_and_non_storage_receivers_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/execution/fine.py",
            """
            def scan(node, rows):
                rows.insert(0, {"k": 1})          # list, not storage
                return list(node.storage.scan("p", epoch=3))
            """,
        )
        assert lint(tmp_path, "R4") == []

    def test_mutation_from_storage_layer_allowed(self, tmp_path):
        write(
            tmp_path,
            "repro/tuple_mover/fine.py",
            """
            def moveout(manager):
                manager.add_container_from_rows("p", [], [])
            """,
        )
        assert lint(tmp_path, "R4") == []

    def test_every_listed_mutator_exists(self):
        from repro.cluster import Cluster
        from repro.core.catalog import Catalog
        from repro.lint.rules.mutation import MUTATOR_METHODS
        from repro.storage import StorageManager

        owners = (StorageManager, Catalog, Cluster)
        missing = {m for m in MUTATOR_METHODS if not any(hasattr(o, m) for o in owners)}
        assert not missing, f"MUTATOR_METHODS names no method: {sorted(missing)}"


class TestR5Hygiene:
    def test_mutable_default_flagged(self, tmp_path):
        write(tmp_path, "repro/core/util.py", "def f(x=[]):\n    return x\n")
        findings = lint(tmp_path, "R5")
        assert len(findings) == 1
        assert "mutable default" in findings[0].message

    def test_bare_except_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/core/util.py",
            """
            def f():
                try:
                    return 1
                except:
                    return 2
            """,
        )
        findings = lint(tmp_path, "R5")
        assert len(findings) == 1
        assert "bare `except:`" in findings[0].message

    def test_float_equality_in_cost_model_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/optimizer/cost_extra.py",
            """
            def same_cost(a):
                return a == 1.5
            """,
        )
        findings = lint(tmp_path, "R5")
        assert len(findings) == 1
        assert "float equality" in findings[0].message

    def test_float_equality_outside_optimizer_allowed(self, tmp_path):
        write(
            tmp_path,
            "repro/storage/whatever.py",
            "def same(a):\n    return a == 1.5\n",
        )
        assert lint(tmp_path, "R5") == []

    def test_float_inequality_comparisons_allowed(self, tmp_path):
        write(
            tmp_path,
            "repro/optimizer/cost_extra.py",
            "def cheap(a):\n    return a < 1.5\n",
        )
        assert lint(tmp_path, "R5") == []


class TestR6PublicApi:
    def test_missing_docstring_and_annotations_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/sdk.py",
            """
            def register_thing(name, fn):
                pass
            """,
        )
        messages = [f.message for f in lint(tmp_path, "R6")]
        assert any("no docstring" in m for m in messages)
        assert any("missing type annotations" in m for m in messages)
        assert any("no return annotation" in m for m in messages)

    def test_private_and_other_modules_exempt(self, tmp_path):
        write(tmp_path, "repro/sdk.py", "def _internal(x):\n    pass\n")
        write(tmp_path, "repro/other.py", "def undocumented(x):\n    pass\n")
        assert lint(tmp_path, "R6") == []

    def test_fully_typed_documented_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/sdk.py",
            '''
            def register_thing(name: str) -> None:
                """Register a thing."""
            ''',
        )
        assert lint(tmp_path, "R6") == []


class TestR7AtomicIO:
    def test_raw_write_open_in_storage_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/storage/bad.py",
            """
            def save(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """,
        )
        messages = [f.message for f in lint(tmp_path, "R7")]
        assert len(messages) == 1
        assert "atomic commit" in messages[0]
        assert "fsio" in messages[0]

    def test_all_write_modes_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/tuple_mover/bad.py",
            """
            def touch(path, mode):
                open(path, "a").close()
                open(path, "x").close()
                open(path, "r+b").close()
                open(path, mode=mode).close()
            """,
        )
        assert len(lint(tmp_path, "R7")) == 4

    def test_raw_write_open_in_dc_flagged(self, tmp_path):
        # the Data Collector's segments are durable state too
        write(
            tmp_path,
            "repro/dc/bad.py",
            """
            def save_segment(path, data):
                with open(path, "wb") as handle:
                    handle.write(data)
            """,
        )
        assert len(lint(tmp_path, "R7")) == 1

    def test_reads_and_other_packages_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/storage/reader.py",
            """
            def load(path):
                with open(path) as handle:
                    return handle.read()

            def load_binary(path):
                with open(path, "rb") as handle:
                    return handle.read()
            """,
        )
        write(
            tmp_path,
            "repro/cluster/elsewhere.py",
            """
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """,
        )
        assert lint(tmp_path, "R7") == []

    def test_sanctioned_fsio_site_suppressed(self, tmp_path):
        write(
            tmp_path,
            "repro/storage/fsio.py",
            """
            def write_bytes(path, data):
                with open(path, "wb") as handle:  # replint: disable=R7
                    handle.write(data)
            """,
        )
        assert lint(tmp_path, "R7") == []

    def test_test_code_exempt(self, tmp_path):
        write(
            tmp_path,
            "tests/storage/test_thing.py",
            """
            def test_corrupt(path):
                with open(path, "wb") as handle:
                    handle.write(b"x")
            """,
        )
        assert lint(tmp_path, "R7") == []


class TestR8WallClock:
    def test_wallclock_reads_in_cluster_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/cluster/bad.py",
            """
            import time
            from datetime import datetime

            def detect(nodes):
                deadline = time.time() + 5
                time.sleep(0.1)
                stamp = datetime.now()
                return deadline, stamp
            """,
        )
        messages = [f.message for f in lint(tmp_path, "R8")]
        assert len(messages) == 3
        assert all("SimulatedClock" in m for m in messages)

    def test_bare_imported_sleep_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/faults/bad.py",
            """
            from time import sleep

            def backoff():
                sleep(1)
            """,
        )
        findings = lint(tmp_path, "R8")
        assert len(findings) == 1
        assert "time.sleep()" in findings[0].message

    def test_timezone_aware_now_and_perf_counter_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/tuple_mover/fine.py",
            """
            import time
            from datetime import datetime, timezone

            def measure():
                start = time.perf_counter()
                stamp = datetime.now(timezone.utc)
                return time.perf_counter() - start, stamp
            """,
        )
        assert lint(tmp_path, "R8") == []

    def test_other_packages_and_test_code_exempt(self, tmp_path):
        write(
            tmp_path,
            "repro/monitor/fine.py",
            "import time\n\ndef stamp():\n    return time.time()\n",
        )
        write(
            tmp_path,
            "tests/cluster/test_thing.py",
            "import time\n\ndef test_x():\n    time.sleep(0)\n",
        )
        assert lint(tmp_path, "R8") == []


class TestR11GovernedService:
    def test_direct_sql_in_service_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/service/shortcut.py",
            """
            def sneak(db, text):
                return db.sql(text)
            """,
        )
        messages = [f.message for f in lint(tmp_path, "R11")]
        assert len(messages) == 1
        assert "admission control" in messages[0]

    def test_bare_execute_sql_in_service_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/service/shortcut.py",
            """
            from repro.sql import execute_sql

            def sneak(core, text):
                return execute_sql(core, text)
            """,
        )
        assert len(lint(tmp_path, "R11")) == 1

    def test_run_governed_site_sanctioned(self, tmp_path):
        write(
            tmp_path,
            "repro/service/session.py",
            """
            from repro.sql import execute_sql

            class ServiceSession:
                def _run_governed(self, text):
                    return execute_sql(self._core, text)
            """,
        )
        assert lint(tmp_path, "R11") == []

    def test_execute_sql_outside_service_not_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/core/database.py",
            """
            from repro.sql import execute_sql

            class Database:
                def sql(self, text):
                    return execute_sql(self.session(), text)
            """,
        )
        assert lint(tmp_path, "R11") == []


class TestR13DcRouting:
    def test_print_in_service_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/service/chatty.py",
            """
            def admit(ticket):
                print(f"admitted {ticket}")
            """,
        )
        messages = [f.message for f in lint(tmp_path, "R13")]
        assert len(messages) == 1
        assert "DataCollector.record()" in messages[0]

    def test_logging_in_cluster_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/cluster/noisy.py",
            """
            import logging

            log = logging.getLogger(__name__)

            def eject(node):
                logging.warning("ejecting %s", node)
            """,
        )
        assert len(lint(tmp_path, "R13")) == 2

    def test_stderr_write_in_tuple_mover_flagged(self, tmp_path):
        write(
            tmp_path,
            "repro/tuple_mover/loud.py",
            """
            import sys

            def moveout():
                sys.stderr.write("moving out\\n")
            """,
        )
        assert len(lint(tmp_path, "R13")) == 1

    def test_collector_and_metrics_clean(self, tmp_path):
        write(
            tmp_path,
            "repro/cluster/quiet.py",
            """
            from ..monitor import METRICS

            def eject(collector, node):
                collector.record("node_events", "ejection", node_index=node)
                METRICS.inc("cluster.ejections")
            """,
        )
        assert lint(tmp_path, "R13") == []

    def test_other_packages_and_tests_exempt(self, tmp_path):
        write(
            tmp_path,
            "repro/console/fine.py",
            "def show(text):\n    print(text)\n",
        )
        write(
            tmp_path,
            "tests/service/test_thing.py",
            "def test_x():\n    print('debug')\n",
        )
        assert lint(tmp_path, "R13") == []


class TestSuppression:
    def test_line_suppression_silences_rule(self, tmp_path):
        write(
            tmp_path,
            "repro/core/util.py",
            "def f(x=[]):  # replint: disable=R5\n    return x\n",
        )
        assert lint(tmp_path, "R5") == []

    def test_suppression_is_rule_specific(self, tmp_path):
        write(
            tmp_path,
            "repro/core/util.py",
            "def f(x=[]):  # replint: disable=R1\n    return x\n",
        )
        assert len(lint(tmp_path, "R5")) == 1

    def test_blanket_suppression(self, tmp_path):
        write(
            tmp_path,
            "repro/core/util.py",
            "def f(x=[]):  # replint: disable\n    return x\n",
        )
        assert lint(tmp_path, "R5") == []
