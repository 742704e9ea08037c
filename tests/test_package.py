"""The package surface: what a command imports, the lazy exports, and the
frozen-record contract of the result types."""

import copy
import dataclasses
import importlib.util
import inspect
import json
import os
import pickle
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import cutpoly
from cutpoly.ehrhart import CountSequence
from cutpoly.graph import CutConfiguration, cycle
from cutpoly.grobner import CutBinomial, PartitionMonomial
from cutpoly.lattice import LatticeBasis

SRC = Path(__file__).resolve().parents[1] / "src"
BENCH_JOB = Path(__file__).resolve().parents[1] / "bench" / "job.py"

# run in a fresh interpreter: which modules do the parser and one command add?
STARTUP_PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import cutpoly.cli
cutpoly.cli.build_parser()
parser = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()):
    code = cutpoly.cli.main(["closed-form", "5"])
closed_form = sorted(set(sys.modules) - before)
with contextlib.redirect_stdout(io.StringIO()):
    gb_code = cutpoly.cli.main(["gb", "5", "fvector"])
gb_fvector = sorted(set(sys.modules) - before)
# the package still reaches a submodule that nothing has imported
lattice_attribute = cutpoly.lattice.lattice_basis is cutpoly.lattice_basis
print(json.dumps({"parser": parser, "closed_form": closed_form, "code": code,
                  "gb_fvector": gb_fvector, "gb_code": gb_code,
                  "lattice_attribute": lattice_attribute}))
"""

ROUTE_MODULES = ("cutpoly.ehrhart", "cutpoly.grobner", "cutpoly.lattice")


class TestStartup:
    def test_parser_and_closed_form_leave_routes_unloaded(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        # -S keeps site-packages hooks from importing modules before the snapshot
        run = subprocess.run([sys.executable, "-S", "-c", STARTUP_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        added = json.loads(run.stdout)
        assert "cutpoly.cli" in added["parser"]
        for name in (*ROUTE_MODULES, "cutpoly.graph", "cutpoly.polynomial", "dataclasses"):
            assert name not in added["parser"], name
        assert added["code"] == 0
        assert "cutpoly.polynomial" in added["closed_form"]
        for name in (*ROUTE_MODULES, "cutpoly.graph"):
            assert name not in added["closed_form"], name
        assert added["gb_code"] == 0
        assert "cutpoly.grobner" in added["gb_fvector"]
        for name in ("cutpoly.ehrhart", "cutpoly.graph", "cutpoly.lattice"):
            assert name not in added["gb_fvector"], name
        assert added["lattice_attribute"]


class TestLazyExports:
    def test_every_export_is_its_module_attribute(self):
        assert len(cutpoly.__all__) == len(set(cutpoly.__all__))
        for name in cutpoly.__all__:
            value = getattr(cutpoly, name)
            assert getattr(sys.modules[value.__module__], name) is value, name

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from cutpoly import *", namespace)
        for name in cutpoly.__all__:
            assert namespace[name] is getattr(cutpoly, name), name

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            cutpoly.no_such_name


class TestBenchJobNames:
    def test_every_traced_name_resolves(self):
        # every bench job imports MODULES, and a traced one wraps each LAYERS
        # function and LatticeBasis.contains, so a moved name fails them all
        spec = importlib.util.spec_from_file_location("bench_job", BENCH_JOB)
        job = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(job)
        modules = {name: importlib.import_module(f"cutpoly.{name}") for name in job.MODULES}
        for span, (module, attr) in job.LAYERS.items():
            assert callable(getattr(modules[module], attr, None)), span
        assert callable(modules["lattice"].LatticeBasis.contains)


class TestAnnotations:
    def test_every_annotation_resolves(self):
        # the modules postpone annotations, so a name none of them imports
        # fails only when the hints are read: every function, method and
        # property defined in cutpoly.* must resolve
        unresolved = []
        for info in [None, *pkgutil.iter_modules(cutpoly.__path__)]:
            module = importlib.import_module(f"cutpoly.{info.name}" if info else "cutpoly")
            for value in list(vars(module).values()):
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                for member in vars(value).values() if inspect.isclass(value) else [value]:
                    member = getattr(member, "__func__", getattr(member, "fget", member))
                    if inspect.isfunction(inspect.unwrap(member)):
                        try:
                            typing.get_type_hints(member)
                        except NameError as exc:
                            unresolved.append(f"{module.__name__}.{member.__qualname__}: {exc}")
        assert unresolved == []


RECORDS = [
    (CountSequence, {"dimension": 1, "counts": (1, 2, 3)}),
    (CutConfiguration, {"columns": ((0, 1), (1, 1)), "graph": cycle(3)}),
    (LatticeBasis, {"basis_columns": ((1, 0), (0, 2)), "pivot_rows": (0, 1)}),
    (CutBinomial, {"family": 1, "lead": PartitionMonomial(5, (2, 7)),
                   "trail": PartitionMonomial(5, (1, 8))}),
]


class TestRecords:
    @pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
    def test_frozen_dataclass_contract(self, cls, fields):
        record = cls(**fields)
        assert record == cls(*fields.values())
        assert hash(record) == hash(cls(**fields))
        assert record != tuple(fields.values())
        shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
        assert repr(record) == f"{cls.__name__}({shown})"
        assert not hasattr(record, "__dict__")
        assert pickle.loads(pickle.dumps(record)) == record == copy.deepcopy(record)
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.extra = 1
        with pytest.raises(TypeError):
            cls(**fields, extra=1)
        with pytest.raises(TypeError):
            cls(*list(fields.values())[1:])
        with pytest.raises(TypeError):
            cls(*list(fields.values())[1:], extra=1)

    def test_unequal_fields(self):
        cs = CountSequence(dimension=1, counts=(1, 2, 3))
        assert cs != CountSequence(dimension=1, counts=(1, 2, 4))
        assert len({cs, CountSequence(dimension=1, counts=[1, 2, 3])}) == 1

    def test_count_sequence_rejects_non_integers(self):
        for counts in ((1, 2.0, 3), (1, True, 3), (1, "2", 3)):
            with pytest.raises(ValueError, match="must be integers"):
                CountSequence(dimension=1, counts=counts)
        with pytest.raises(ValueError, match="must be integers"):
            CountSequence(dimension=1.0, counts=(1, 2, 3))
