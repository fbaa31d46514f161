"""The package reads each public name from its module on first use: importing
it, and the command-line modes that need only thresholds and witnesses, load
no numpy and no engine."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multiport

SRC = str(Path(multiport.__file__).parents[1])


def loaded_after(code: str) -> set[str]:
    """The numpy and multiport modules a fresh interpreter holds after running ``code``."""
    probe = code + (
        "\nimport json, sys"
        "\nprint(json.dumps([m for m in sys.modules if m.partition('.')[0] in ('numpy', 'multiport')]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def cli_run(tmp_path, config: dict) -> str:
    """Code that runs ``multiport.cli.main`` on ``config`` and requires exit 0."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return f"from multiport import cli\nassert cli.main(['--config', {str(path)!r}]) == 0"


def test_importing_the_package_loads_no_module():
    assert loaded_after("import multiport") == {"multiport"}


def test_the_cli_module_loads_only_the_thresholds():
    assert loaded_after("import multiport.cli") == {"multiport", "multiport.cli", "multiport.bounds", "multiport.errors"}


def test_thresholds_and_witnesses_run_without_numpy():
    code = (
        "import multiport as mp"
        "\nmp.classical_min(2, 3), mp.symmetric_quantum_min(4, 1.0), mp.divisibility_threshold(4, 1.0)"
        "\nassert mp.nonclassicality_witness(0.3, 2, 2, stderr=0.01).classification == 'nonclassical'"
        "\nmp.divisibility_witness(0.5, 4, 1.0)"
    )
    assert "numpy" not in loaded_after(code)


@pytest.mark.parametrize(
    "config",
    [
        {"mode": "bounds", "m_min": 2, "m_max": 6, "eta": 0.5},
        {"mode": "witness", "gbar": 0.3, "stderr": 0.01, "batches": 50, "n_sources": 2, "n_detectors": 2},
        {"mode": "witness", "witness_kind": "divisibility", "gbar": 0.5, "n_modes": 4, "eta": 1.0},
    ],
    ids=["bounds", "witness", "witness-divisibility"],
)
def test_certificate_modes_run_without_numpy(tmp_path, config):
    assert "numpy" not in loaded_after(cli_run(tmp_path, config))


def test_an_engine_mode_loads_only_what_it_uses(tmp_path):
    config = {
        "mode": "classical-analytic",
        "interferometer": {"ftm": 2},
        "sources": [{"kind": "fixed", "amplitude": 1}, {"kind": "pseudo-thermal", "mean_intensity": 1}],
    }
    loaded = loaded_after(cli_run(tmp_path, config))
    assert "multiport.classical_engine" in loaded
    assert not loaded & {"multiport.optimizer", "multiport.ingestion", "multiport.quantum_engine"}


def test_all_keeps_its_58_public_names():
    assert len(multiport.__all__) == len(set(multiport.__all__)) == 58
    assert set(multiport.__all__) == set(multiport._HOMES)


@pytest.mark.parametrize("name", multiport.__all__)
def test_each_public_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"multiport.{multiport._HOMES[name]}")
    assert getattr(multiport, name) is getattr(home, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from multiport import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(multiport.__all__)


def test_dir_lists_every_public_name():
    assert set(multiport.__all__) <= set(dir(multiport))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'multiport' has no attribute 'no_such_name'$"):
        multiport.no_such_name


def test_the_truncation_tolerance_is_shared_from_errors():
    from multiport import bounds, errors, sources

    assert sources.TAIL_TOL is errors.TAIL_TOL == bounds.BOUNDARY_MARGIN == 1e-10
