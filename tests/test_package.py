"""Package import tests: public names resolve lazily, and only the command
sets the BLAS thread default."""

import os
import subprocess
import sys

import pytest

import cogclust


def run_python(code: str, **env) -> str:
    """Run ``code`` in a fresh interpreter, OPENBLAS_NUM_THREADS unset unless given."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**environ, **env})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_leaves_numpy_out():
    assert run_python("import sys, cogclust; print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_the_command_asks_for_one_blas_thread_unless_set(preset, expected):
    env = {} if preset is None else {"OPENBLAS_NUM_THREADS": preset}
    code = "import os, cogclust.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python(code, **env) == expected + "\n"


def test_a_library_import_leaves_the_environment_alone():
    code = ("import os, cogclust, cogclust.cli, cogclust.pipeline; "
            "cogclust.cluster_wordlist; print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert run_python(code) == "None\n"


def test_every_public_name_resolves():
    from cogclust.align import Scorer

    assert sorted(cogclust.__all__) == sorted(cogclust._MODULE_OF)
    for name in cogclust.__all__:
        getattr(cogclust, name)
        assert name in dir(cogclust)
    namespace = {}
    exec("from cogclust import *", namespace)
    assert set(cogclust.__all__) <= set(namespace)
    assert namespace["Scorer"] is Scorer


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cogclust.no_such_name
    with pytest.raises(ImportError):
        from cogclust import no_such_name  # noqa: F401
