"""Validated ``REPRO_*`` environment parsing.

Three helpers back every knob: :func:`repro.env.env_int` for the integer
variables (``REPRO_WORKERS``, ``REPRO_SHARD_SIZE``,
``REPRO_SYNDROME_CACHE``), :func:`repro.env.env_choice` for the enumerated
``REPRO_BACKEND`` and :func:`repro.env.env_hosts` for the ``REPRO_HOSTS``
worker list — so garbage and out-of-range values fail fast with the
variable's name in the message instead of a bare traceback (or, as
``REPRO_SYNDROME_CACHE`` once did, a silently accepted negative limit).
"""

import ast
import re
from pathlib import Path

import pytest

from repro.decoder.base import syndrome_cache_limit
from repro.engine.executor import EngineConfig
from repro.env import env_choice, env_float, env_hosts, env_int, env_str
from repro.service.config import (
    service_aging_rate,
    service_db_path,
    service_host_port,
    service_lease_seconds,
    service_poll_seconds,
    service_url,
)


class TestEnvInt:
    def test_missing_and_empty_yield_default(self):
        assert env_int("REPRO_X", 7, env={}) == 7
        assert env_int("REPRO_X", 7, env={"REPRO_X": ""}) == 7
        assert env_int("REPRO_X", 7, env={"REPRO_X": "   "}) == 7

    def test_parses_with_whitespace(self):
        assert env_int("REPRO_X", 7, env={"REPRO_X": " 42 "}) == 42

    @pytest.mark.parametrize("raw", ["abc", "1.5", "0x10", "1e3", "--2"])
    def test_garbage_raises_with_variable_name(self, raw):
        with pytest.raises(ValueError, match="REPRO_X"):
            env_int("REPRO_X", 7, env={"REPRO_X": raw})

    def test_minimum_enforced(self):
        with pytest.raises(ValueError, match="REPRO_X must be >= 1"):
            env_int("REPRO_X", 7, minimum=1, env={"REPRO_X": "0"})
        with pytest.raises(ValueError, match="REPRO_X must be >= 0"):
            env_int("REPRO_X", 7, minimum=0, env={"REPRO_X": "-3"})
        assert env_int("REPRO_X", 7, minimum=0, env={"REPRO_X": "0"}) == 0

    def test_no_minimum_allows_negatives(self):
        assert env_int("REPRO_X", 7, env={"REPRO_X": "-3"}) == -3


class TestSyndromeCacheLimit:
    def test_default_and_zero(self):
        assert syndrome_cache_limit(env={}) == 1 << 16
        assert syndrome_cache_limit(env={"REPRO_SYNDROME_CACHE": "0"}) == 0
        assert syndrome_cache_limit(env={"REPRO_SYNDROME_CACHE": "128"}) == 128

    def test_negative_rejected(self):
        # Historically accepted silently and disabled admission forever.
        with pytest.raises(ValueError, match="REPRO_SYNDROME_CACHE"):
            syndrome_cache_limit(env={"REPRO_SYNDROME_CACHE": "-1"})

    def test_garbage_rejected_with_name(self):
        with pytest.raises(ValueError, match="REPRO_SYNDROME_CACHE"):
            syndrome_cache_limit(env={"REPRO_SYNDROME_CACHE": "lots"})


class TestEnvChoice:
    CHOICES = ("serial", "process", "socket")

    def test_missing_and_empty_yield_default(self):
        assert env_choice("REPRO_B", "process", self.CHOICES, env={}) == "process"
        assert env_choice("REPRO_B", "process", self.CHOICES,
                          env={"REPRO_B": "  "}) == "process"

    def test_case_and_whitespace_normalised(self):
        assert env_choice("REPRO_B", "process", self.CHOICES,
                          env={"REPRO_B": " Socket "}) == "socket"

    def test_invalid_names_variable_and_choices(self):
        with pytest.raises(ValueError, match="REPRO_B.*serial, process, socket"):
            env_choice("REPRO_B", "process", self.CHOICES,
                       env={"REPRO_B": "mainframe"})


class TestEnvHosts:
    def test_missing_and_empty_yield_no_hosts(self):
        assert env_hosts("REPRO_H", env={}) == ()
        assert env_hosts("REPRO_H", env={"REPRO_H": "  "}) == ()

    def test_parses_list_with_whitespace_and_duplicates(self):
        got = env_hosts("REPRO_H",
                        env={"REPRO_H": "a:1, b:2 ,a:1"})
        assert got == (("a", 1), ("b", 2), ("a", 1))  # dup = extra slot

    @pytest.mark.parametrize("raw", ["justahost", "h:", ":7931", "h:abc",
                                     "h:0", "h:70000", "a:1,,b:2"])
    def test_malformed_entries_rejected_with_name(self, raw):
        with pytest.raises(ValueError, match="REPRO_H"):
            env_hosts("REPRO_H", env={"REPRO_H": raw})

    def test_errors_name_the_offending_value(self):
        # Audit parity with env_int: the message carries variable name AND
        # the rejected text, so a typo'd fleet entry is findable from the
        # traceback alone.
        with pytest.raises(ValueError, match=r"'abc'"):
            env_hosts("REPRO_H", env={"REPRO_H": "h:abc"})
        with pytest.raises(ValueError, match=r"70000"):
            env_hosts("REPRO_H", env={"REPRO_H": "h:70000"})


class TestEnvStr:
    def test_missing_and_empty_yield_default(self):
        assert env_str("REPRO_CACHE", env={}) is None
        assert env_str("REPRO_CACHE", ".cache", env={}) == ".cache"
        assert env_str("REPRO_CACHE", ".cache",
                       env={"REPRO_CACHE": "   "}) == ".cache"

    def test_value_is_stripped(self):
        # A trailing space must not silently name a different directory.
        assert env_str("REPRO_CACHE",
                       env={"REPRO_CACHE": " /tmp/c "}) == "/tmp/c"


class TestEngineConfigFromEnv:
    def test_defaults(self):
        assert EngineConfig.from_env({}) == EngineConfig()

    def test_valid_values(self):
        cfg = EngineConfig.from_env({"REPRO_WORKERS": "3",
                                     "REPRO_SHARD_SIZE": "99",
                                     "REPRO_CACHE": "/tmp/x"})
        assert cfg == EngineConfig(max_workers=3, shard_size=99,
                                   cache_dir="/tmp/x")

    @pytest.mark.parametrize("var", ["REPRO_WORKERS", "REPRO_SHARD_SIZE"])
    @pytest.mark.parametrize("raw", ["0", "-2", "four"])
    def test_invalid_rejected_with_name(self, var, raw):
        with pytest.raises(ValueError, match=var):
            EngineConfig.from_env({var: raw})


class TestEnvFloat:
    def test_missing_and_empty_yield_default(self):
        assert env_float("REPRO_X", 1.5, env={}) == 1.5
        assert env_float("REPRO_X", 1.5, env={"REPRO_X": " "}) == 1.5

    def test_parses_int_and_float_forms(self):
        assert env_float("REPRO_X", 1.5, env={"REPRO_X": "2"}) == 2.0
        assert env_float("REPRO_X", 1.5, env={"REPRO_X": " 0.25 "}) == 0.25
        assert env_float("REPRO_X", 1.5, env={"REPRO_X": "1e-3"}) == 1e-3

    @pytest.mark.parametrize("raw", ["abc", "nan", "inf", "-inf", "1..2"])
    def test_garbage_and_non_finite_rejected(self, raw):
        with pytest.raises(ValueError, match="REPRO_X"):
            env_float("REPRO_X", 1.5, env={"REPRO_X": raw})

    def test_minimum_enforced(self):
        with pytest.raises(ValueError, match="REPRO_X"):
            env_float("REPRO_X", 1.5, minimum=0.0, env={"REPRO_X": "-0.1"})
        assert env_float("REPRO_X", 1.5, minimum=0.0,
                         env={"REPRO_X": "0"}) == 0.0


class TestServiceKnobs:
    def test_defaults(self):
        assert service_db_path({}) == ".repro-service.db"
        assert service_lease_seconds({}) == 60.0
        assert service_host_port({}) == ("127.0.0.1", 7940)
        assert service_poll_seconds({}) == 0.5
        assert service_aging_rate({}) == 0.05
        assert service_url({}) == "http://127.0.0.1:7940"

    def test_overrides(self):
        env = {"REPRO_SERVICE_DB": "/tmp/jobs.db",
               "REPRO_SERVICE_LEASE": "5",
               "REPRO_SERVICE_HOST": "0.0.0.0",
               "REPRO_SERVICE_PORT": "0",
               "REPRO_SERVICE_POLL": "0.05",
               "REPRO_SERVICE_AGING": "0",
               "REPRO_SERVICE_URL": "http://svc:1234/"}
        assert service_db_path(env) == "/tmp/jobs.db"
        assert service_lease_seconds(env) == 5.0
        assert service_host_port(env) == ("0.0.0.0", 0)
        assert service_poll_seconds(env) == 0.05
        assert service_aging_rate(env) == 0.0
        assert service_url(env) == "http://svc:1234"

    @pytest.mark.parametrize("var, raw", [
        ("REPRO_SERVICE_LEASE", "0"),
        ("REPRO_SERVICE_LEASE", "-1"),
        ("REPRO_SERVICE_POLL", "0"),
        ("REPRO_SERVICE_PORT", "70000"),
        ("REPRO_SERVICE_PORT", "-1"),
        ("REPRO_SERVICE_AGING", "-0.5"),
    ])
    def test_out_of_range_rejected_with_name(self, var, raw):
        with pytest.raises(ValueError, match=var):
            {"REPRO_SERVICE_LEASE": service_lease_seconds,
             "REPRO_SERVICE_POLL": service_poll_seconds,
             "REPRO_SERVICE_PORT": service_host_port,
             "REPRO_SERVICE_AGING": service_aging_rate}[var]({var: raw})


class TestEnvDocs:
    """Every ``REPRO_*`` variable ``src/`` reads through :mod:`repro.env`
    has a row in a README knob table, and every row names a variable
    ``src/`` still reads."""

    ROOT = Path(__file__).resolve().parent.parent
    READERS = {"env_str", "env_int", "env_float", "env_choice", "env_hosts"}

    def _read_in_src(self):
        names = set()
        for path in sorted((self.ROOT / "src").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else \
                    getattr(func, "id", None)
                arg = node.args[0]
                if (name in self.READERS and isinstance(arg, ast.Constant)
                        and str(arg.value).startswith("REPRO_")):
                    names.add(arg.value)
        return names

    def _documented(self):
        readme = (self.ROOT / "README.md").read_text(encoding="utf-8")
        return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", readme,
                              flags=re.MULTILINE))

    def test_every_read_variable_has_a_readme_row(self):
        read = self._read_in_src()
        assert "REPRO_WORKERS" in read  # the scan is not vacuous
        assert read - self._documented() == set()

    def test_every_readme_row_is_read_in_src(self):
        assert self._documented() - self._read_in_src() == set()
