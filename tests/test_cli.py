"""Tests for the ``semimarkov`` command-line interface."""
from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.models import SCALED_CONFIGURATIONS, voting_spec_text

PARAMS = SCALED_CONFIGURATIONS["tiny"]


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "voting.dnamaca"
    path.write_text(voting_spec_text(PARAMS))
    return str(path)


ON_OFF = r"""
\constant{K}{2}
\model{
  \place{on}{K}
  \place{off}{0}
  \transition{fail}{
    \condition{on > 0}
    \action{ next->on = on - 1; next->off = off + 1; }
    \weight{1.0}
    \priority{1}
    \sojourntimeLT{ return erlangLT(2.0, 2, s); }
  }
  \transition{repair}{
    \condition{off > 0}
    \action{ next->on = on + 1; next->off = off - 1; }
    \weight{2.0}
    \priority{1}
    \sojourntimeLT{ return uniformLT(0.5, 1.5, s); }
  }
}
"""


@pytest.fixture
def onoff_file(tmp_path):
    path = tmp_path / "onoff.dnamaca"
    path.write_text(ON_OFF)
    return str(path)


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ("info", "passage", "transient", "simulate"):
            args = parser.parse_args(
                [command, "model.dnamaca"]
                + (
                    ["--source", "on > 0", "--target", "off > 0", "--t-points", "1"]
                    if command in ("passage", "transient")
                    else (["--target", "off > 0"] if command == "simulate" else [])
                )
            )
            assert args.command == command

    def test_missing_required_arguments(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["passage", "model.dnamaca"])


class TestInfo:
    def test_info_output(self, onoff_file, capsys):
        assert main(["info", onoff_file]) == 0
        out = capsys.readouterr().out
        assert "reachable states: 3" in out
        assert "fail" in out and "repair" in out

    def test_constant_override(self, onoff_file, capsys):
        assert main(["info", onoff_file, "--set", "K=4"]) == 0
        assert "reachable states: 5" in capsys.readouterr().out

    def test_bad_override_format(self, onoff_file):
        with pytest.raises(SystemExit):
            main(["info", onoff_file, "--set", "K:4"])


class TestPassage:
    def test_density_and_cdf(self, onoff_file, capsys):
        code = main([
            "passage", onoff_file,
            "--source", "on == 2", "--target", "off == 2",
            "--t-points", "1", "2", "4", "8",
            "--cdf", "--json",
        ])
        assert code == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out)
        assert len(rows) == 4
        times, densities, cdfs = zip(*rows)
        assert all(d >= -1e-9 for d in densities)
        assert all(-1e-6 <= c <= 1 + 1e-6 for c in cdfs)
        assert cdfs == tuple(sorted(cdfs))

    def test_quantile_and_checkpoint(self, onoff_file, capsys, tmp_path):
        args = [
            "passage", onoff_file,
            "--source", "on == 2", "--target", "off == 2",
            "--t-points", "1", "4", "8",
            "--quantile", "0.9",
            "--checkpoint", str(tmp_path / "ckpt"),
        ]
        assert main(args) == 0
        out1 = capsys.readouterr()
        assert "quantile: P(T <=" in out1.out
        # Second run resumes from the checkpoint (0 computed s-points).
        assert main(args) == 0
        err2 = capsys.readouterr().err
        assert "s-points computed: 0" in err2

    def test_unsatisfied_predicate_fails_cleanly(self, onoff_file):
        with pytest.raises(SystemExit, match="target predicate"):
            main([
                "passage", onoff_file,
                "--source", "on == 2", "--target", "off == 99",
                "--t-points", "1",
            ])

    def test_voting_model_passage(self, model_file, capsys):
        code = main([
            "passage", model_file,
            "--source", "p1 == CC", "--target", "p2 == CC",
            "--t-points", "5", "10", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 4  # header + three rows


class TestServeAndQuery:
    @pytest.fixture
    def server_url(self):
        import threading

        from repro.service import AnalysisService, create_server

        server = create_server(AnalysisService(), port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield f"http://127.0.0.1:{server.server_address[1]}"
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def test_serve_and_query_parsers(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "--port", "0", "--checkpoint", "x"])
        assert args.command == "serve" and args.port == 0
        args = parser.parse_args([
            "query", "--url", "http://h:1", "passage", "m.dnamaca",
            "--source", "a > 0", "--target", "b > 0", "--t-points", "1", "2",
        ])
        assert args.query_command == "passage"
        with pytest.raises(SystemExit):
            parser.parse_args(["query"])  # a query sub-command is required

    def test_query_register_and_passage(self, server_url, onoff_file, capsys):
        assert main(["query", "--url", server_url, "register", onoff_file]) == 0
        out = capsys.readouterr().out
        assert "built" in out and "states   : 3" in out

        code = main([
            "query", "--url", server_url, "passage", onoff_file,
            "--source", "on == 2", "--target", "off == 2",
            "--t-points", "1", "2", "4", "8", "--cdf", "--json",
        ])
        assert code == 0
        captured = capsys.readouterr()
        rows = json.loads(captured.out.split("quantile:")[0])
        assert len(rows) == 4
        assert all(len(row) == 3 for row in rows)
        assert "s-points" in captured.err

        # Second run: the server answers without computing anything.
        assert main([
            "query", "--url", server_url, "passage", onoff_file,
            "--source", "on == 2", "--target", "off == 2",
            "--t-points", "1", "2", "4", "8", "--cdf",
        ]) == 0
        err = capsys.readouterr().err
        assert "0 computed" in err

    def test_query_transient_and_stats(self, server_url, onoff_file, capsys):
        code = main([
            "query", "--url", server_url, "transient", onoff_file,
            "--source", "on == 2", "--target", "on > 0",
            "--t-points", "1", "5", "25",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "steady-state value" in out

        assert main(["query", "--url", server_url, "stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["queries"]["transient"] == 1
        assert stats["registry"]["models"] == 1

    def test_query_digest_with_set_is_rejected(self, server_url):
        with pytest.raises(SystemExit, match="spec file"):
            main([
                "query", "--url", server_url, "passage", "0123abcd",
                "--set", "K=4",
                "--source", "on == 2", "--target", "off == 2",
                "--t-points", "1",
            ])

    def test_query_against_dead_server_fails_cleanly(self, onoff_file):
        with pytest.raises(SystemExit):
            main([
                "query", "--url", "http://127.0.0.1:1", "passage", onoff_file,
                "--source", "on == 2", "--target", "off == 2", "--t-points", "1",
            ])


    @pytest.mark.parametrize("url", ["127.0.0.1:8080", "https://127.0.0.1:8080"])
    def test_a_url_that_is_not_http_fails_in_one_line(self, url):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-m", "repro.cli", "query", "--url", url, "stats"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode != 0
        assert "Traceback" not in done.stderr
        assert done.stderr.strip().splitlines() == [
            f"ServiceClient needs an http:// URL, not {url!r}"
        ]


class TestTransientAndSimulate:
    def test_transient(self, onoff_file, capsys):
        code = main([
            "transient", onoff_file,
            "--source", "on == 2", "--target", "on == 2",
            "--t-points", "0.5", "2", "10", "50",
            "--solver", "direct",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "steady-state value" in out

    def test_simulate(self, onoff_file, capsys):
        code = main([
            "simulate", onoff_file,
            "--target", "off == 2",
            "--replications", "300",
            "--seed", "7",
            "--t-points", "2.0", "5.0",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean:" in out
        assert "P(T<=t)" in out


@pytest.fixture
def api_server_url():
    import threading

    from repro.service import AnalysisService, create_server

    server = create_server(AnalysisService(), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)


class TestEmission:
    """CSV/JSON emission of result tables, including ``None`` cells.

    ``PassageTimeResult.as_table()`` fills un-requested columns with ``None``;
    the emitter must render those as *empty* CSV fields (not the string
    ``"None"``) and as JSON ``null``.
    """

    @staticmethod
    def _args(**flags):
        import argparse

        defaults = {"json": False, "csv": False}
        defaults.update(flags)
        return argparse.Namespace(**defaults)

    def test_csv_renders_none_as_empty_field(self, capsys):
        from repro.cli import _emit, _print_measure
        from repro.core.results import PassageTimeResult

        result = PassageTimeResult(t_points=[1.0, 2.0], cdf=[0.25, 0.5])
        rows = result.as_table()  # density column is all None
        _emit(rows, ["t", "density", "cdf"], self._args(csv=True))
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,density,cdf"
        assert out[1] == "1.0,,0.25"
        assert out[2] == "2.0,,0.5"
        assert "None" not in "\n".join(out)
        # the measure printer drops the all-None column entirely
        _print_measure(result, self._args(csv=True))
        assert capsys.readouterr().out.splitlines() == ["t,cdf", "1.0,0.25", "2.0,0.5"]

    def test_json_renders_none_as_null(self, capsys):
        from repro.cli import _emit
        from repro.core.results import PassageTimeResult

        result = PassageTimeResult(t_points=[1.0], density=[0.5])
        _emit(result.as_table(), ["t", "density", "cdf"], self._args(json=True))
        rows = json.loads(capsys.readouterr().out)
        assert rows == [[1.0, 0.5, None]]

    def test_table_renders_none_as_blank(self, capsys):
        from repro.cli import _emit
        from repro.core.results import TransientResult

        _emit([[1.0, None]], ["t", "probability"], self._args())
        out = capsys.readouterr().out
        assert "None" not in out
        # TransientResult.as_table has no None cells but must emit fine too
        result = TransientResult(t_points=[1.0, 2.0], probability=[0.1, 0.2])
        _emit(result.as_table(), ["t", "probability"], self._args(csv=True))
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "1.0,0.1"

    def test_passage_csv_end_to_end(self, onoff_file, capsys):
        code = main([
            "passage", onoff_file,
            "--source", "on == 2", "--target", "off == 2",
            "--t-points", "1", "2", "4",
            "--cdf", "--csv",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,density,cdf"
        assert len(out) >= 4
        for line in out[1:4]:
            cells = line.split(",")
            assert len(cells) == 3 and all(c != "" and c != "None" for c in cells)

    def test_transient_csv_end_to_end(self, onoff_file, capsys):
        code = main([
            "transient", onoff_file,
            "--source", "on == 2", "--target", "on == 2",
            "--t-points", "1", "5", "--csv",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,probability"
        assert len(out[1].split(",")) == 2

    def test_query_passage_csv(self, api_server_url, onoff_file, capsys):
        code = main([
            "query", "--url", api_server_url, "passage", onoff_file,
            "--source", "on == 2", "--target", "off == 2",
            "--t-points", "1", "2", "--csv",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "t,density"


class TestApiRouting:
    """Acceptance: the CLI routes through repro.api, not hand-built kernels."""

    def test_cli_does_not_construct_kernels_directly(self):
        import inspect

        import repro.cli as cli

        source = inspect.getsource(cli)
        for symbol in ("build_kernel", "explore(", "UEvaluator", "PassageTimeJob"):
            assert symbol not in source

    def test_passage_and_query_passage_agree(self, api_server_url, onoff_file, capsys):
        args = ["--source", "on == 2", "--target", "off == 2",
                "--t-points", "1", "2", "4", "--cdf", "--json"]
        assert main(["passage", onoff_file] + args) == 0
        local = json.loads(capsys.readouterr().out)
        assert main(["query", "--url", api_server_url, "passage", onoff_file] + args) == 0
        remote = json.loads(capsys.readouterr().out)
        assert np.allclose(np.asarray(local, dtype=float),
                           np.asarray(remote, dtype=float), atol=1e-10)


_COUNT_ARENAS = """
import ctypes, sys, threading
from repro.cli import _one_malloc_arena
if sys.argv[2] == "capped":
    _one_malloc_arena()
barrier = threading.Barrier(6)
def work():
    barrier.wait()
    block = bytearray(1 << 16)  # past pymalloc: the thread attaches to an arena
    barrier.wait()
threads = [threading.Thread(target=work) for _ in range(6)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
libc = ctypes.CDLL(None)
libc.fopen.restype = ctypes.c_void_p
stream = ctypes.c_void_p(libc.fopen(sys.argv[1].encode(), b"w"))
libc.malloc_info(0, stream)
libc.fclose(stream)
"""


class TestServeMemory:
    """``serve`` answers every request on a new thread; which malloc arena a
    thread gets is a race, and a cold solve's freed temporaries stay resident
    in each arena one ran in."""

    @staticmethod
    def _arenas(tmp_path, mode: str) -> int:
        import os
        import subprocess
        import sys

        out = tmp_path / f"malloc_info_{mode}.xml"
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        subprocess.run([sys.executable, "-c", _COUNT_ARENAS, str(out), mode],
                       env=env, check=True, timeout=60)
        return out.read_text().count("<heap nr=")

    def test_concurrent_threads_stay_on_one_arena(self, tmp_path):
        import platform

        if platform.libc_ver()[0] != "glibc":
            pytest.skip("malloc arenas are a glibc notion")
        assert self._arenas(tmp_path, "default") > 1  # the test can fail
        assert self._arenas(tmp_path, "capped") == 1

    def test_no_mallopt_is_not_an_error(self, monkeypatch):
        import ctypes

        from repro.cli import _one_malloc_arena

        def no_libc(name):
            raise OSError("no C library to open")

        monkeypatch.setattr(ctypes, "CDLL", no_libc)
        _one_malloc_arena()
