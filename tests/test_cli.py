"""Command-line behavior: exit codes, payloads, and byte-level determinism."""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import CORPUS_NAMES, FIXTURES, SHAPES_PY, load_shapes, scanned, token_parse
from tmkit import cli, dsl
from tmkit.cli import corpus, main
from tmkit.dsl import lower, parse
from tmkit.model import FlowEdge, TmModel, TriggerEdge
from tmkit.validator import validate_document


@pytest.fixture()
def run_cli(capsys):
    def invoke(*argv: str) -> tuple[int, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    return invoke


def test_validate_corpus_exits_zero(run_cli, corpus_paths):
    for path in corpus_paths.values():
        code, out = run_cli("validate", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True


def test_validate_without_a_file_is_a_usage_error(capsys):
    assert main(["validate"]) == 2
    capsys.readouterr()


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["frobnicate", "x.tm"]) == 2
    capsys.readouterr()


def test_missing_file_is_a_usage_error(run_cli):
    code, _ = run_cli("validate", "no_such_file.tm")
    assert code == 2


def test_module_entry_point_behaves_as_main(run_cli, corpus_paths, tmp_path):
    """``python -m tmkit.cli`` runs ``main`` and exits with its code."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def module(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "tmkit.cli", *argv],
                              capture_output=True, text=True, env=env)

    path = str(corpus_paths["tendering"])
    done = module("validate", path)
    assert (done.returncode, done.stdout) == run_cli("validate", path)
    assert module("validate", str(tmp_path / "missing.tm")).returncode == 2


@pytest.mark.parametrize("command", ["fmt", "render"])
def test_unencodable_standard_output_is_reported_and_exits_two(run_cli, tmp_path, command):
    """Text that standard output's encoding cannot hold exits 2 with one
    line on stderr, as an unwritable ``--output`` file does; ``--output``
    itself is always UTF-8."""
    env = {**os.environ, "PYTHONIOENCODING": "ascii",
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    path = tmp_path / "cafe.tm"
    path.write_text("thimac Café { create; process; }\n", encoding="utf-8")

    def module(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "tmkit.cli", command, str(path), *argv],
                              capture_output=True, text=True, env=env)

    done = module()
    assert done.returncode == 2
    assert done.stderr.startswith("cannot write standard output:")
    assert "Traceback" not in done.stderr
    out = tmp_path / "out.txt"
    done = module("--output", str(out))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert out.read_text(encoding="utf-8") == run_cli(command, str(path))[1]


def test_closed_standard_output_is_reported_and_exits_two(capsys, monkeypatch, corpus_paths):
    """With standard output closed, Python sets ``sys.stdout`` to None; the
    command exits 2 with one line on stderr, as an unwritable one does."""
    path = str(corpus_paths["dough_cookie"])
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", None)
        code = main(["fmt", path])
    assert code == 2
    assert capsys.readouterr().err.startswith("cannot write standard output:")

    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run(["sh", "-c", 'exec "$0" -m tmkit.cli fmt "$1" >&-', sys.executable, path],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 2
    assert done.stderr.startswith("cannot write standard output:")
    assert "Traceback" not in done.stderr


def test_parse_failure_reports_and_exits_two(run_cli, tmp_path):
    bad = tmp_path / "bad.tm"
    bad.write_text("flow ->", encoding="utf-8")
    code, out = run_cli("validate", str(bad))
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["parse_errors"][0]["line"] == 1


# Each input fails at a different point: flow_illegal.tm in validation, the
# other three while the model is built, which the command reports from its
# ModelError handler.
INVALID = {
    "flow_illegal.tm": ("FLOW_ILLEGAL", "release may not flow to process within one thimac"),
    "ref_unresolved.tm": ("REF_UNRESOLVED", "unknown stage reference 'Machine.process'"),
    "dup_name.tm": ("DUP_NAME", "duplicate thimac 'Machine'"),
    "thimac A { create; create; }": ("DUP_NAME", "duplicate stage 'A.create'"),
}


@pytest.mark.parametrize("source", INVALID, ids=lambda s: s if s.endswith(".tm") else "duplicate_stage")
def test_validation_errors_exit_one_with_report(run_cli, tmp_path, source):
    path = FIXTURES / source
    if not source.endswith(".tm"):
        path = tmp_path / "inline.tm"
        path.write_text(source, encoding="utf-8")
    code, out = run_cli("validate", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    first = payload["diagnostics"][0]
    assert (first["code"], first["message"]) == INVALID[source]


def test_chronology_edge_to_a_failed_event_adds_no_diagnostic(run_cli, tmp_path):
    path = tmp_path / "failed_event.tm"
    path.write_text(
        "thimac A { create; process; }\nflow A.create -> A.process;\n"
        "event E1 { A.create; A.create; }\nevent E2 { A.process; }\n"
        "behavior { E1 -> E2; }\n", encoding="utf-8")
    code, out = run_cli("validate", str(path))
    assert code == 1
    assert [d["code"] for d in json.loads(out)["diagnostics"]] == ["DUP_NAME"]


def test_long_chronology_chain_validates(run_cli, tmp_path):
    n = 1500
    events = "\n".join(f"event E{i} {{ A.create; A.process; }}" for i in range(n + 1))
    chain = "\n".join(f"    E{i} -> E{i + 1};" for i in range(n))
    text = ("thimac A { create; process; }\nflow A.create -> A.process;\n"
            f"{events}\nbehavior {{\n{chain}\n}}\n")
    doc = lower(parse(text))
    report, built = validate_document(doc.model, doc.events, doc.behavior)
    assert report.ok and len(built) == n + 1
    path = tmp_path / "chain.tm"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli("validate", str(path))
    assert code == 0 and json.loads(out)["ok"] is True


DEPTH = 1200
EVERY_COMMAND = (
    ("validate",), ("events",), ("simulate",), ("simplify",),
    ("render",), ("render", "--format", "json"), ("fmt",),
)


def _nested(depth: int, closed: int) -> str:
    """``depth`` thimacs named ``a``, each inside the last, the innermost
    with a create flowing into a process; ``closed`` of them are closed."""
    path = ".".join(["a"] * depth)
    return ("thimac a {\n" * depth + "create; process;\n" + "}\n" * closed
            + f"flow {path}.create -> {path}.process;\n")


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=" ".join)
def test_deep_nesting_runs_every_command(run_cli, tmp_path, command):
    assert sys.getrecursionlimit() < DEPTH
    path = tmp_path / "deep.tm"
    path.write_text(_nested(DEPTH, DEPTH), encoding="utf-8")
    code, out = run_cli(*command, str(path))
    assert code == 0
    if command == ("fmt",):
        assert out.count("thimac a {") == DEPTH
    path.write_text(_nested(DEPTH, DEPTH - 1), encoding="utf-8")
    code, out = run_cli(*command, str(path))
    assert code == 2 and json.loads(out)["parse_errors"]


def test_simulate_dough_fires_events_in_order(run_cli, corpus_paths):
    code, out = run_cli("simulate", str(corpus_paths["dough_cookie"]), "--policy", "fifo")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    fired = [r["id"] for r in records if r["kind"] == "event-fired"]
    assert fired == ["E1", "E2", "E3"]
    assert records[-1]["kind"] == "run-ended"
    assert records[-1]["truncated"] is False


def test_simulate_is_byte_deterministic(run_cli, corpus_paths):
    args = ("simulate", str(corpus_paths["tendering"]), "--seed", "7", "--policy", "random")
    _, first = run_cli(*args)
    _, second = run_cli(*args)
    assert first == second


@pytest.mark.parametrize("option", ["--seed", "--steps", "--cap"])
def test_simulate_rejects_negative_numbers(capsys, corpus_paths, option):
    assert main(["simulate", str(corpus_paths["dough_cookie"]), option, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be non-negative" in captured.err
    assert main(["simulate", str(corpus_paths["dough_cookie"]), option, "0"]) == 0


@pytest.mark.parametrize("value", ["x", "1.5", ""])
@pytest.mark.parametrize("option", ["--seed", "--steps", "--cap"])
def test_simulate_rejects_non_integers(capsys, corpus_paths, option, value):
    assert main(["simulate", str(corpus_paths["dough_cookie"]), option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: invalid int value: {value!r}" in captured.err


@pytest.mark.parametrize("steps, truncated", [(10, True), (11, False)])
def test_simulate_is_truncated_only_when_candidates_remain_at_the_bound(
        run_cli, corpus_paths, steps, truncated):
    """dough_cookie's run exhausts at exactly 11 records: a bound of 11 stops
    it with nothing left to fire, which is no cut."""
    code, out = run_cli("simulate", str(corpus_paths["dough_cookie"]), "--steps", str(steps))
    ended = json.loads(out.splitlines()[-1])
    assert (code, ended) == (0, {"kind": "run-ended", "truncated": truncated,
                                 "records": steps})


def test_simulate_with_nothing_to_fire_is_not_truncated_at_zero_steps(run_cli, tmp_path):
    """A create that a trigger points at never fires on its own, so this
    model has no candidate at all."""
    path = tmp_path / "idle.tm"
    path.write_text("thimac A { create; process; }\n"
                    "flow A.create -> A.process;\n"
                    "trigger A.process ~> A.create;\n", encoding="utf-8")
    assert run_cli("simulate", str(path), "--steps", "0") == (
        0, '{"kind": "run-ended", "truncated": false, "records": 0}\n')


def test_simulate_on_invalid_model_reports_and_exits_one(run_cli):
    code, out = run_cli("simulate", str(FIXTURES / "flow_illegal.tm"))
    assert code == 1
    assert json.loads(out)["ok"] is False


def test_events_lists_elementary_and_declared(run_cli, corpus_paths):
    code, out = run_cli("events", str(corpus_paths["tendering"]))
    assert code == 0
    payload = json.loads(out)
    assert len(payload["elementary"]) == 70
    assert [e["name"] for e in payload["declared"]] == [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7"]


def test_simplify_emits_model_and_report(run_cli, corpus_paths):
    code, out = run_cli("simplify", str(corpus_paths["heating_water"]))
    assert code == 0
    payload = json.loads(out)
    kinds = {s["kind"] for s in payload["model"]["stages"]}
    assert kinds == {"create", "process"}
    assert payload["report"]["removed"]["transfer"] == 2


def test_render_dot_and_json(run_cli, corpus_paths):
    code, out = run_cli("render", str(corpus_paths["dough_cookie"]))
    assert code == 0
    assert out.startswith("digraph tm {")
    code, out = run_cli("render", str(corpus_paths["dough_cookie"]), "--format", "json")
    assert code == 0
    assert len(json.loads(out)["events"]) == 3


def test_render_overlay_adds_fills(run_cli, corpus_paths):
    code, out = run_cli("render", str(corpus_paths["heating_water"]), "--overlay")
    assert code == 0
    assert "fillcolor" in out


def test_overlay_and_flat_shape_dot_output_only(run_cli, corpus_paths):
    for path in corpus_paths.values():
        plain = run_cli("render", str(path), "--format", "json")
        assert run_cli("render", str(path), "--format", "json", "--overlay", "--flat") == plain
        assert plain[0] == 0


JSON_COMMANDS = (("validate",), ("events",), ("simplify",), ("render", "--format", "json"))
# The corpus (exit 0), the diagnostic fixtures (exit 1 with a report, but
# for the warnings-only stage_orphan.tm) and one input that fails to parse
# (exit 2 with parse_errors).
JSON_INPUTS = (*CORPUS_NAMES, *sorted(p.name for p in FIXTURES.glob("*.tm")), "parse failure")


@pytest.mark.parametrize("source", JSON_INPUTS)
@pytest.mark.parametrize("command", JSON_COMMANDS, ids=" ".join)
def test_every_json_output_is_json_dumps_indent_2(run_cli, corpus_paths, tmp_path, command, source):
    if source in corpus_paths:
        path, codes = corpus_paths[source], {0}
    elif source.endswith(".tm"):
        path, codes = FIXTURES / source, {0, 1}
    else:
        path, codes = tmp_path / "bad.tm", {2}
        path.write_text("flow ->", encoding="utf-8")
    code, out = run_cli(*command, str(path))
    assert code in codes
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_fmt_emits_canonical_round_trippable_text(run_cli, corpus_paths):
    code, out = run_cli("fmt", str(corpus_paths["heating_water"]))
    assert code == 0
    doc = lower(parse(out))
    original = lower(parse(corpus_paths["heating_water"].read_text(encoding="utf-8")))
    assert doc.model == original.model
    assert doc.events == original.events
    assert doc.behavior == original.behavior


@pytest.mark.parametrize("command", ["fmt", "validate", "simulate"])
def test_byte_order_mark_is_ignored(run_cli, corpus_paths, tmp_path, command):
    plain = corpus_paths["tendering"]
    marked = tmp_path / "marked.tm"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert run_cli(command, str(marked)) == run_cli(command, str(plain))
    assert run_cli(command, str(plain))[0] == 0


_OUTPUT_VARIANTS = {
    "validate": ("validate",),
    "events": ("events",),
    "simplify": ("simplify",),
    "fmt": ("fmt",),
    "simulate": ("simulate",),
    "simulate-random": ("simulate", "--policy", "random", "--cap", "2", "--seed", "3"),
    "render": ("render",),
    "render-flat": ("render", "--flat"),
    "render-overlay": ("render", "--overlay"),
    "render-json": ("render", "--format", "json"),
}


@pytest.mark.parametrize("variant", _OUTPUT_VARIANTS)
def test_output_flag_writes_the_file(run_cli, corpus_paths, tmp_path, variant):
    """The ``--output`` file holds exactly what the same command writes to
    standard output, and nothing is written to standard output."""
    argv = (*_OUTPUT_VARIANTS[variant], str(corpus_paths["reservation"]))
    code, stdout = run_cli(*argv)
    target = tmp_path / "out"
    assert run_cli(*argv, "--output", str(target)) == (code, "")
    assert code == 0
    assert target.read_bytes() == stdout.encode("utf-8")


def test_no_command_spells_an_edge_id(capsys, monkeypatch, corpus_paths):
    """Lowered regions name stages only, so no command on a corpus model
    builds the id text of a flow or trigger: repeats are found by
    comparing edge records, and no table keyed by edge id is built."""
    spelled = []
    for record in (FlowEdge, TriggerEdge):
        monkeypatch.setattr(record, "id", property(
            lambda edge, text=record.id.fget: spelled.append(edge) or text(edge)))
    for path in corpus_paths.values():
        for variant in _OUTPUT_VARIANTS.values():
            assert main([*variant, str(path)]) == 0
            assert not spelled, (path.name, variant)
    capsys.readouterr()


_UNBUILT_BY_DEFAULT = {"edge_by_id", "flow_indices_from", "spontaneous_creates"}
_REFERENCES = {"refs", "paths"}
_UNBUILT = {
    "validate": _UNBUILT_BY_DEFAULT | _REFERENCES,
    "simplify": _UNBUILT_BY_DEFAULT | _REFERENCES,
    "fmt": {"flow_targets", "flow_sources", "trigger_targets", "trigger_sources",
            "flow_indices_from", "component", "spontaneous_creates", "edge_by_id"},
    "simulate": {"edge_by_id", *_REFERENCES},
    "simulate-random": {"edge_by_id", *_REFERENCES},
    "render-json": _UNBUILT_BY_DEFAULT | _REFERENCES,
}


@pytest.mark.parametrize("variant", _OUTPUT_VARIANTS)
def test_each_command_builds_only_the_tables_it_reads(corpus_paths, variant):
    """The model's derived tables are built on first read, so a command
    leaves in the model's ``__dict__`` only the tables it reads: ``fmt``
    no adjacency, only ``simulate`` the simulator's tables, and only
    ``events``, ``fmt`` and dot output the stage references."""
    argv = _OUTPUT_VARIANTS[variant]
    unbuilt = _UNBUILT.get(variant, _UNBUILT_BY_DEFAULT)
    assert all(isinstance(vars(TmModel).get(name), functools.cached_property) for name in unbuilt)
    for path in corpus_paths.values():
        doc = dsl.load(path)
        assert cli._command(cli._build_parser().parse_args([*argv, str(path)]), doc)[1] == 0
        assert not unbuilt & vars(doc.model).keys(), path.name


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_unwritable_output_is_reported_and_exits_two(capsys, corpus_paths, tmp_path, command):
    target = tmp_path / "no_such_dir" / "x.json"
    code = main([command, str(corpus_paths["dough_cookie"]), "--output", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {target}: ")
    assert not target.parent.exists()


def test_corpus_bundles_exactly_the_four_models():
    assert sorted(corpus()) == [
        "dough_cookie", "heating_water", "reservation", "tendering"]


def spaced(text: str) -> str:
    """``text`` with spaces around every '.', '(' and ')' and CRLF line
    ends: a layout that the declaration scanner reads to the stage ids of
    ``text``."""
    return re.sub(r"[.()]", r" \g<0> ", text).replace("\n", "\r\n")


@pytest.mark.parametrize("name", sorted(corpus()))
def test_spaced_copy_is_read_by_the_token_parser_to_the_same_output(run_cli, tmp_path, name):
    """The scanner alone reads the spaced copy, to the AST that the token
    parser reads from its start without errors. Its canonical text, JSON
    rendering, events and report equal the original's, byte for byte, so
    the stage ids, event regions and diagnostics it lowers to are the
    original's."""
    original, copy = corpus()[name], tmp_path / "spaced.tm"
    copy.write_bytes(spaced(original.read_text(encoding="utf-8")).encode("utf-8"))
    text = copy.read_text(encoding="utf-8-sig")
    ast, (parsed, errors) = scanned(text), token_parse(text)
    assert ast is not None and errors == [] and repr(ast) == repr(parsed)
    for command in (("fmt",), ("render", "--format", "json"), ("events",), ("validate",)):
        expected = run_cli(*command, str(original))
        assert expected[0] == 0
        assert run_cli(*command, str(copy)) == expected


def broken(text: str) -> dict[str, str]:
    """``text`` with "flow ;" appended, with its last ';' removed, and with
    its first ';' outside a comment removed."""
    last = text.rindex(";")
    first = re.sub(r"#[^\n]*", lambda m: " " * len(m[0]), text).index(";")
    return {
        "flow": text + "\nflow ;\n",
        "last": text[:last] + text[last + 1:],
        "first": text[:first] + text[first + 1:],
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(corpus()))
def test_broken_copies_report_parse_errors_and_exit_two(capsys, tmp_path, name):
    """An appended "flow ;" runs the tokenizer and the error path end to
    end. Without its last ';' a model is scanned up to the declaration that
    held it, which the token parser reads, so one error is reported; without
    its first, the token parser reads from the first declaration. Nothing
    is written to standard error."""
    for kind, text in broken(corpus()[name].read_text(encoding="utf-8")).items():
        path = tmp_path / f"{kind}.tm"
        path.write_text(text, encoding="utf-8")
        code = main(["validate", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, ""), kind
        report = json.loads(captured.out)
        assert report["ok"] is False, kind
        assert isinstance(report["parse_errors"], list) and report["parse_errors"], kind
        if kind == "last":
            assert len(report["parse_errors"]) == 1


def test_fixture_spans_give_the_line_and_column_of_their_start(run_cli, tmp_path):
    """Each fixture model, and its spaced copy with CRLF line ends,
    validates with exit code 0 or 1, and every span in its report gives
    the line and column that counting newlines before its start gives in
    the text as ``tm`` reads it: spans built on demand from node offsets
    are checked end to end."""
    checked = 0
    for fixture in sorted(FIXTURES.glob("*.tm")):
        copy = tmp_path / fixture.name
        copy.write_bytes(spaced(fixture.read_text(encoding="utf-8")).encode("utf-8"))
        for path in (fixture, copy):
            code, out = run_cli("validate", str(path))
            assert code in (0, 1), path
            text = path.read_text(encoding="utf-8-sig")
            for span in (d["span"] for d in json.loads(out)["diagnostics"] if d["span"]):
                start = span["start"]
                assert (span["line"], span["column"]) == (
                    text.count("\n", 0, start) + 1, start - text.rfind("\n", 0, start)), path
                checked += 1
    assert checked >= 2


# The seven commands the benchmark times, with its simulate flags per shape.
BENCHMARKED = (
    ("validate",), ("events",), ("simulate",), ("simplify",),
    ("render", "--overlay"), ("render", "--format", "json"), ("fmt",),
)
SIMULATE_FLAGS = {
    "sim-fanout": ("--policy", "random", "--cap", "2", "--steps", "1000000"),
    "sim-relay": ("--policy", "fifo", "--cap", "1", "--steps", "2000"),
    "authoring": ("--policy", "fifo", "--cap", "0"),
}


@pytest.mark.parametrize("shape", sorted(SIMULATE_FLAGS))
def test_command_garbage_does_not_grow_with_the_model(capsys, tmp_path, shape):
    """``main`` pauses the cyclic collector for a command, which is safe only
    while a command leaves no cyclic garbage. One warm-up call builds the
    parser that every later call reuses; after it, each benchmarked command
    leaves none, at n = 12 and n = 200. The collector is held off around
    each call, so the count is exact."""
    def garbage(command, path):
        argv = [*command, str(path)]
        if command == ("simulate",):
            argv += SIMULATE_FLAGS[shape]
        gc.collect()
        gc.disable()
        try:
            assert main(argv) == 0
            return gc.collect()
        finally:
            gc.enable()
            capsys.readouterr()

    counts = {}
    for n in (12, 200):
        path = tmp_path / f"{n}.tm"
        path.write_text(load_shapes().GENERATORS[shape](n, 1).text, encoding="utf-8")
        if n == 12:
            garbage(("validate",), path)
        counts[n] = {command: garbage(command, path) for command in BENCHMARKED}
    assert counts == {n: dict.fromkeys(BENCHMARKED, 0) for n in (12, 200)}


# The benchmark's model sizes per shape: the full size and the half size
# that its traced rounds also run.
BENCHMARK_SIZES = {"sim-fanout": (40, 20), "sim-relay": (40, 20), "authoring": (35, 17)}


@pytest.mark.parametrize("shape", sorted(SIMULATE_FLAGS))
def test_benchmark_commands_never_reach_the_token_parser(monkeypatch, tmp_path, shape):
    """The declaration scanner reads every benchmark model, so the token
    parser, kept for text the scanner declines, is never timed there. A
    scanner change that sent benchmark text to it would fail here rather
    than slow the benchmark unnoticed."""
    def refuse(*args):
        raise AssertionError("the token parser ran")

    monkeypatch.setattr(dsl, "_Parser", refuse)
    out = tmp_path / "out.txt"
    for n in BENCHMARK_SIZES[shape]:
        for seed in (0, 1):
            path = tmp_path / f"{n}-{seed}.tm"
            path.write_text(load_shapes().GENERATORS[shape](n, seed).text, encoding="utf-8")
            for command in BENCHMARKED:
                argv = [*command, str(path), "--output", str(out)]
                if command == ("simulate",):
                    argv += SIMULATE_FLAGS[shape]
                assert main(argv) == 0, (n, seed, command)


# perfbench/golden.json names each benchmarked command by its metric.
GOLDEN_METRICS = dict(zip(("validate_s", "events_s", "simulate_s", "simplify_s",
                           "render_dot_s", "render_json_s", "fmt_s"), BENCHMARKED))


@pytest.mark.parametrize("shape", sorted(SIMULATE_FLAGS))
def test_benchmark_outputs_match_the_golden_digests(run_cli, tmp_path, shape):
    """Every benchmarked command, on the full-size model at the benchmark's
    golden seed (model seed 0, simulator seed 0), prints output whose
    SHA-256 ``perfbench/golden.json`` records, so a change that moves a
    trace or any other output fails here and not first in the benchmark."""
    golden = json.loads(SHAPES_PY.with_name("golden.json").read_text(encoding="utf-8"))
    path = tmp_path / f"{shape}.tm"
    text = load_shapes().GENERATORS[shape](BENCHMARK_SIZES[shape][0], 0).text
    path.write_text(text, encoding="utf-8")
    digests = {}
    for metric, command in GOLDEN_METRICS.items():
        argv = [*command, str(path)]
        if command == ("simulate",):
            argv += [*SIMULATE_FLAGS[shape], "--seed", "0"]
        code, out = run_cli(*argv)
        assert code == 0, metric
        digests[metric] = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digests == golden[shape]


# Below what each command prints at n = 200, from 76 kB (`fmt` on
# sim-fanout) to 0.88 MB (`render --format json` on authoring), except
# the two that print one line: `validate`, and `simulate` on authoring,
# which mints nothing. The model every command loads is far larger.
LEFT_BEHIND_BYTES = 64 * 1024


def left_behind(argv: list[str]) -> tuple[int, int]:
    """Bytes a command leaves allocated, by tracemalloc, after one warm-up
    call: those still reachable after ``gc.collect()``, and those of the
    cyclic garbage that collection finds."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    gc.collect()
    saved = len(gc.garbage)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        gc.set_debug(0)
        with_garbage = tracemalloc.get_traced_memory()[0]
        del gc.garbage[saved:]
        gc.collect()
        reachable = tracemalloc.get_traced_memory()[0]
    finally:
        gc.set_debug(0)
        del gc.garbage[saved:]
        tracemalloc.stop()
    return reachable, with_garbage - reachable


@pytest.mark.parametrize("shape", sorted(SIMULATE_FLAGS))
def test_command_leaves_no_bytes_behind(tmp_path, shape):
    """Counting garbage objects misses a cycle that holds a growing list
    of strings, so this counts bytes. What a command keeps reachable stays
    under a fixed bound, and the bytes of any cyclic garbage it leaves do
    not grow from n = 12 to n = 200."""
    garbage = {}
    for n in (12, 200):
        path = tmp_path / f"{n}.tm"
        path.write_text(load_shapes().GENERATORS[shape](n, 1).text, encoding="utf-8")
        for command in BENCHMARKED:
            argv = [*command, str(path)]
            if command == ("simulate",):
                argv += SIMULATE_FLAGS[shape]
            reachable, garbage[n, command] = left_behind(argv)
            assert reachable < LEFT_BEHIND_BYTES, (n, command)
    for command in BENCHMARKED:
        assert garbage[200, command] - garbage[12, command] < LEFT_BEHIND_BYTES / 4, command


def test_main_pauses_the_collector_and_restores_its_state(capsys, monkeypatch, corpus_paths):
    collecting = []
    command = cli._command

    def spy(*args):
        collecting.append(gc.isenabled())
        return command(*args)

    monkeypatch.setattr(cli, "_command", spy)
    path = str(corpus_paths["dough_cookie"])
    assert main(["validate", path]) == 0 and gc.isenabled()
    assert main(["frobnicate", path]) == 2 and gc.isenabled()
    gc.disable()
    try:
        assert main(["validate", path]) == 0 and not gc.isenabled()
    finally:
        gc.enable()
    assert collecting == [False, False]
    capsys.readouterr()
