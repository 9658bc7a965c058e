"""Malformed input files through the command line.

Each valid signature, cohort, flag, noise-spec and noise-profile file is
mutated by a type swap (number <-> string, boolean or null), a missing
key or cell, a cut inside a line, or a byte that is not UTF-8.  Every mutant must exit 1 with one
error line that names the file, print nothing on stdout and raise no
traceback.

Not mutations: a JSON key a format does not know is ignored (README,
"File formats"); dropping an optional key (spike ``width`` and
``magnitude``) falls back to its default; ``null`` is a valid SNR floor
(unbounded); and a flag file cut after a whole line is a shorter stream.
"""
import contextlib
import io
import json
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigdrift.cli import main
from sigdrift.config import MAX_ABS_VALUE
from sigdrift.core import write_signature
from sigdrift.cpd import write_flags
from sigdrift.noisegen import (AttenuationNoise, NoiseProfile, SnrValue, SpikeNoise,
                               write_profile, write_spec)

from conftest import raw_signature, unit_signature, wavy_row

GRID = 12

#: Cells that no number reader accepts ("nan" is left out: a flag file's
#: similarity may be NaN).
NOT_NUMBERS = ["abc", "true", "null", ""]

#: format -> (file name, first numeric column of a CSV data row, or the
#: JSON keys a payload cannot do without)
FORMATS = {
    "signature": ("existing.csv", 1),
    "cohort": ("cohorts.csv", 2),
    "flag": ("flags.csv", 0),
    "spike spec": ("spike.json", ["kind", "position"]),
    "attenuation spec": ("attenuation.json", ["kind", "factor"]),
    "profile": ("profile.json", ["segment_length", "segment_snrs"]),
}


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    rows = np.vstack([wavy_row(GRID, seed=3), wavy_row(GRID, seed=4)])
    write_signature(unit_signature(rows, parameters=["cpu", "io"]), root / "existing.csv")
    write_signature(raw_signature(rows + 0.1 * np.cos(np.arange(GRID)),
                                  parameters=["cpu", "io"]), root / "recomputed.csv")
    (root / "cohorts.csv").write_text("user_id,parameter,start,v0,v1,v2,v3\n"
                                      "u1,cpu,0,1.0,2.0,3.0,4.0\n"
                                      "u2,cpu,0,2.0,4.5,6.0,8.0\n", encoding="utf-8")
    write_flags([(0, True, 0.25), (1, True, 0.5), (3, False, 0.75)], root / "flags.csv")
    write_spec(SpikeNoise(position=2, width=3, magnitude=4.0), root / "spike.json")
    write_spec(AttenuationNoise(factor=0.9), root / "attenuation.json")
    write_profile(NoiseProfile((SnrValue(100.0), SnrValue(math.inf)), GRID // 2),
                  root / "profile.json")
    return root


def _argv(fmt: str, root, path) -> list[str]:
    ex, rec = str(root / "existing.csv"), str(root / "recomputed.csv")
    if fmt == "signature":
        return ["detect", "--existing", str(path), "--recomputed", rec]
    if fmt == "cohort":
        return ["gen-signature", "--cohorts", str(path), "--out", str(root / "out.csv")]
    if fmt == "flag":
        return ["events", "--flags", str(path), "--window-length", "2", "--f-thresh", "1"]
    if fmt == "profile":
        return ["detect", "--existing", ex, "--recomputed", rec, "--detector", "snr",
                "--profile", str(path)]
    return ["inject", "--signature", ex, "--spec", str(path), "--out", str(root / "out.csv")]


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _run(argv):
    """Exit code, stdout, stderr and the warning-or-worse log records of one call."""
    handler = _Records()
    logger = logging.getLogger("sigdrift")
    logger.addHandler(handler)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        logger.removeHandler(handler)
    return code, out.getvalue(), err.getvalue(), handler.records


@pytest.mark.parametrize("fmt", FORMATS)
def test_the_unmutated_files_are_valid(valid, fmt):
    code, _, _, records = _run(_argv(fmt, valid, valid / FORMATS[fmt][0]))
    assert code in (0, 2)
    assert records == []


def _not_utf8(text: str, data) -> bytes:
    """`text` with a 0xff byte, which no UTF-8 text holds, put in anywhere."""
    at = data.draw(st.integers(0, len(text)))
    return text[:at].encode("utf-8") + b"\xff" + text[at:].encode("utf-8")


def _csv_mutant(text: str, first_number: int, data) -> bytes:
    lines = [line.split(",") for line in text.splitlines()]
    kind = data.draw(st.sampled_from(["swap", "missing", "cut", "byte"]))
    if kind == "byte":
        return _not_utf8(text, data)
    if kind == "cut":
        cuts = [k for k in range(len(text)) if k == 0 or text[k - 1] != "\n"]
        return text[:data.draw(st.sampled_from(cuts))].encode("utf-8")
    row = data.draw(st.integers(0, len(lines) - 1))
    if kind == "missing":
        del lines[row][data.draw(st.integers(0, len(lines[row]) - 1))]
    elif row == 0:  # a header cell swapped for a number
        lines[0][data.draw(st.integers(0, len(lines[0]) - 1))] = "7"
    else:
        column = data.draw(st.integers(first_number, len(lines[row]) - 1))
        lines[row][column] = data.draw(st.sampled_from(NOT_NUMBERS))
    return "".join(",".join(line) + "\n" for line in lines).encode("utf-8")


def _slots(payload):
    """(container, key, replacements) for each value a type swap may hit."""
    slots = []
    for key, value in payload.items():
        if isinstance(value, list):
            slots.append((payload, key, ["x", 5, True, None]))
            for i, item in enumerate(value):
                # null is a valid SNR floor, so it is no swap for a number here
                slots.append((value, i, ["x", True] if item is None else [str(item), True]))
        elif isinstance(value, str):
            slots.append((payload, key, [5, True, None]))
        else:
            slots.append((payload, key, [str(value), True, False, None]))
    return slots


def _json_mutant(text: str, required: list[str], data) -> bytes:
    payload = json.loads(text)
    kind = data.draw(st.sampled_from(["swap", "missing", "cut", "byte"]))
    if kind == "byte":
        return _not_utf8(text, data)
    if kind == "cut":
        return text[:data.draw(st.integers(0, len(text.rstrip("\n")) - 1))].encode("utf-8")
    if kind == "missing":
        del payload[data.draw(st.sampled_from(required))]
    else:
        container, key, replacements = data.draw(st.sampled_from(_slots(payload)))
        container[key] = data.draw(st.sampled_from(replacements))
    return json.dumps(payload).encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_mutant_exits_1_with_one_error_line_naming_the_file(valid, fmt, data):
    name, shape = FORMATS[fmt]
    text = (valid / name).read_text(encoding="utf-8")
    mutant = (_json_mutant(text, shape, data) if name.endswith(".json")
              else _csv_mutant(text, shape, data))
    path = valid / f"mutant-{name}"
    path.write_bytes(mutant)
    code, out, err, records = _run(_argv(fmt, valid, path))
    assert code == 1, mutant
    assert out == ""
    assert "Traceback" not in err
    assert [r.levelno for r in records] == [logging.ERROR]
    assert records[0].getMessage().startswith(f"{path}: ")


@pytest.mark.parametrize("fmt", ["signature", "cohort"])
@pytest.mark.parametrize("cell", ["1e200", "-1e308"])
def test_a_finite_cell_beyond_the_bound_exits_1_naming_the_file_and_row(valid, fmt, cell):
    """A cell whose square overflows is rejected before any arithmetic,
    not reported as a constant row after numpy's overflow warning."""
    name, first_number = FORMATS[fmt]
    lines = [line.split(",") for line in (valid / name).read_text(encoding="utf-8").splitlines()]
    lines[1][first_number + 1] = cell
    path = valid / f"huge-{name}"
    path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
    code, out, err, records = _run(_argv(fmt, valid, path))
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert [r.levelno for r in records] == [logging.ERROR]
    message = records[0].getMessage()
    assert message.startswith(f"{path}: row ")
    assert f"{float(cell)!r} exceeds {MAX_ABS_VALUE:g} in magnitude" in message


@pytest.mark.parametrize("names, error", [
    (["cpu", "cpu"], "duplicate QoS parameter in signature"),
    (["cpu", ""], "parameter name must be non-empty"),
])
def test_a_bad_parameter_name_exits_1_naming_the_file(valid, names, error):
    lines = [line.split(",") for line in
             (valid / "existing.csv").read_text(encoding="utf-8").splitlines()]
    for line, name in zip(lines[1:], names):
        line[0] = name
    path = valid / f"names-{'-'.join(names)}.csv"
    path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
    code, out, err, records = _run(_argv("signature", valid, path))
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert [r.getMessage() for r in records] == [f"{path}: {error}"]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("grid", [360, 23040])
@pytest.mark.parametrize("cell", [MAX_ABS_VALUE, -MAX_ABS_VALUE])
def test_a_cell_at_the_bound_is_compared_with_no_warning(tmp_path, grid, cell):
    """Every detector compares such a pair with no numpy warning, and
    ``sw`` names the cell a spike: the deletion scan takes the windows
    that hold it directly, where their remainder sums cancel."""
    base = wavy_row(grid, seed=5)
    bounded = base.copy()
    bounded[grid // 3] = cell
    write_signature(unit_signature(base), tmp_path / "plain.csv")
    write_signature(raw_signature(bounded), tmp_path / "bounded.csv")
    write_profile(NoiseProfile((SnrValue(100.0),) * 6, grid // 6), tmp_path / "profile.json")
    for existing, recomputed in (("plain", "bounded"), ("bounded", "plain")):
        for detector in ("sw", "snr", "cusum"):
            profile = ["--profile", str(tmp_path / "profile.json")] if detector == "snr" else []
            code, out, _, records = _run([
                "detect", "--detector", detector, *profile,
                "--existing", str(tmp_path / f"{existing}.csv"),
                "--recomputed", str(tmp_path / f"{recomputed}.csv")])
            assert code in (0, 2) and records == [], (existing, detector)
            outcome = json.loads(out)
            assert outcome["verdict"]
            if detector == "sw":  # one bounded cell is a spike, whichever side holds it
                assert (outcome["verdict"], outcome["noise_kind"]) == ("noise", "spike")
