"""The public configuration surface: every key, its field, its parser and its flag.

Config files and CLI flags both go through ``apply_settings``; these tests pin
which field each key sets, how each value is parsed, which values are
rejected, and which flag the CLI offers for each key.
"""

import argparse
import dataclasses
import re
from pathlib import Path

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gfdetect import cli
from gfdetect.errors import ConfigError
from gfdetect.harness import DETECTOR_NAMES, GENIE_NAMES, ExperimentConfig, apply_settings, parse_sweep

README = Path(__file__).resolve().parents[1] / "README.md"

# key: (field, well-formed value, parsed value, malformed value)
KEYS = {
    "K": ("K", "32", 32, "3.5"),
    "L": ("L", "10", 10, "ten"),
    "M": ("M", "48", 48, "1e3"),
    "D": ("D", "5", 5, "x"),
    "snr": ("snr_db", "-5.5", -5.5, "loud"),
    "activity_prob": ("activity_prob", "0.25", 0.25, "half"),
    "trials": ("trials", "7", 7, "7.0"),
    "seed": ("seed", "123", 123, "abc"),
    "workers": ("workers", "2", 2, "two"),
    "N": ("N", "8", 8, ""),
    "paths": ("paths", "50", 50, "many"),
    "lam": ("lam", "0.3", 0.3, "big"),
    "detector": ("detector", "msbl,bomp", "msbl,bomp", "bogus"),
    "channel": ("channel", "ula", "ula", "rayleigh"),
    "known_sparsity": ("use_known_sparsity", "false", False, "maybe"),
    "redraw_pilots": ("redraw_pilots", "off", False, "2"),
}
SWEEP = ("snr:-10,-5,0", ("snr", (-10.0, -5.0, 0.0)), "volume:1,2")
FLAGS = {"--" + key.replace("_", "-"): key for key in (*KEYS, "sweep")}

FIELDS = (
    "K", "L", "M", "D", "activity_prob", "snr_db", "trials", "seed", "detector",
    "sweep_axis", "sweep_values", "N", "channel", "paths", "lam",
    "use_known_sparsity", "redraw_pilots", "workers", "stream",
)
INT_KEYS = ("K", "L", "M", "D", "trials", "seed", "workers", "N", "paths")
FLOAT_KEYS = ("snr", "activity_prob", "lam")
NULLABLE_KEYS = ("lam", "activity_prob")
BOOL_KEYS = ("known_sparsity", "redraw_pilots")
TRUE_WORDS = ("1", "true", "yes", "on")
FALSE_WORDS = ("0", "false", "no", "off")


def _sweep_subparser() -> argparse.ArgumentParser:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices["sweep"]


def test_config_fields_are_pinned():
    assert tuple(f.name for f in dataclasses.fields(ExperimentConfig)) == FIELDS


@pytest.mark.parametrize("key", sorted(KEYS))
def test_key_sets_its_field(key):
    name, text, value, _ = KEYS[key]
    config = apply_settings(ExperimentConfig(), {key: text})
    assert getattr(config, name) == value
    assert config == dataclasses.replace(ExperimentConfig(), **{name: value})


def test_sweep_key_sets_axis_and_values():
    text, (axis, values), _ = SWEEP
    config = apply_settings(ExperimentConfig(), {"sweep": text})
    assert (config.sweep_axis, config.sweep_values) == (axis, values)


@pytest.mark.parametrize("key", sorted(KEYS) + ["sweep"])
def test_malformed_value_is_a_config_error(key):
    bad = SWEEP[2] if key == "sweep" else KEYS[key][3]
    with pytest.raises(ConfigError):
        apply_settings(ExperimentConfig(), {key: bad}).validate()


@pytest.mark.parametrize(
    "name", ["bogus", "snr_db", "max_iterations", "use_known_sparsity", "compute_bound",
             "sweep_axis", "sweep_values", "stream"],
)
def test_field_names_and_internal_fields_are_not_keys(name):
    with pytest.raises(ConfigError):
        apply_settings(ExperimentConfig(), {name: "1"})


def test_recovery_floor_has_no_switch(capsys):
    # run_sweep fills the bound cell wherever the floor is defined
    with pytest.raises(ConfigError):
        apply_settings(ExperimentConfig(), {"bound": "true"})
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--bound", "true"])
    assert exc.value.code == 2
    assert "--bound" in capsys.readouterr().err


def test_data_symbols_have_no_spreading_key(capsys):
    # the data stage sends unspread QPSK symbols
    with pytest.raises(ConfigError, match="unknown configuration key"):
        apply_settings(ExperimentConfig(), {"spread": "4"})
    with pytest.raises(SystemExit) as exc:
        cli.main(["sweep", "--spread", "4"])
    assert exc.value.code == 2
    assert "--spread" in capsys.readouterr().err


def test_cli_offers_exactly_one_flag_per_key():
    sweep = _sweep_subparser()
    options = {s for action in sweep._actions for s in action.option_strings}
    fixed = {"-h", "--help", "--preset", "--config", "--out"}
    assert options == set(FLAGS) | fixed


@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_cli_flag_sets_its_field(flag):
    key = FLAGS[flag]
    args = cli.build_parser().parse_args(["sweep", flag, SWEEP[0] if key == "sweep" else KEYS[key][1]])
    config = cli._build_config(args)
    if key == "sweep":
        assert (config.sweep_axis, config.sweep_values) == SWEEP[1]
    else:
        name, _, value, _ = KEYS[key]
        assert getattr(config, name) == value


@pytest.mark.parametrize("flag", sorted(FLAGS))
def test_cli_flag_rejects_malformed_value(flag, capsys):
    key = FLAGS[flag]
    bad = SWEEP[2] if key == "sweep" else KEYS[key][3]
    assert cli.main(["sweep", flag, bad]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_readme_cli_examples_parse_and_validate():
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert block, "README has no CLI block"
    commands = [line.split()[1:] for line in block.group(1).splitlines() if line.startswith("gfdetect sweep")]
    commands = [argv for argv in commands if "--config" not in argv]
    assert len(commands) >= 3
    for argv in commands:
        cli._build_config(cli.build_parser().parse_args(argv))  # ConfigError if invalid; runs no trial


def test_readme_sweep_values_parse():
    # every sweep the README spells out is a list the parser accepts
    specs = re.findall(r"(?:--sweep |sweep=)([^\s`]+)", README.read_text(encoding="utf-8"))
    assert len(specs) >= 4
    for spec in specs:
        parse_sweep(spec)


def test_readme_lists_every_key():
    match = re.search(r"Config keys: `([^`]*)`", README.read_text(encoding="utf-8"))
    assert match, "README has no 'Config keys:' line"
    listed = match.group(1).split()
    assert len(listed) == len(set(listed))
    assert set(listed) == set(KEYS) | {"sweep"}


@given(key=st.sampled_from(INT_KEYS), n=st.integers(-(10**15), 10**15))
def test_integers_round_trip(key, n):
    config = apply_settings(ExperimentConfig(), {key: str(n)})
    assert getattr(config, KEYS[key][0]) == n


@given(key=st.sampled_from(FLOAT_KEYS), x=st.floats(allow_nan=False))
def test_floats_round_trip(key, x):
    config = apply_settings(ExperimentConfig(), {key: repr(x)})
    assert getattr(config, KEYS[key][0]) == x


PADS = st.sampled_from(["", " ", "\t"])


@given(
    entries=st.lists(
        st.tuples(PADS, st.floats(allow_nan=False, allow_infinity=False), PADS),
        min_size=1,
    ),
)
def test_every_list_of_numbers_is_a_sweep(entries):
    spec = "snr:" + ",".join(f"{left}{x!r}{right}" for left, x, right in entries)
    assert parse_sweep(spec) == ("snr", tuple(x for _, x, _ in entries))


@given(
    entries=st.lists(st.tuples(PADS, st.sampled_from([*DETECTOR_NAMES, *GENIE_NAMES, "all"]), PADS),
                     min_size=1),
    empty=st.tuples(PADS, PADS),
    at=st.integers(0),
)
def test_every_list_of_names_is_a_detector_list(entries, empty, at):
    # a detector list reads like a sweep list: comma-separated, no empty entry
    tokens = [f"{left}{name}{right}" for left, name, right in entries]
    expanded = [n for _, name, _ in entries for n in (DETECTOR_NAMES if name == "all" else (name,))]
    assert ExperimentConfig(detector=",".join(tokens)).detector_list() == tuple(dict.fromkeys(expanded))
    tokens.insert(at % (len(tokens) + 1), "".join(empty))
    with pytest.raises(ConfigError, match="unknown detector"):
        ExperimentConfig(detector=",".join(tokens)).detector_list()


@given(
    key=st.sampled_from(BOOL_KEYS),
    word=st.sampled_from(TRUE_WORDS + FALSE_WORDS),
    upper=st.lists(st.booleans(), min_size=5, max_size=5),
    pad=PADS,
)
def test_every_boolean_spelling_parses(key, word, upper, pad):
    text = pad + "".join(c.upper() if u else c for c, u in zip(word, upper)) + pad
    config = apply_settings(ExperimentConfig(), {key: text})
    assert getattr(config, KEYS[key][0]) is (word in TRUE_WORDS)


@given(key=st.sampled_from(BOOL_KEYS), text=st.text(max_size=6))
def test_other_boolean_text_is_rejected(key, text):
    assume(text.strip().lower() not in TRUE_WORDS + FALSE_WORDS)
    with pytest.raises(ConfigError):
        apply_settings(ExperimentConfig(), {key: text})


@given(
    key=st.sampled_from(INT_KEYS + FLOAT_KEYS),
    word=st.sampled_from(["auto", "none", "", "AUTO", " None ", "\t"]),
)
def test_missing_value_means_none_only_for_nullable_keys(key, word):
    if key in NULLABLE_KEYS:
        config = apply_settings(ExperimentConfig(lam=0.5, activity_prob=0.5), {key: word})
        assert getattr(config, KEYS[key][0]) is None
    else:
        with pytest.raises(ConfigError):
            apply_settings(ExperimentConfig(), {key: word})
