"""The indented JSON writer prints exactly what `json.dumps` prints with a
two-space indent and sorted keys: on every corpus command, on the tighten
trace, and on seeded nested objects that leave its row templates."""

import json
import random
from pathlib import Path

import pytest

from torquiv import Arrow, Quiver, cli, tighten
from torquiv.jsonout import dumps

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
PAIRS = sorted(p for p in CORPUS.glob("*.json") if not p.name.startswith("affine_list"))

COMMANDS = [
    ["lattice-points", "--degree", "1"],
    ["lattice-points", "--degree", "2"],
    ["lattice-points", "--degree", "3"],
    ["vertices"],
    ["normality", "--k", "2"],
    ["normality", "--k", "3"],
    ["decompose"],
    ["localize", "--vertex-index", "0"],
    ["double", "--d", "1"],
    ["skeleton"],
]


def reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


@pytest.fixture
def printed(monkeypatch):
    """The objects `cli.main` hands to its JSON printer, in order."""
    objs = []
    real = cli._print_json

    def record(obj):
        objs.append(obj)
        real(obj)

    monkeypatch.setattr(cli, "_print_json", record)
    return objs


def run_all(capsys, printed, argvs):
    for argv in argvs:
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code in (0, 2), argv
        assert len(printed) == 1, argv
        assert out == reference(printed.pop()) + "\n", argv


@pytest.mark.parametrize("path", PAIRS, ids=lambda p: p.stem)
def test_corpus_commands_print_json_dumps_bytes(path, tmp_path, capsys, printed):
    commands = COMMANDS + [["tighten", "--trace", str(tmp_path / "trace.json")]]
    if path.stem.startswith("surface_"):
        commands.append(["classify2d"])
    run_all(capsys, printed, [[c[0], str(path), *c[1:]] for c in commands])
    quiver, weight, _digest = cli._load_pair(str(path))
    _tq, _tw, trace = tighten(quiver, weight)
    assert (tmp_path / "trace.json").read_text() == reference(trace.to_json()) + "\n"


def test_awkward_arrow_ids_go_through_the_row_template(tmp_path, capsys, printed):
    ids = ["a%d", 'b"q', "é"]
    quiver = Quiver(["s", "t"], [Arrow(i, "s", "t") for i in ids])
    path = tmp_path / "awkward.json"
    path.write_text(json.dumps(quiver.to_dict({"s": -2, "t": 2})))
    run_all(
        capsys,
        printed,
        [
            ["lattice-points", str(path), "--degree", "2"],
            ["normality", str(path), "--k", "2"],
        ],
    )
    assert dumps({"x": [{i: 1 for i in ids}]}) == reference({"x": [{i: 1 for i in ids}]})


SCALARS = [
    0,
    -7,
    2**64 + 1,
    -(2**70),
    True,
    False,
    None,
    1.5,
    "",
    "plain",
    "é ∑ 😀",
    'quote " backslash \\ newline \n tab \t nul \x00',
    "100%",
]
KEYS = ["a", "b", "c", "%d", "%%", '"', "é", "ключ", "k\n"]


def random_value(rng: random.Random, depth: int):
    roll = rng.random()
    if depth >= 4 or roll < 0.3:
        return rng.choice(SCALARS)
    if roll < 0.4:
        return rng.choice([{}, [], ()])
    if roll < 0.65:
        # rows: one key set, mostly plain ints; sometimes a bool, a string,
        # a ragged key set or a non-str key breaks the template
        keys = rng.sample(KEYS, rng.randint(1, 4))
        rows = [{k: rng.randint(-3, 2**65) for k in keys} for _ in range(rng.randint(1, 4))]
        spoil = rng.random()
        if spoil < 0.15:
            rows[-1][keys[0]] = True
        elif spoil < 0.25:
            rows[-1][keys[0]] = "x"
        elif spoil < 0.35:
            rows[-1]["zz"] = 0
        elif spoil < 0.4:
            rows[-1] = {7: 1}
        return rows
    if roll < 0.8:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(1, 3))]
    if roll < 0.95:
        return {k: random_value(rng, depth + 1) for k in rng.sample(KEYS, rng.randint(1, 4))}
    # non-str keys; json.dumps cannot sort a mix of str and int keys
    return {3: "int key", 2: [{"a": 1}]} if rng.random() < 0.5 else {None: 1}


def test_seeded_nested_objects_match_json_dumps():
    rng = random.Random(17)
    for _ in range(300):
        obj = random_value(rng, 0)
        assert dumps(obj) == reference(obj)


def test_shared_dict_at_two_depths_and_empties_at_each_depth():
    shared = {"b": 2, "a": -1}
    obj = {
        "top": shared,
        "rows": [shared, shared, {"a": 0, "b": 1}],
        "deep": [{"x": [shared, {}], "y": [[shared]], "z": []}],
        "empty": [{}, [], [[]], [{}], {"e": {}}],
    }
    assert dumps(obj) == reference(obj)
    assert dumps([shared, [shared]]) == reference([shared, [shared]])


def test_nothing_is_remembered_between_calls():
    # fresh row dicts reuse the ids of freed ones; each call starts afresh
    for i in range(50):
        obj = [{"k": i, "j": -i}]
        assert dumps(obj) == reference(obj)
