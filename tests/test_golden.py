"""Golden digests of CLI output on the shipped examples.

Each ``simulate`` case runs under Euler and RK4 and compares the SHA-256 of
the trajectory CSV and of its ``.meta.json`` sidecar with a digest recorded
before composites were fused into generated code.  Any change to evaluation
order, summation order or CSV formatting shows up here as a changed digest.
The files that ``compose``, ``grid``, ``migrate`` and ``export-dot`` write
are pinned the same way.  Every case runs a second time with each output
path first filled with 1 MiB of junk: outputs are written over in place, so
a digest that holds there shows the file was cut to its new length.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from dynwire.cli import main

SIR, ECO, HEAT = "configs/sir", "configs/ecosystem", "configs/heat"

CASES = {
    "sir_single": (
        f"{SIR}/single_city.json", [f"{SIR}/city.json"], f"{SIR}/sim_single.json", None,
    ),
    "sir_cyclic": (
        f"{SIR}/cyclic.json", [f"{SIR}/city.json"] * 3, f"{SIR}/sim_cyclic.json", None,
    ),
    "sir_isolation": (
        f"{SIR}/isolation.json", [f"{SIR}/city.json"] * 3,
        f"{SIR}/sim_cities_labelled.json", f"{SIR}/labels3.json",
    ),
    "ecosystem": (
        "eco.json",
        [f"{ECO}/{m}.json" for m in
         ("rabbit_growth", "land_predation", "hawk_decline", "fish_growth", "river_predation")],
        f"{ECO}/sim.json", None,
    ),
    "heat_3x3": ("grid3.json", [f"{HEAT}/heat_node.json"] * 9, f"{HEAT}/sim3x3.json", None),
    "heat_32x32": ("grid32.json", [f"{HEAT}/heat_node.json"] * 1024, "sim32x32.json", None),
}

# (case, scheme) -> (CSV digest, sidecar digest)
DIGESTS = {
    ("ecosystem", "euler"): (
        "0f9bbf8937d8271a2960613a4530911153397c1c7d1fd6317d69405d0acba746",
        "e9e681e5c00ec3798313ea9333052616c307461ea40046f77af38a9c1d129b32",
    ),
    ("ecosystem", "rk4"): (
        "4b144680810809bbeab078f4a17b6f37f7ca7045a81d82ef658235b5683a9a98",
        "8cf3762c348b8639a250a5f7ec83ea95c3f2a40e3cdab3c9c06e10034119da73",
    ),
    ("heat_3x3", "euler"): (
        "afb59661fcd811bee22235df1b52ce216a5e8ed30d53d5986f415fd7ab791be6",
        "85b562456fcf817544eeeb69fd7f743fb0ac6226046be90eec98cfbe6e285ebb",
    ),
    ("heat_3x3", "rk4"): (
        "2424f1b28da645a4d8d9e2baf45b45cb71df80fc3c7a7a958f4622fc6ae57de1",
        "2ecd4ede6ece58a321113ed412528502ae31acbca4d81c2f6f94371bc9f49671",
    ),
    # Recorded with the per-value ``repr`` writer, before the vectorised one.
    ("heat_32x32", "euler"): (
        "b8258d4045883c3aacc865b64a8f00338291d39130756f5e5c1c9c9f2d9e6f7a",
        "d4a221130b5187a9c4b48ae69650c15a037a8a3fde69dc3a33adbbb26cc43875",
    ),
    ("heat_32x32", "rk4"): (
        "175af23964d573029c4f63625e8c45eadba03bad2c8679638b60f98d12373d3c",
        "8bd3c5dcc402e7f20858b3dcb0d92020a3f248871657d46193b154879c902abc",
    ),
    ("sir_cyclic", "euler"): (
        "fd96f077f6e2fcd7592aed8ac3ace64bd9f08f575a3fbb798d560769279aa733",
        "71486ccb6e1c7c8581e704e8667dcb0544efc220b7060ab2e1e450faac339530",
    ),
    ("sir_cyclic", "rk4"): (
        "5c181b65619e7577feed44a31bf79d444e125e8ce4248b2180273e79fd9b20f3",
        "93a84fae49b632c0d279ee5f680f5388a2007edd41b8fc95a95b428c1b6b39c7",
    ),
    ("sir_isolation", "euler"): (
        "43ff89f8ca79aad6b417426f0292bbaf5c09db3e74696a593c0373c8aab0b032",
        "b5076ce5fe437e3662130ddde5d2f0743ccabdcc94156c0df89dd93e22800921",
    ),
    ("sir_isolation", "rk4"): (
        "878344a597800f0601ab2ed25905dfd89e3ce329550ea503ff3dceeea26d1f07",
        "3559b61f6c102e1981a1e5a527ce1801a91e8269675f26655796acb080aa34da",
    ),
    ("sir_single", "euler"): (
        "a2cc97f25188f514736157310cb51ea5663360a61735064f920e4de74f6e23ff",
        "cd69d255138b396e0b9c7ed36482dcf30b0215d595e6a231e70abe6e16ea89a1",
    ),
    ("sir_single", "rk4"): (
        "cbc528122b4c56f53b097902bdbbc4bfe12b4c6ebdfa2d6866bbbb310d2a4a5e",
        "c859c4dc5c738aa63dd230e9b483761d67f20a6bc42c3d534f5f9cc1893b0dd9",
    ),
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _prepare(tmp_path: Path, repo_root: Path, case: str) -> None:
    if case == "ecosystem":
        assert main([
            "compose", "--outer", str(repo_root / ECO / "total_diagram.json"),
            "--inner", str(repo_root / ECO / "land_diagram.json"),
            "--inner", str(repo_root / ECO / "river_diagram.json"),
            "-o", str(tmp_path / "eco.json"),
        ]) == 0
    if case == "heat_3x3":
        assert main(["grid", "3", "3", "-o", str(tmp_path / "grid3.json")]) == 0
    if case == "heat_32x32":
        assert main(["grid", "32", "32", "-o", str(tmp_path / "grid32.json")]) == 0
        (tmp_path / "sim32x32.json").write_text(json.dumps(heat_32x32_config()), encoding="utf-8")


def heat_32x32_config() -> dict:
    """Seeded initial temperatures spread over 10**-9 .. 10**9, of both
    signs and with some zeros, so that the trajectory has values of every
    length in both the fixed and the exponent form of ``repr``."""
    rng = random.Random(3232)
    init = [
        rng.choice((0.0, rng.random(), rng.uniform(-1, 1) * 10.0 ** rng.randint(-9, 9)))
        for _ in range(1024)
    ]
    return {"h": 0.01, "steps": 6, "init": init}


def fill_with_junk(*paths: Path) -> None:
    """Write 1 MiB of seeded random bytes to each path, so that an output
    written over it must be cut to its own length to match its digest."""
    junk = random.Random(1 << 20).randbytes(1 << 20)
    for path in paths:
        path.write_bytes(junk)


def simulate_digests(
    tmp_path: Path, repo_root: Path, case: str, scheme: str, junk: bool = False
) -> tuple[str, str]:
    """The digests of ``simulate``'s CSV and sidecar; with ``junk``, every
    file the case writes is first filled by ``fill_with_junk``."""
    diagram, models, config, labels = CASES[case]
    if junk:
        written = (diagram, "traj.csv", "traj.csv.meta.json")
        fill_with_junk(*(tmp_path / p for p in written if not p.startswith("configs/")))
    _prepare(tmp_path, repo_root, case)

    def where(p: str) -> str:
        return str((repo_root / p) if p.startswith("configs/") else (tmp_path / p))

    out = tmp_path / "traj.csv"
    argv = [
        "simulate", "--diagram", where(diagram), "--models", *map(where, models),
        "--config", where(config), "--out", str(out), "--scheme", scheme,
    ]
    if labels:
        argv += ["--labels", where(labels)]
    assert main(argv) == 0
    return _sha(out), _sha(Path(str(out) + ".meta.json"))


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_output_matches_golden_digest(tmp_path, repo_root, case, scheme):
    assert simulate_digests(tmp_path, repo_root, case, scheme) == DIGESTS[case, scheme]


@pytest.mark.parametrize("scheme", ["euler", "rk4"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_output_over_junk_matches_golden_digest(tmp_path, repo_root, case, scheme):
    assert simulate_digests(tmp_path, repo_root, case, scheme, junk=True) == DIGESTS[case, scheme]


# ---------------------------------------------------------------------------
# Syntax outputs: diagram files written by compose, grid and migrate, and DOT
# text, pinned by digests recorded before index columns were formatted in
# one numpy pass; those of compose_dwd, dot_dwd and compose_cpg before wire
# pairs were sorted as one key and directed wires spliced by joins.

ECO_COMPOSE = [
    "compose", "--outer", f"{ECO}/total_diagram.json",
    "--inner", f"{ECO}/land_diagram.json", "--inner", f"{ECO}/river_diagram.json",
]


def _dwd(n_boxes, box_in, box_out, q_in, q_out, wires, in_wires, out_wires) -> dict:
    src, tgt, src_in, tgt_in, src_out, tgt_out = (
        [p[k] for p in pairs] for pairs in (wires, in_wires, out_wires) for k in (0, 1)
    )
    return {
        "schema": "DWD", "B": n_boxes, "P_in": len(box_in), "P_out": len(box_out),
        "W": len(wires), "W_in": len(in_wires), "W_out": len(out_wires), "Q_in": q_in,
        "Q_out": q_out, "box_in": box_in, "box_out": box_out, "src": src, "tgt": tgt,
        "src_in": src_in, "tgt_in": tgt_in, "src_out": src_out, "tgt_out": tgt_out,
    }


# Inner diagrams by the (in, out) signature of the box they fill: ports out
# of box order, an outer in-port that fans out, one that reaches nothing,
# outer out-ports fed twice or not at all, and one inner with no boxes.
DWD_INNERS = {
    (2, 3): _dwd(3, [1, 0, 2, 1], [2, 0, 1, 0], 2, 3, [(1, 0), (3, 2), (0, 1), (1, 0)],
                 [(0, 3), (1, 2), (0, 1)], [(2, 1), (0, 0), (3, 1)]),
    (1, 1): _dwd(1, [0], [0, 0], 1, 1, [(1, 0)], [], [(1, 0), (0, 0)]),
    (2, 1): _dwd(0, [], [], 2, 1, [], [], []),
}


def _dwd_outer(seed: int = 2406, n_boxes: int = 120) -> tuple[dict, list]:
    """A seeded DWD of ``n_boxes`` boxes of the ``DWD_INNERS`` signatures,
    with repeated wires and box columns out of box order; and each box's
    signature."""
    rng = random.Random(seed)
    kinds = [rng.choice(list(DWD_INNERS)) for _ in range(n_boxes)]
    box_in = [b for b, (i, _) in enumerate(kinds) for _ in range(i)]
    box_out = [b for b, (_, o) in enumerate(kinds) for _ in range(o)]
    rng.shuffle(box_in)
    rng.shuffle(box_out)
    p_in, p_out, q_in, q_out = len(box_in), len(box_out), 5, 4

    def pairs(n, a, b):
        return [(rng.randrange(a), rng.randrange(b)) for _ in range(n)]

    outer = _dwd(n_boxes, box_in, box_out, q_in, q_out, pairs(160, p_out, p_in),
                 pairs(12, q_in, p_in), pairs(10, p_out, q_out))
    return outer, kinds


DWD_OUTER, DWD_KINDS = _dwd_outer()
# A CPG with four exposed ports, to fill each box of a grid.
CPG_INNER = {"schema": "CPG", "B": 3, "P": 6, "W": 4, "Q": 4, "box": [1, 0, 2, 0, 1, 0],
             "src": [1, 4, 5, 3], "tgt": [3, 5, 1, 1], "expose": [0, 2, 3, 5]}


def write_compose_inputs(root: Path) -> dict[str, str]:
    """Write the inputs of ``compose_dwd`` and ``compose_cpg`` to ``root``:
    the outer DWD indented, so that its lists hold blanks, and the inners
    on one line each.  Returns their paths by name."""
    files = {"dwd_outer": json.dumps(DWD_OUTER, indent=1), "cpg_inner": json.dumps(CPG_INNER)}
    for (i, o), inner in DWD_INNERS.items():
        files[f"dwd_{i}_{o}"] = json.dumps(inner)
    paths = {}
    for name, text in files.items():
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(text, encoding="utf-8")
    return paths


def compose_argv(root: Path, case: str) -> list[str]:
    """The argv of the ``SYNTAX`` case ``case``, its inputs written to
    ``root``; another case's output that it reads is taken from ``root``
    under that case's output name."""
    inputs = write_compose_inputs(Path(root))
    outputs = {name: str(Path(root) / out) for name, (_, out) in SYNTAX.items()}
    return [arg.format(**inputs, **outputs) for arg in SYNTAX[case][0]]


# name -> (argv, the output's name); "{x}" is the output of case x, or the
# input x that ``write_compose_inputs`` writes.
SYNTAX = {
    "compose_ecosystem": (ECO_COMPOSE, "eco.json"),
    "grid_3x3": (["grid", "3", "3"], "grid3.json"),
    "grid_32x32": (["grid", "32", "32"], "grid32.json"),
    "migrate_3x3": (["migrate", "--cpg", "{grid_3x3}"], "dwd3.json"),
    "migrate_32x32": (["migrate", "--cpg", "{grid_32x32}"], "dwd32.json"),
    "dot_sir_cyclic": (["export-dot", "--diagram", f"{SIR}/cyclic.json"], "cyclic.dot"),
    "dot_ecosystem": (["export-dot", "--diagram", "{compose_ecosystem}"], "eco.dot"),
    "dot_grid_32x32": (["export-dot", "--diagram", "{grid_32x32}"], "grid32.dot"),
    "compose_dwd": (
        ["compose", "--outer", "{dwd_outer}",
         *[arg for i, o in DWD_KINDS for arg in ("--inner", f"{{dwd_{i}_{o}}}")]],
        "dwd.json",
    ),
    "dot_dwd": (["export-dot", "--diagram", "{compose_dwd}"], "dwd.dot"),
    "compose_cpg": (
        ["compose", "--outer", "{grid_32x32}", *["--inner", "{cpg_inner}"] * 1024], "cpg.json",
    ),
}

SYNTAX_DIGESTS = {
    "compose_ecosystem": "692758386bcca4b85bbc11f3d6fab7e6b95c6e2f742aa042d6906ac4d8290e16",
    "grid_3x3": "a49047da00709ab93603ae2b7fb0aa88eb03fb30cdfb2350fe9dd532e29fd9f2",
    "grid_32x32": "fcb1fe84c691125a7740a34c7553bc355f59943a8ba5925a7b7e7dd1a4396560",
    "migrate_3x3": "33d9addd6a70a0696128a22339971d70073655e4c05c92a361e6aa1940f333d8",
    "migrate_32x32": "2f2f9cdcbc55d5b0aaa1f153095106c2ef663749a494fa2a94d2d8a0e257a9a2",
    "dot_sir_cyclic": "b1899c2c3f144147fef1482123c166bb8fa274d682ff3f07de1554cc5d77a039",
    "dot_ecosystem": "acb5cc29e2d7da08f91491f482fcbc4e462cf117f2e5c43e2561c164dea76d93",
    "dot_grid_32x32": "02223ae80e949307d1402a6a4b821883745231fa59c2ad6df717b0dac0709ac3",
    "compose_dwd": "4287409556d0f137bc8d382d3d65adc1d8973dd00a76ee08c4d45a3a70fc76d4",
    "dot_dwd": "b331018a538c2f349e437b8c5d4003681a0e0f498472fbc6d1b1f61f699c0404",
    "compose_cpg": "8d41c6a46e1c24c20c1c1fd8e59332ab759c9dd8685796993d8b3ea35f4ed3d4",
}


def syntax_digests(tmp_path: Path, repo_root: Path, junk: bool = False) -> dict[str, str]:
    """Run every ``SYNTAX`` case in order; the SHA-256 of each output.  With
    ``junk``, every output is first filled by ``fill_with_junk``."""
    if junk:
        fill_with_junk(*(tmp_path / out for _, out in SYNTAX.values()))
    inputs = write_compose_inputs(tmp_path)
    outputs: dict[str, str] = {}

    def where(arg: str) -> str:
        if arg.startswith("configs/"):
            return str(repo_root / arg)
        return arg.format(**inputs, **outputs)

    for name, (argv, out) in SYNTAX.items():
        assert main([*map(where, argv), "-o", str(tmp_path / out)]) == 0
        outputs[name] = str(tmp_path / out)
    return {name: _sha(Path(path)) for name, path in outputs.items()}


def test_syntax_outputs_match_golden_digests(tmp_path, repo_root):
    assert syntax_digests(tmp_path, repo_root) == SYNTAX_DIGESTS


def test_syntax_outputs_over_junk_match_golden_digests(tmp_path, repo_root):
    assert syntax_digests(tmp_path, repo_root, junk=True) == SYNTAX_DIGESTS
