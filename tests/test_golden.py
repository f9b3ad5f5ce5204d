"""Golden digests of CLI ``simulate`` output on the shipped examples.

Each case runs ``dynwire simulate`` under Euler and RK4 and compares the
SHA-256 of the trajectory CSV and of its ``.meta.json`` sidecar with a
digest recorded before composites were fused into generated code.  Any
change to evaluation order, summation order or CSV formatting shows up
here as a changed digest.
"""

from __future__ import annotations

import hashlib
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


def simulate_digests(tmp_path: Path, repo_root: Path, case: str, scheme: str) -> tuple[str, str]:
    diagram, models, config, labels = CASES[case]
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
