"""End-to-end CLI jobs run in process, plus one subprocess smoke test."""

import gc
import json
import os
import pathlib
import subprocess
import sys

import pytest

import fusionkit
from fusionkit.cli import main
from fusionkit.report import strip_timing


@pytest.fixture()
def files(tmp_path):
    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    out = {}
    out["s4"] = write("s4.json", {"type": "named", "name": "symmetric",
                                  "n": 4})
    out["s3"] = write("s3.json", {"type": "named", "name": "symmetric",
                                  "n": 3})
    out["d8"] = write("d8.json", {"type": "named", "name": "dihedral",
                                  "order": 8})
    out["c2"] = write("c2.json", {"type": "named", "name": "cyclic", "n": 2})
    out["v4"] = write("v4.json", {"type": "named",
                                  "name": "elementary_abelian",
                                  "p": 2, "rank": 2})
    # over V4 the sorted non-identity ids are 1, 2, 3; send one generator
    # to another without providing the order-3 closure: not saturated
    out["swap"] = write("swap.json", [{"domain_gens": [2], "images": [1]}])
    # inside S4's Sylow: (12)(34) -> (13)(24), an F-isomorphism
    out["mor"] = write("mor.json", {"domain_gens": [[1, 0, 3, 2]],
                                    "images": [[2, 3, 0, 1]]})
    out["v1"] = write("v1.json", [[1, 0, 3, 2], [2, 3, 0, 1]])
    out["single"] = write("single.json", [[1, 0, 2, 3]])
    out["tmp"] = tmp_path
    return out


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _morphism_by_perm(files):
    """Rewrite mor.json from permutation pairs to element indices."""
    from fusionkit import parse_group_spec, sylow_p
    G = parse_group_spec(json.loads(open(files["s4"]).read()))
    data = json.loads(open(files["mor"]).read())
    entry = {
        "domain_gens": [G.index[tuple(p)] for p in data["domain_gens"]],
        "images": [G.index[tuple(p)] for p in data["images"]],
    }
    p = files["tmp"] / "mor_ids.json"
    p.write_text(json.dumps([entry]))
    return str(p)


def test_build_report(files, capsys):
    code, out, _ = _run(["build", "--group", files["s4"], "--sylow", "2"],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["command"] == "build"
    assert rep["data"]["group"]["order"] == 24
    assert rep["data"]["sylow_order"] == 8
    assert "system" in rep["digests"]
    assert rep["digests"]["system"]["object_count"] == 10


def test_build_group_only(files, capsys):
    code, out, _ = _run(["build", "--group", files["s4"]], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["group"]["order"] == 24
    assert "sylow_order" not in rep["data"]


def test_build_writes_out_file(files, capsys):
    dest = files["tmp"] / "report.json"
    code, out, _ = _run(["build", "--group", files["s4"], "--sylow", "2",
                         "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""
    rep = json.loads(dest.read_text())
    assert rep["command"] == "build"


def test_saturation_true(files, capsys):
    code, out, _ = _run(
        ["saturation", "--group", files["s4"], "--sylow", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] is True
    assert rep["verdicts"] == {"saturated": True}
    for row in rep["rows"]:
        assert {"representative", "order",
                "fully_automised", "receptive"} <= set(row)


def test_saturation_false_exit_1(files, capsys):
    code, out, _ = _run(
        ["saturation", "--group", files["v4"], "--sylow", "2",
         "--fusion", files["swap"]], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["verdict"] is False
    assert "counterexample" in rep["data"]
    assert any(not (r["fully_automised"] and r["receptive"])
               for r in rep["rows"])


def test_fcr_orders(files, capsys):
    code, out, _ = _run(["fcr", "--group", files["s4"], "--sylow", "2"],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert sorted(e["order"] for e in rep["data"]["fcr"]) == [4, 8]


def test_classify_rows(files, capsys):
    code, out, _ = _run(["classify", "--group", files["s3"], "--sylow", "3"],
                        capsys)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["rows"]) == 2
    flags = {"fully_automised", "receptive", "centric", "radical",
             "fully_normalised", "strongly_closed"}
    for row in rep["rows"]:
        assert flags <= set(row)


def test_decompose_one_step(files, capsys):
    mor = _morphism_by_perm(files)
    code, out, _ = _run(
        ["decompose", "--group", files["s4"], "--sylow", "2",
         "--morphism", mor], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == {"recomposes": True}
    assert rep["data"]["steps"] == 1
    step = rep["data"]["chain"][0]
    assert len(step["object"]) >= 1
    assert all(len(pair) == 2 for pair in step["map"])


def test_decompose_rejects_non_f_morphism(files, capsys):
    # (12)(34) -> (34): different cycle type, no morphism carries it
    from fusionkit import parse_group_spec
    G = parse_group_spec(json.loads(open(files["s4"]).read()))
    bad = files["tmp"] / "bad_mor.json"
    bad.write_text(json.dumps([{
        "domain_gens": [G.index[(1, 0, 3, 2)]],
        "images": [G.index[(0, 1, 3, 2)]],
    }]))
    code, out, err = _run(
        ["decompose", "--group", files["s4"], "--sylow", "2",
         "--morphism", str(bad)], capsys)
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["command"] == "decompose"
    assert "homomorphism" in msg["error"] or "F-isomorphism" in msg["error"]


def test_error_report_written_to_out_file(files, capsys):
    dest = files["tmp"] / "err.json"
    code, out, err = _run(
        ["quotient", "--group", files["s4"], "--sylow", "2",
         "--kernel", files["single"], "--out", str(dest)], capsys)
    assert code == 2
    assert out == "" and err == ""
    msg = json.loads(dest.read_text())
    assert msg["error"] == "kernel is not strongly closed"


def test_quotient_by_klein_four(files, capsys):
    code, out, _ = _run(
        ["quotient", "--group", files["s4"], "--sylow", "2",
         "--kernel", files["v1"]], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["kernel_order"] == 4
    assert rep["data"]["quotient_order"] == 2
    assert "quotient" in rep["digests"]


def test_normalizer_full_and_trivial(files, capsys):
    code, out, _ = _run(
        ["normalizer", "--group", files["s4"], "--sylow", "2",
         "--at", files["v1"], "--k", "full"], capsys)
    assert code == 0
    assert json.loads(out)["data"]["normalizer_order"] == 8
    code, out, _ = _run(
        ["normalizer", "--group", files["s4"], "--sylow", "2",
         "--at", files["v1"], "--k", "trivial"], capsys)
    assert code == 0
    assert json.loads(out)["data"]["normalizer_order"] == 4


def test_normalizer_k_from_file(files, capsys):
    from fusionkit import parse_group_spec, sylow_p, subgroup_generated
    G = parse_group_spec(json.loads(open(files["s4"]).read()))
    a, b = G.index[(1, 0, 3, 2)], G.index[(2, 3, 0, 1)]
    V1 = subgroup_generated(G, [a, b])
    kfile = files["tmp"] / "k.json"
    kfile.write_text(json.dumps([{
        "domain_gens": list(V1.generator_ids()),
        "images": list(V1.generator_ids()),
    }]))
    code, out, _ = _run(
        ["normalizer", "--group", files["s4"], "--sylow", "2",
         "--at", files["v1"], "--k", str(kfile)], capsys)
    assert code == 0
    assert json.loads(out)["data"]["normalizer_order"] == 4


def test_normalizer_k_not_closed(files, capsys):
    from fusionkit import parse_group_spec, subgroup_generated
    G = parse_group_spec(json.loads(open(files["s4"]).read()))
    a, b = G.index[(1, 0, 3, 2)], G.index[(2, 3, 0, 1)]
    gens = list(subgroup_generated(G, [a, b]).generator_ids())
    kfile = files["tmp"] / "kswap.json"
    # the automorphism that swaps V1's generators, without the identity
    kfile.write_text(json.dumps([{"domain_gens": gens,
                                  "images": gens[::-1]}]))
    code, _, err = _run(
        ["normalizer", "--group", files["s4"], "--sylow", "2",
         "--at", files["v1"], "--k", str(kfile)], capsys)
    assert code == 2
    assert "K not closed under composition" in json.loads(err)["error"]


def test_normalizer_k_domain_mismatch(files, capsys):
    kfile = files["tmp"] / "kbad.json"
    kfile.write_text(json.dumps([{"domain_gens": [0], "images": [0]}]))
    code, _, err = _run(
        ["normalizer", "--group", files["s4"], "--sylow", "2",
         "--at", files["v1"], "--k", str(kfile)], capsys)
    assert code == 2
    assert "automorphisms of the --at subgroup" in json.loads(err)["error"]


def test_product_of_d8_and_c2(files, capsys):
    code, out, _ = _run(
        ["product", "--group", files["d8"], "--sylow", "2",
         "--group2", files["c2"], "--sylow2", "2"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["data"]["factor_orders"] == [8, 2]
    assert rep["data"]["product_order"] == 16
    assert {"factor1", "factor2", "product"} <= set(rep["digests"])


def test_witness_p3(files, capsys):
    code, out, _ = _run(["witness", "--p", "3"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdict"] is True
    assert len(rep["verdicts"]) == 4
    assert all(rep["verdicts"].values())
    assert len(rep["data"]["combos"]) == 4
    for combo in rep["data"]["combos"]:
        assert combo["checks"]["all_pass"] is True


def test_second_job_leaves_no_parser_garbage(tmp_path):
    # the parser is built once per process, so an in-process job leaves no
    # argparse object for the cyclic garbage collector
    out = str(tmp_path / "witness.json")
    assert main(["witness", "--p", "3", "--out", out]) == 0
    gc.collect()
    gc.garbage.clear()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert main(["witness", "--p", "3", "--out", out]) == 0
        gc.collect()
        left = sorted({type(o).__name__ for o in gc.garbage
                       if type(o).__module__ == "argparse"})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert left == []


def test_rv2_certified(capsys):
    code, out, _ = _run(["rv", "--name", "rv2", "--certify"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["verdicts"] == {"saturated": True, "out_order": True,
                               "rank2_count": True}
    data = rep["data"]
    assert data["out_order"] == 48
    assert data["rank2_centric_radical"] == 8
    assert data["profile"] == data["expected_profile"] == [[4, 672],
                                                           [4, 672]]
    cert = data["certificate"]
    assert cert["out_shape"] == "D16 x 3"
    assert cert["rank2_class_sizes"] == [4, 4]
    assert cert["rank2_counts"] == {"2016": 0, "672": 8}
    assert cert["strongly_closed_orders"] == [1, 343]
    digest = rep["digests"]["system"]
    assert digest["object_count"] == 67
    assert digest["morphism_count"] == 43351


def test_witness_bad_prime(files, capsys):
    code, _, err = _run(["witness", "--p", "5"], capsys)
    assert code == 2
    assert "must be 3 or 7" in json.loads(err)["error"]


def test_reports_byte_identical_modulo_timing(files, capsys):
    texts = []
    for _ in range(2):
        code, out, _ = _run(
            ["saturation", "--group", files["s4"], "--sylow", "2"], capsys)
        assert code == 0
        texts.append(strip_timing(out))
    assert texts[0] == texts[1]
    texts = []
    for _ in range(2):
        code, out, _ = _run(
            ["classify", "--group", files["s3"], "--sylow", "3"], capsys)
        assert code == 0
        texts.append(strip_timing(out))
    assert texts[0] == texts[1]


def test_missing_group_flag(files, capsys):
    code, _, err = _run(["saturation", "--sylow", "2"], capsys)
    assert code == 2
    assert "--group" in json.loads(err)["error"]


def test_missing_sylow_flag(files, capsys):
    code, _, err = _run(["saturation", "--group", files["s4"]], capsys)
    assert code == 2
    assert "--sylow" in json.loads(err)["error"]


def test_unreadable_group_file(files, capsys):
    code, _, err = _run(
        ["saturation", "--group", str(files["tmp"] / "nope.json"),
         "--sylow", "2"], capsys)
    assert code == 2
    assert "cannot read" in json.loads(err)["error"]


def test_malformed_group_json(files, capsys):
    bad = files["tmp"] / "broken.json"
    bad.write_text("{oops")
    code, _, err = _run(
        ["saturation", "--group", str(bad), "--sylow", "2"], capsys)
    assert code == 2
    assert "malformed JSON" in json.loads(err)["error"]


_C2 = {"type": "named", "name": "cyclic", "n": 2}
_C3 = {"type": "named", "name": "cyclic", "n": 3}


def _bad(id_, command, flag, descriptor):
    return pytest.param(command, flag, descriptor, id=id_)


@pytest.mark.parametrize("command,flag,bad", [
    _bad("generators-not-list", "build", "--group",
         {"type": "permutation", "degree": 2, "generators": 5}),
    _bad("bool-point", "build", "--group",
         {"type": "permutation", "degree": 2, "generators": [[True, False]]}),
    _bad("bool-degree", "build", "--group",
         {"type": "permutation", "degree": True, "generators": []}),
    _bad("factors-not-list", "build", "--group",
         {"type": "direct_product", "factors": 5}),
    _bad("action-not-list", "build", "--group",
         {"type": "semidirect", "base": _C3, "actor": _C2, "action": 5}),
    _bad("action-row-not-list", "build", "--group",
         {"type": "semidirect", "base": _C3, "actor": _C2, "action": [5]}),
    _bad("invariants-not-list", "build", "--group",
         {"type": "named", "name": "abelian", "invariants": 5}),
    _bad("bool-invariant", "build", "--group",
         {"type": "named", "name": "abelian", "invariants": [2, True]}),
    _bad("string-n", "build", "--group",
         {"type": "named", "name": "cyclic", "n": "4"}),
    _bad("bool-n", "build", "--group",
         {"type": "named", "name": "cyclic", "n": True}),
    _bad("float-order", "build", "--group",
         {"type": "named", "name": "dihedral", "order": 8.0}),
    _bad("list-name", "build", "--group",
         {"type": "named", "name": ["cyclic"], "n": 4}),
    _bad("negative-rank", "build", "--group",
         {"type": "named", "name": "elementary_abelian", "p": 2, "rank": -3}),
    _bad("non-prime-p", "build", "--group",
         {"type": "named", "name": "elementary_abelian", "p": 4, "rank": 2}),
    _bad("negative-degree", "build", "--group",
         {"type": "named", "name": "alternating", "n": -5}),
    _bad("domain-gens-not-list", "saturation", "--fusion",
         [{"domain_gens": 1, "images": [2]}]),
    _bad("images-not-list", "saturation", "--fusion",
         [{"domain_gens": [1], "images": "2"}]),
    _bad("bool-id", "saturation", "--fusion",
         [{"domain_gens": [True], "images": [2]}]),
    _bad("morphism-not-lists", "decompose", "--morphism",
         {"domain_gens": 1, "images": 2}),
])
def test_malformed_descriptor_exits_2(files, capsys, command, flag, bad):
    path = files["tmp"] / "bad.json"
    path.write_text(json.dumps(bad))
    argv = [command, "--group", str(path) if flag == "--group" else files["v4"]]
    if command != "build":
        argv += ["--sylow", "2", flag, str(path)]
    code, out, err = _run(argv, capsys)
    assert code == 2
    assert out == ""
    msg = json.loads(err)
    assert msg["command"] == command
    assert "error" in msg


def test_group_cap_respected(files, capsys, monkeypatch):
    monkeypatch.setenv("FUSIONKIT_MAX_GROUP_ORDER", "10")
    code, _, err = _run(
        ["build", "--group", files["s4"], "--sylow", "2"], capsys)
    assert code == 2
    assert "FUSIONKIT_MAX_GROUP_ORDER" in json.loads(err)["error"]


def _child(argv, timeout):
    """`python -m fusionkit.cli argv` in a child process, which finds
    fusionkit where this process imported it from; a child that outlives
    `timeout` seconds fails the test rather than hanging it."""
    src = str(pathlib.Path(fusionkit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "fusionkit.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


@pytest.mark.parametrize("command,flags", [
    ("saturation", ["--sylow", "0"]),
    ("saturation", ["--sylow", "1"]),
    ("saturation", ["--sylow", "4"]),
    ("saturation", ["--sylow", "6"]),
    ("product", ["--sylow", "2", "--group2", "s4", "--sylow2", "1"]),
], ids=["sylow-0", "sylow-1", "sylow-4", "sylow-6", "product-sylow2-1"])
def test_non_prime_exits_2_with_an_error_report(files, command, flags):
    """Over S4, `--sylow 1` looped forever, 0 and 6 exited 1 with a
    traceback, and 4 reported a saturated system over a subgroup of order
    4; every p that is not a prime exits 2 with an error report."""
    argv = [command, "--group", files["s4"]] + [files.get(f, f)
                                                for f in flags]
    proc = _child(argv, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    rep = json.loads(proc.stderr)
    assert rep["command"] == command
    assert "is not a prime" in rep["error"]


def test_subprocess_entry_point(files):
    proc = _child(["saturation", "--group", files["s4"], "--sylow", "2"],
                  timeout=120)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["verdict"] is True
