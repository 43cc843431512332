import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import surflink
from surflink import bowtie, cli, fal_diagram, generator, surface_map
from surflink.errors import ParseError
from surflink.fal_diagram import diagrams_isomorphic, fill_all
from surflink.generator import generate_fal
from surflink.io import (
    diagram_from_json_dict,
    diagram_to_json_dict,
    dump_diagram,
    dumps_json,
    load_diagram,
)
from test_fal_diagram import THREE_BIGON_CROSSING, trefoil
from test_weak_primeness import connect_sum


@pytest.fixture
def diagram_file(tmp_path):
    d = generate_fal(2, 4, seed=1, require_checkerboard=True)
    path = tmp_path / "d.json"
    dump_diagram(d, str(path))
    return d, str(path)


class TestSerialization:
    def test_round_trip_identity(self, tmp_path):
        d = generate_fal(2, 5, seed=2, half_twist_probability=0.5)
        data = diagram_to_json_dict(d)
        back = diagram_from_json_dict(json.loads(json.dumps(data)))
        assert back.map.rotation == d.map.rotation
        assert dict(back.map.opposite) == dict(d.map.opposite)
        assert back.vertex_kind == d.vertex_kind
        assert back.genus == d.genus
        # Serialize -> parse -> serialize is the identity on the text form.
        assert dumps_json(diagram_to_json_dict(back)) == dumps_json(data)

    def test_filled_diagram_round_trip(self, tmp_path):
        from surflink.fal_diagram import fill_crossing_circle

        d = fill_crossing_circle(generate_fal(2, 4, seed=0), 0, 2)
        back = diagram_from_json_dict(diagram_to_json_dict(d))
        assert diagrams_isomorphic(back, d)

    def test_truncated_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [[0, 1')
        with pytest.raises(ParseError):
            load_diagram(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"vertices": [], "opposite": []}')
        with pytest.raises(ParseError):
            load_diagram(str(path))


class TestValidateCommand:
    def test_valid_diagram_exits_zero(self, diagram_file, capsys):
        _, path = diagram_file
        assert cli.main(["validate", path]) == 0
        assert "cellular: pass" in capsys.readouterr().out

    def test_json_report(self, diagram_file, capsys):
        _, path = diagram_file
        assert cli.main(["validate", path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["four_valent"]
        assert report["counts"]["c"] == 4
        assert report["properties"]["weakly_prime_witness"] is None

    def test_json_report_prints_the_weak_primeness_witness(self, tmp_path, capsys):
        d = connect_sum(generate_fal(2, 4, seed=1, require_checkerboard=True), trefoil(), 1, 0)
        path = tmp_path / "d.json"
        dump_diagram(d, str(path))
        # Exit 1: the trefoil's crossings meet no crossing circle.
        assert cli.main(["validate", str(path), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert not report["checks"]["crossings_anchored"]
        properties = report["properties"]
        assert properties["weakly_prime"] is False
        e1, e2 = properties["weakly_prime_witness"]
        m = d.map
        fs = surface_map.trace_faces(m)
        flanks = [{fs.face_of[e], fs.face_of[m.opposite[e]]} for e in (e1, e2)]
        assert flanks[0] == flanks[1] and len(flanks[0]) == 2
        fa, fb = sorted(flanks[0])
        a, b, disc_a, disc_b = surface_map.cut_along_two_cut(m, e1, e2, fa, fb)
        assert (disc_a and a.vertices) or (disc_b and b.vertices)

    def test_truncated_file_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert cli.main(["validate", str(path)]) == 2

    @pytest.mark.parametrize(
        "field,index,value",
        [
            ("half_twist", 0, "false"),
            ("half_twist", 0, 7),
            ("half_twist", 0, 0),
            ("half_twist_sign", 0, 0),
            ("half_twist_sign", 0, 1.9),
            ("half_twist_sign", 0, True),
            ("over_pair", 3, 1.0),
            ("over_pair", 3, True),
            ("genus", None, 2.0),
            ("genus", None, "2"),
            ("genus", None, None),
            ("vertices", 0, 0.0),
            ("opposite", 0, 0.0),
            ("half_twist", 3, 7),
            ("half_twist", 4, False),
            ("half_twist_sign", 3, "x"),
            ("half_twist_sign", 4, 1),
            ("over_pair", 0, 2.5),
            ("over_pair", 2, 0),
        ],
        ids=str,
    )
    def test_non_json_integer_or_boolean_exit_two(self, field, index, value, tmp_path, capsys):
        """Diagram fields take JSON integers and booleans only: a float, a
        bool for an integer or an integer for a bool is rejected, never
        truncated or coerced.  A field that does not apply to a vertex's
        kind takes only null.  Vertices 0-2 are circles, 3-4 crossings."""
        d = fill_all(generate_fal(2, 4, seed=1), {3: 1})
        data = diagram_to_json_dict(d)
        if field == "genus":
            data["genus"] = value
        elif field in ("vertices", "opposite"):
            data[field][0][index] = value
        else:
            data[field][index] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError):
            load_diagram(str(path))
        assert cli.main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize(
        "field,value,message",
        [
            # Every dart is type-checked before any pair is unpacked.
            ("opposite", [[0, 1, 2], [3, "x"]], "field 'opposite': 'x' is not an integer"),
            ("opposite", [[0, 1, 2]], "malformed diagram object: too many values to unpack (expected 2)"),
            ("vertices", [[0, 1.5]], "field 'vertices': 1.5 is not an integer"),
            ("opposite", None, "malformed diagram object: 'opposite'"),
        ],
        ids=["three-dart-pair-then-string", "three-dart-pair", "float-dart", "missing-opposite"],
    )
    def test_malformed_map_field_message(self, field, value, message, diagram_file, tmp_path, capsys):
        _, source = diagram_file
        with open(source) as fh:
            data = json.load(fh)
        if value is None:
            del data[field]
        else:
            data[field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# (g, c, seed) -> sha256 of `surflink generate` stdout at --half-twist-probability 0.3.
GOLDEN_GENERATE_STDOUT = {
    (2, 4, 1): "06f34c371d5696e85169d4117d36872886715f79a92f9e36cfaed524b815167e",
    (2, 9, 1): "fb794cbd61412f21595961e98fe3c567cb447f2c0b47f330235c1464f98ba00b",
    (3, 8, 1): "f39272d7a27336caa590538db08fb5d70729f8d1eafcebb3414d276aa94fd3cc",
    (2, 4, 2): "3da4483062b505df6cae0eb28840cee2ba081488490cf36747293831c6687986",
    (2, 9, 2): "105f2057d14ab319a8490f05edd7b25922fd67e5892ba22f797e8bf507bcded3",
    (3, 8, 2): "d6ddd40259a9113e86e99dd9485322fc45d65dfc55d73de2bc4b88092f4251f9",
    (2, 4, 3): "fe0522baf4bd5d2dc555208e75595d9d5c37ce6beb21f6ab1978fdb0dd1961cc",
    (2, 9, 3): "e86367f65933b608ab6b7d03ae511037d27621c6293fe6cddaf6b9920a3694f8",
    (3, 8, 3): "1567f2552159e4a9d0df8e02bdb2fd5c3a61f1ed1ea77afe50fa772e3e052449",
}


class TestGenerateCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        args = ["generate", "--genus", "2", "--circles", "3", "--seed", "1"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SLK_SEED", "7")
        assert cli.main(["generate", "--genus", "2", "--circles", "3"]) == 0
        with_env = capsys.readouterr().out
        assert cli.main(["generate", "--genus", "2", "--circles", "3", "--seed", "7"]) == 0
        assert capsys.readouterr().out == with_env

    def test_non_integer_env_seed_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SLK_SEED", "abc")
        assert cli.main(["generate", "--genus", "2", "--circles", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SLK_SEED must be an integer, got 'abc'\n"

    def test_impossible_parameters_exit_two(self, capsys):
        assert cli.main(["generate", "--genus", "2", "--circles", "2"]) == 2

    @pytest.mark.parametrize(
        "genus,circles,message",
        [
            (2, 10**8, f"100000000 circles are above the generator's cap of {generator.MAX_GENERATE_CIRCLES}"),
            (10**6, 2 * 10**6, f"genus 1000000 is above the generator's cap of {generator.MAX_GENERATE_GENUS}"),
        ],
        ids=["circles", "genus"],
    )
    def test_above_size_cap_exit_two(self, genus, circles, message, capsys):
        """Oversized requests are refused before any draw; both used to run
        for minutes."""
        assert cli.main(["generate", "--genus", str(genus), "--circles", str(circles)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: GenerationTooLarge: {message}\n"

    @pytest.mark.parametrize(
        "cap,value,at_cap,above_cap",
        [("MAX_GENERATE_CIRCLES", 12, (2, 12), (2, 13)), ("MAX_GENERATE_GENUS", 3, (3, 5), (4, 7))],
        ids=["circles", "genus"],
    )
    def test_size_cap_boundary(self, cap, value, at_cap, above_cap, monkeypatch, capsys):
        monkeypatch.setattr(generator, cap, value)
        for (genus, circles), code in ((at_cap, 0), (above_cap, 2)):
            argv = ["generate", "--genus", str(genus), "--circles", str(circles), "--seed", "1"]
            assert cli.main(argv) == code
        assert capsys.readouterr().err.startswith("error: GenerationTooLarge: ")

    @pytest.mark.parametrize("value", ["7", "-0.1", "nan", "x"])
    def test_bad_probability_exit_two(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(
                ["generate", "--genus", "2", "--circles", "4", "--half-twist-probability", value]
            )
        assert exc.value.code == 2
        assert "error: argument --half-twist-probability" in capsys.readouterr().err

    def test_golden_digest(self, tmp_path):
        import hashlib

        out = tmp_path / "g.json"
        cli.main(
            ["generate", "--genus", "2", "--circles", "3", "--seed", "1", "-o", str(out)]
        )
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        # Frozen at first build; regenerating with the same seed must never drift.
        assert digest == GOLDEN_G2C3S1


    @pytest.mark.parametrize("g,c,seed", sorted(GOLDEN_GENERATE_STDOUT), ids=str)
    def test_stdout_golden_digest(self, g, c, seed, capsys):
        """sha256 of `generate` stdout with half-twists sprinkled in, taken
        from the per-step-map generator before growth moved onto flat
        state; the rng stream and every byte of output must not drift."""
        import hashlib

        args = ["generate", "--genus", str(g), "--circles", str(c), "--seed", str(seed)]
        assert cli.main(args + ["--half-twist-probability", "0.3"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN_GENERATE_STDOUT[g, c, seed]


GOLDEN_G2C3S1 = "859c1bf210ed34a2b10c319d0d250746a8b9357ccc7d247be16ace9b670c9663"


# Mixed-sign coefficients for `surflink fill`, the first c for c circles.
FILL_T = (1, -2, 3, -1, 2, -3, -1, 1, -2)

# (g, c, seed) -> sha256 of `surflink fill --t=FILL_T[:c]` stdout on the
# diagram `generate` prints at --half-twist-probability 0.3.
GOLDEN_FILL_STDOUT = {
    (2, 4, 1): "fc4c34040b989b9bc6470e81e3bfc826023999d3cd6e698636cebdc66e495145",
    (2, 9, 1): "e9313ea53dcad7a32e280e841b9b168580f26fd29b25f3fbba0c04d28d82edfb",
    (3, 8, 1): "ddcf7f4488679d21affa415ebd08022e32dbb7d3e671224b8d9ae7456b1062bc",
    (2, 4, 2): "46cc27f22797c99115ed879ff0548954b6f06fc6e0f75b451178c0667322f83e",
    (2, 9, 2): "3d22974f1574e0ccd72d4af58857a73419de0811f2e2b6d1445addb4fa6d647c",
    (3, 8, 2): "23b8d5b70fdc5529324532a4785d6d4c79020892774b341c60c6ef8e3462a6cc",
    (2, 4, 3): "15dabcbdfc80e782804da64e4b234c4814d112be105b43605b5a44d10929e063",
    (2, 9, 3): "cef15b230313960783138dec18e2353bec663c37c79438f41db0cba3f41bc8e6",
    (3, 8, 3): "14648cd588c87e404ae8e86650fab524e59651f4b202f3b3829212dab7304d56",
}


class TestFillAndAugmentCommands:
    def test_fill_then_augment_round_trip(self, diagram_file, tmp_path, capsys):
        d, path = diagram_file
        filled = tmp_path / "filled.json"
        assert cli.main(["fill", path, "--t", "2,-1,3,1", "-o", str(filled)]) == 0
        restored = tmp_path / "restored.json"
        assert cli.main(["augment", str(filled), "-o", str(restored)]) == 0
        assert diagrams_isomorphic(load_diagram(str(restored)), d)

    def test_zero_coefficient_exit_two(self, diagram_file):
        _, path = diagram_file
        assert cli.main(["fill", path, "--t", "1,0,1,1"]) == 2

    def test_wrong_count_exit_two(self, diagram_file):
        _, path = diagram_file
        assert cli.main(["fill", path, "--t", "1,2"]) == 2

    def test_non_integer_coefficient_exit_two(self, diagram_file, capsys):
        _, path = diagram_file
        assert cli.main(["fill", path, "--t", "1,x,1,1"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_fill_above_crossing_cap_exit_two(self, diagram_file, capsys):
        """Fillings past MAX_FILL_CROSSINGS are refused before any surgery;
        a coefficient of 10**10 used to exit 3 with MemoryError."""
        d, path = diagram_file
        assert cli.main(["fill", path, "--t=10000000000,1,1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: FillTooLarge: filling circle {d.circles[0]} brings the added "
            f"crossings to 20000000006, above the cap of {fal_diagram.MAX_FILL_CROSSINGS}\n"
        )

    def test_fill_crossing_cap_boundary(self, diagram_file, monkeypatch, capsys):
        # 2|t| crossings per circle: 6 + 2 + 2 + 2 = 12 is at the cap, 14 above it.
        _, path = diagram_file
        monkeypatch.setattr(fal_diagram, "MAX_FILL_CROSSINGS", 12)
        assert cli.main(["fill", path, "--t=3,-1,1,1"]) == 0
        assert cli.main(["fill", path, "--t=3,-1,1,2"]) == 2
        assert capsys.readouterr().err.startswith("error: FillTooLarge: ")

    @pytest.mark.parametrize("command", ["fill", "augment"])
    def test_wrong_declared_genus_exit_two(self, command, diagram_file, tmp_path, capsys):
        """A declared genus the map does not have is bad input, refused as
        decompose and bounds refuse it, not an error in the surgery."""
        d, path = diagram_file
        if command == "augment":
            path = str(tmp_path / "filled.json")
            dump_diagram(fill_all(d, {k: 1 for k in d.circles}), path)
        data = json.loads(Path(path).read_text())
        data["genus"] = 5
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        argv = [command, str(bad)] + (["--t=1,1,1,1"] if command == "fill" else [])
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: NotCellular: map genus 2 differs from declared genus 5\n"

    @pytest.mark.parametrize("command", ["fill", "augment"])
    def test_wrong_declared_genus_with_nothing_to_rewrite_exit_two(self, command, diagram_file, tmp_path, capsys):
        """`fill --t ""` on a diagram without circles and augment on one
        without crossings used to exit 0 and write the wrong genus back."""
        d, path = diagram_file
        if command == "fill":
            path = str(tmp_path / "filled.json")
            dump_diagram(fill_all(d, {k: 1 for k in d.circles}), path)
        data = json.loads(Path(path).read_text())
        data["genus"] = 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        argv = [command, str(bad)] + (["--t", ""] if command == "fill" else [])
        assert cli.main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: NotCellular: map genus 2 differs from declared genus 3\n"

    @pytest.mark.parametrize("g,c,seed", sorted(GOLDEN_FILL_STDOUT), ids=str)
    def test_stdout_golden_digest(self, g, c, seed, tmp_path, capsys):
        """sha256 of `fill` stdout on generated diagrams with half-twists,
        taken when circles were filled one map build at a time."""
        import hashlib

        args = ["generate", "--genus", str(g), "--circles", str(c), "--seed", str(seed)]
        assert cli.main(args + ["--half-twist-probability", "0.3"]) == 0
        path = tmp_path / "d.json"
        path.write_text(capsys.readouterr().out)
        t = ",".join(map(str, FILL_T[:c]))
        assert cli.main(["fill", str(path), f"--t={t}"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == GOLDEN_FILL_STDOUT[g, c, seed]


# (g, c, seed) -> sha256 of `surflink augment` stdout on the `fill` output
# that GOLDEN_FILL_STDOUT pins; region order and boundary darts fix the
# vertex order and dart numbering, so these pin more than isomorphism.
GOLDEN_AUGMENT_STDOUT = {
    (2, 4, 1): "050ea53aaf14358e6723da41fff92ee5af33d28f5204d72e743b698a9eea4acc",
    (2, 4, 2): "bacbb717d17f384d5049401d4f2149779a8055af257f9a8ebaf779275c3dde69",
    (2, 4, 3): "daed60953d9deb533088946d6f27fc656e83ebaadec06d1be611d3fc1e7a28cf",
    (2, 9, 1): "2748a20ea9b425fd35e88189b544c60bc61041aa2438dfee1cf4021a83541046",
    (2, 9, 2): "bacfc9562cc599909b1b77cff96c283cbdf920c32de0359d799021659b6a63f0",
    (2, 9, 3): "4b8d6f0f2765d39bd3b3f7852c4ca12547d65882bc1b174a1cd2513efaf47071",
    (3, 8, 1): "82a35884e621138fdedcd30ba029d3d5f790be96eedf62147d0ff9adcb2eb189",
    (3, 8, 2): "1e1bc4e668c1f97f58d794658ae33f5d54b035825e34c68c542e469e19e970ba",
    (3, 8, 3): "ec6ee875dc76d77eee21725c5b149b9a180cde68c0354d64a7ae6a5f98c07b05",
}


@pytest.mark.parametrize("g,c,seed", sorted(GOLDEN_AUGMENT_STDOUT), ids=str)
def test_augment_stdout_golden_digest(g, c, seed, tmp_path, capsys):
    import hashlib

    args = ["generate", "--genus", str(g), "--circles", str(c), "--seed", str(seed)]
    assert cli.main(args + ["--half-twist-probability", "0.3"]) == 0
    path = tmp_path / "d.json"
    path.write_text(capsys.readouterr().out)
    t = ",".join(map(str, FILL_T[:c]))
    assert cli.main(["fill", str(path), f"--t={t}"]) == 0
    filled = capsys.readouterr().out
    assert hashlib.sha256(filled.encode()).hexdigest() == GOLDEN_FILL_STDOUT[g, c, seed]
    path.write_text(filled)
    assert cli.main(["augment", str(path)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_AUGMENT_STDOUT[g, c, seed]


def _augment_refused(tmp_path, data):
    """Run `surflink augment` on data and check it exits 2 with one error line."""
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    src = os.path.dirname(os.path.dirname(surflink.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "surflink.cli", "augment", str(path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: MalformedMap:")


def test_augment_crossing_in_three_bigons_exits_two(tmp_path):
    """The former twist-region walk never ended on this diagram."""
    _augment_refused(tmp_path, THREE_BIGON_CROSSING)


def test_augment_six_valent_crossing_exits_two(tmp_path):
    """augment used to exit 0 here and write a 6-valent crossing circle,
    which decompose then rejected."""
    _augment_refused(tmp_path, ONE_CROSSING_NOT_FOUR_VALENT["six_valent"])


def _one_circle(genus, vertex, pairs):
    return {
        "vertices": [vertex],
        "opposite": pairs,
        "genus": genus,
        "vertex_kind": ["circle"],
        "over_pair": [None],
        "half_twist": [False],
        "half_twist_sign": [1],
    }


def _one_crossing(genus, vertex, pairs):
    kinds = {"vertex_kind": ["crossing"], "over_pair": [0], "half_twist": [None], "half_twist_sign": [None]}
    return {**_one_circle(genus, vertex, pairs), **kinds}


ONE_CROSSING_NOT_FOUR_VALENT = {
    "six_valent": _one_crossing(1, [0, 1, 2, 3, 4, 5], [[0, 3], [1, 4], [2, 5]]),
    "eight_valent": _one_crossing(2, list(range(8)), [[0, 2], [1, 3], [4, 6], [5, 7]]),
}


@pytest.mark.parametrize("command", ["fill", "augment", "bounds", "family"])
@pytest.mark.parametrize("name", sorted(ONE_CROSSING_NOT_FOUR_VALENT))
def test_every_operation_refuses_a_crossing_not_four_valent(command, name, tmp_path, capsys):
    """The FAL precondition checks crossings before circles.  fill used to
    exit 0 and write these crossings back; bounds and family used to print
    a certificate for the genus-2 one and refuse the genus-1 one for its
    genus.  decompose refuses any crossing before the precondition."""
    data = ONE_CROSSING_NOT_FOUR_VALENT[name]
    if command == "family":
        data = {"kind": "TrivialMappingTorus", "base": data, "gamma_odd": "a1", "gamma_even": "b1", "m": 0}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    extra = {"fill": ["--t="], "bounds": ["--m", "2"]}.get(command, [])
    assert cli.main([command, str(path)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    degree = {"six_valent": 6, "eight_valent": 8}[name]
    assert captured.err == f"error: MalformedMap: crossing 0 has degree {degree}, not 4\n"


ONE_CIRCLE_NOT_FOUR_VALENT = {
    "six_valent": _one_circle(1, [0, 1, 2, 3, 4, 5], [[0, 3], [1, 4], [2, 5]]),
    "two_valent": _one_circle(0, [0, 1], [[0, 1]]),
    "eight_valent": _one_circle(2, list(range(8)), [[0, 2], [1, 3], [4, 6], [5, 7]]),
}


@pytest.mark.parametrize("command", ["fill", "augment", "decompose", "bounds", "family"])
@pytest.mark.parametrize("name", sorted(ONE_CIRCLE_NOT_FOUR_VALENT))
def test_every_operation_refuses_a_circle_not_four_valent(command, name, tmp_path, capsys):
    """Each operation checks the FAL precondition on entry.  fill used to
    exit 3 on the 8-valent circle and 2 with a message about its own
    output on the others; augment used to exit 0."""
    data = ONE_CIRCLE_NOT_FOUR_VALENT[name]
    if command == "family":
        data = {"kind": "TrivialMappingTorus", "base": data, "gamma_odd": "a1", "gamma_even": "b1", "m": 0}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    extra = {"fill": ["--t=1"], "bounds": ["--m", "2"]}.get(command, [])
    assert cli.main([command, str(path)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: MalformedMap: circle vertex 0 has degree ")


# Genus 1 is what chi = 0 gives, so only the empty-map guard refuses it.
EMPTY_DIAGRAM = {
    "vertices": [],
    "opposite": [],
    "genus": 1,
    "vertex_kind": [],
    "over_pair": [],
    "half_twist": [],
    "half_twist_sign": [],
}


@pytest.mark.parametrize("command", ["validate", "decompose", "fill", "augment", "bounds", "family"])
def test_every_command_refuses_the_empty_map(command, tmp_path, capsys):
    """The empty map traces no faces, so chi = 0 read it as cellular on
    the torus: validate, decompose, fill and augment used to exit 0."""
    data = EMPTY_DIAGRAM
    if command == "family":
        data = {"kind": "TrivialMappingTorus", "base": data, "gamma_odd": "a1", "gamma_even": "b1", "m": 0}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    extra = {"fill": ["--t="]}.get(command, [])
    assert cli.main([command, str(path), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: NotCellular: map has no vertices\n"


class TestDecomposeCommand:
    def test_counts_for_minimal_genus_two(self, tmp_path, capsys):
        d = generate_fal(2, 3, seed=0)
        path = tmp_path / "d.json"
        dump_diagram(d, str(path))
        assert cli.main(["decompose", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["white_faces"] == 1
        assert report["counts"]["shaded_triangles"] == 6
        assert report["counts"]["nerve"] == [1, 9, 6]

    def test_gluing_export(self, tmp_path, capsys):
        d = generate_fal(2, 3, seed=0)
        path = tmp_path / "d.json"
        dump_diagram(d, str(path))
        table = tmp_path / "gluing.txt"
        assert (
            cli.main(["decompose", str(path), "--export-gluing", str(table), "--json"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["counts"]["tetrahedra"] == 66
        assert len(table.read_text().strip().splitlines()) == 66

    def test_noncellular_exit_two(self, tmp_path, capsys):
        d = generate_fal(2, 4, seed=0)
        data = diagram_to_json_dict(d)
        data["genus"] = 3  # wrong surface: faces are no longer discs
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.main(["decompose", str(path)]) == 2

    def test_circle_not_four_valent_exit_two_under_optimize(self, tmp_path):
        # Under -O no assert runs, so the degree check itself must reject.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(ONE_CIRCLE_NOT_FOUR_VALENT["six_valent"]))
        src = os.path.dirname(os.path.dirname(surflink.__file__))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "surflink.cli", "decompose", str(path)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr

    def test_export_gluing_triangulates_once(self, tmp_path, monkeypatch):
        calls = []
        original = bowtie.triangulate_white_faces

        def counting(d):
            calls.append(d)
            return original(d)

        # Patch every module binding, as a caller importing the name would see it.
        for module in (bowtie, cli):
            monkeypatch.setattr(module, "triangulate_white_faces", counting, raising=False)
        path = tmp_path / "d.json"
        dump_diagram(generate_fal(2, 4, seed=1), str(path))
        table = tmp_path / "gluing.txt"
        args = ["decompose", str(path), "--json", "--export-gluing", str(table)]
        assert cli.main(args) == 0
        assert len(calls) == 1


class TestBoundsCommand:
    def test_upper_only_for_trivial_kind(self, diagram_file, capsys):
        """The prism bound covers Sigma x S^1 over the base alone, so it is
        printed only for m = 0: at m = 50 the prism count gives 85.26, under
        the cusp bound 106.57."""
        _, path = diagram_file
        assert cli.main(["bounds", path, "--m", "0", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["lower"] <= report["upper"]
        for argv in (["--m", "2"], ["--m", "50"], ["--m", "0", "--kind", "MappingTorus"]):
            assert cli.main(["bounds", path, *argv, "--json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["upper"] is None
            assert report["lower"] > 0

    def test_wrong_declared_genus_exit_two(self, tmp_path, capsys):
        data = diagram_to_json_dict(generate_fal(2, 4, seed=1))
        data["genus"] = 5
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert cli.main(["bounds", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NotCellular" in captured.err

    def test_empty_diagram_exit_two(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"genus": 2, "vertices": [], "opposite": [], "vertex_kind": []}))
        assert cli.main(["bounds", str(path), "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NotCellular" in captured.err

    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_layer_count_names_the_option(self, value, diagram_file, capsys):
        # A negative m is a bad option, not a malformed map.
        _, path = diagram_file
        with pytest.raises(SystemExit) as exc:
            cli.main(["bounds", path, "--m", value])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --m: " in captured.err
        assert "MalformedMap" not in captured.err

    def test_zero_layer_count_accepted(self, diagram_file, capsys):
        _, path = diagram_file
        assert cli.main(["bounds", path, "--m", "0", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["counts"]["m"] == 0


class TestFamilyCommand:
    def _write_spec(self, tmp_path, diagram_path, extra):
        spec = {
            "kind": "TrivialMappingTorus",
            "base": diagram_path,
            "gamma_odd": "a1",
            "gamma_even": "b1",
            "m": 2,
        }
        spec.update(extra)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_doubled_spec_beats_volume_target(self, diagram_file, tmp_path, capsys):
        from surflink.constructions import plan_volume_target

        _, path = diagram_file
        m = plan_volume_target(100)
        spec = self._write_spec(
            tmp_path, path, {"kind": "DoubledThickenedSurface", "m": m}
        )
        assert cli.main(["family", spec, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"]["lower"] > 100
        assert report["cusp_count"] == 2 * (4 + 1) + 2 * m

    @pytest.mark.parametrize(
        "kind,extra,bad",
        [
            ("TrivialMappingTorus", {}, "base"),
            ("MappingTorus", {"phi": [["a1", 1], ["b1", 1]]}, "base"),
            ("DoubledThickenedSurface", {}, "base"),
            ("DoubledThickenedSurface", {}, "base2"),
        ],
        ids=["trivial", "mapping-torus", "doubled-base", "doubled-base2"],
    )
    def test_base_not_cellular_exit_two(self, kind, extra, bad, diagram_file, tmp_path, capsys):
        """A genus-3 map declared as genus 2 is not cellular on its declared
        surface: `family` refuses it as `bounds` does, instead of printing
        bounds for the declared genus."""
        _, good = diagram_file
        data = diagram_to_json_dict(generate_fal(3, 6, seed=1))
        data["genus"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        extra = dict(extra, kind=kind)
        if bad == "base2":
            extra["base2"] = str(path)
        spec = self._write_spec(tmp_path, str(path) if bad == "base" else good, extra)
        assert cli.main(["family", spec, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "NotCellular" in captured.err

    def test_trivial_monodromy_exit_two(self, diagram_file, tmp_path, capsys):
        _, path = diagram_file
        spec = self._write_spec(
            tmp_path, path, {"kind": "MappingTorus", "phi": [["a1", 1], ["a1", -1]]}
        )
        assert cli.main(["family", spec]) == 2
        assert "hyperelliptic" in capsys.readouterr().err

    def test_wga_pipeline_reports_twist_regions(self, diagram_file, tmp_path, capsys):
        _, path = diagram_file
        spec = self._write_spec(
            tmp_path,
            path,
            {"t": [1, 2], "s": [2, 1, 3, 1]},
        )
        assert cli.main(["family", spec, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["wga"]["twist_regions"] == 4
        assert report["wga"]["alternating"]

    def test_null_homologous_pair_certified_by_the_oracle(self, diagram_file, tmp_path, capsys):
        """a1b1A1B1 is a commutator, so the classes pair to zero on homology
        and the certificate comes from the geometric oracle."""
        _, path = diagram_file
        spec = self._write_spec(tmp_path, path, {"gamma_odd": "a1b1A1B1", "gamma_even": "b1b2", "m": 3})
        assert cli.main(["family", spec, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["certificates"]["intersection"] == ["oracle", 2]

    def test_spliced_trefoil_is_not_weakly_prime_exit_one(self, tmp_path, capsys):
        d = connect_sum(generate_fal(2, 4, seed=1, require_checkerboard=True), trefoil(), 1, 0)
        path = tmp_path / "d.json"
        dump_diagram(d, str(path))
        spec = self._write_spec(tmp_path, str(path), {"m": 0, "s": [1, 1, 1, 1]})
        assert cli.main(["family", spec, "--json"]) == 1
        wga = json.loads(capsys.readouterr().out)["wga"]
        assert wga["weakly_prime"] is False
        assert wga["wga_positive"] is False

    @pytest.mark.parametrize(
        "extra,printed",
        [
            ({"m": 0}, True),
            ({"m": 0, "s": [2, 1, 3, 1]}, False),
            ({"m": 2}, False),
            ({"m": 2, "t": [1, 2]}, False),
        ],
        ids=["bare", "circle-filled", "layered", "annular-filled"],
    )
    def test_upper_only_without_layers_or_fills(self, extra, printed, diagram_file, tmp_path, capsys):
        _, path = diagram_file
        spec = self._write_spec(tmp_path, path, extra)
        assert cli.main(["family", spec, "--json"]) in (0, 1)
        bounds = json.loads(capsys.readouterr().out)["bounds"]
        assert (bounds["upper"] is not None) == printed
        if printed:
            assert bounds["lower"] <= bounds["upper"]

    def test_missing_field_exit_two(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "TrivialMappingTorus"}))
        assert cli.main(["family", str(path)]) == 2

    def test_spec_not_an_object_exit_two(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("5")
        assert cli.main(["family", str(path)]) == 2

    @pytest.mark.parametrize(
        "extra",
        [
            {"m": -1},
            {"m": "x"},
            {"m": 2.5},
            {"m": True},
            {"t": ["x"]},
            {"t": [1.9, 1]},
            {"kind": "MappingTorus", "phi": 5},
            {"kind": "MappingTorus", "phi": [["b1", "x"]]},
            {"kind": "MappingTorus", "phi": [[5, 1]]},
            {"gamma_odd": ["x", 0, 0, 0]},
        ],
        ids=[
            "m-negative",
            "m-text",
            "m-float",
            "m-bool",
            "t-text",
            "t-float",
            "phi-number",
            "phi-exponent-text",
            "phi-curve-number",
            "gamma-entry-text",
        ],
    )
    def test_malformed_field_exit_two(self, extra, diagram_file, tmp_path, capsys):
        _, path = diagram_file
        spec = self._write_spec(tmp_path, path, extra)
        assert cli.main(["family", spec]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "extra,name,cls",
        [
            ({"gamma_odd": "a1a1"}, "gamma_odd", "[2, 0, 0, 0]"),
            ({"gamma_even": [0, 3, 0, -3]}, "gamma_even", "[0, 3, 0, -3]"),
        ],
        ids=["word-a1a1", "vector"],
    )
    def test_non_primitive_layer_curve_exit_two(self, extra, name, cls, diagram_file, tmp_path, capsys):
        """No simple closed curve has a nonzero class with a common factor
        > 1, so a layer curve of class 2[a1] is refused, not certified by
        its pairing 2 with b1."""
        _, path = diagram_file
        spec = self._write_spec(tmp_path, path, extra)
        assert cli.main(["family", spec, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: NonPrimitiveClass: {name} has class {cls}, ")

    @pytest.mark.parametrize("s0", [2**40, 10**30, -(2**40)], ids=["2^40", "10^30", "-2^40"])
    def test_crossing_circle_fill_above_cap_exit_two(self, s0, diagram_file, tmp_path, capsys):
        """An `s` entry of 2**40 used to exit 3 with MemoryError, and one of
        10**30 with OverflowError."""
        _, path = diagram_file
        spec = self._write_spec(tmp_path, path, {"s": [s0, 1, 1, 1]})
        assert cli.main(["family", spec, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: FillTooLarge: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["TrivialMappingTorus", "DoubledThickenedSurface"])
    def test_layer_count_costs_nothing(self, kind, diagram_file, tmp_path, capsys):
        """m names a count, not 2m records: m = 10**12 used to run out of
        memory."""
        d, path = diagram_file
        m = 10**12
        spec = self._write_spec(tmp_path, path, {"kind": kind, "m": m})
        assert cli.main(["family", spec, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        bases = 2 if kind == "DoubledThickenedSurface" else 1
        assert report["counts"]["m"] == m
        assert report["cusp_count"] == bases * (d.l + d.c) + 2 * m

    @pytest.mark.parametrize("justification", [None, "trust me", "Twisted"])
    def test_inconclusive_monodromy_refused_whatever_the_spec_says(
        self, justification, diagram_file, tmp_path, capsys
    ):
        """T_b1 fixes b1, so no certificate says the monodromy moves
        gamma_even.  A free-text gamma_even_justification used to be printed
        as that certificate with exit 0; the field is no longer read."""
        _, path = diagram_file
        extra = {"kind": "MappingTorus", "phi": [["b1", 1]]}
        if justification is not None:
            extra["gamma_even_justification"] = justification
        spec = self._write_spec(tmp_path, path, extra)
        assert cli.main(["family", spec, "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: MonodromyActsTrivially: monodromy action on gamma_even is "
            f"homology-inconclusive\n{cli.INCONCLUSIVE_NOTE}\n"
        )

    @pytest.mark.parametrize(
        "flag,code",
        [(True, 0), (False, 2), ("false", 2), (1, 2)],
        ids=["true", "false", "text", "one"],
    )
    def test_assert_intersection_must_be_boolean(self, flag, code, diagram_file, tmp_path, capsys):
        """a1 and a2 have pairing zero and no oracle evidence, so only a real
        `true` may stand in for the intersection certificate."""
        _, path = diagram_file
        spec = self._write_spec(
            tmp_path, path, {"gamma_even": "a2", "assert_intersection": flag}
        )
        assert cli.main(["family", spec, "--json"]) == code
        captured = capsys.readouterr()
        if code == 0:
            report = json.loads(captured.out)
            assert report["certificates"]["intersection"] == ["asserted", None]
        else:
            assert captured.out == ""
            assert captured.err.startswith("error: ")


FAMILY_BASE = generate_fal(2, 4, seed=1, require_checkerboard=True)
FAMILY_BASE2 = generate_fal(2, 3, seed=1)  # l + c = 4, against 5 for FAMILY_BASE


@pytest.mark.parametrize("kind", ["TrivialMappingTorus", "MappingTorus", "DoubledThickenedSurface"])
@given(
    t=st.lists(st.integers(1, 3), min_size=3, max_size=3),
    s=st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=4, max_size=4),
)
@settings(max_examples=10, deadline=None)
def test_family_lower_bound_reads_the_cusp_count(tmp_path_factory, kind, t, s):
    """`family` prints Adams's bound cusp_count * v_tet for m = 0..3, with
    and without each filling.  With crossing circles filled the count is
    the filled diagram's strands, plus base2's strands and circles, plus
    2m layer curves unless annularly filled."""
    signs = fal_diagram.choose_alternating_signs(FAMILY_BASE)
    coefficients = {k: e * abs(sk) for k, e, sk in zip(FAMILY_BASE.circles, signs, s)}
    filled_l = fill_all(FAMILY_BASE, coefficients).l
    spec_dir = tmp_path_factory.mktemp("family")
    for m in range(4):
        for with_t in (False, True):
            for with_s in (False, True):
                spec = {"kind": kind, "base": diagram_to_json_dict(FAMILY_BASE), "m": m}
                spec.update(gamma_odd="a1", gamma_even="b1", phi=[["a1", 1], ["b1", 1]])
                if kind == "DoubledThickenedSurface":
                    spec["base2"] = diagram_to_json_dict(FAMILY_BASE2)
                if with_t:
                    spec["t"] = t[:m]
                if with_s:
                    spec["s"] = s
                path = spec_dir / "spec.json"
                path.write_text(json.dumps(spec))
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    assert cli.main(["family", str(path), "--json"]) in (0, 1)
                report = json.loads(out.getvalue())
                lower = report["cusp_count"] * bowtie.V_TET
                assert abs(report["bounds"]["lower"] - lower) <= 1e-9, spec
                if with_s:
                    expected = filled_l + (0 if with_t else 2 * m)
                    if kind == "DoubledThickenedSurface":
                        expected += FAMILY_BASE2.l + FAMILY_BASE2.c
                    assert report["cusp_count"] == expected, spec


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--genus", "2", "--circles", "4", "-o"],
        ["augment", "DIAGRAM", "-o"],
        ["fill", "DIAGRAM", "--t", "2,-1,3,1", "-o"],
        ["decompose", "DIAGRAM", "--json", "--export-gluing"],
    ],
    ids=["generate", "augment", "fill", "decompose"],
)
def test_unwritable_output_exits_two(argv, target, diagram_file, tmp_path, capsys):
    """An output path in a missing directory, or naming a directory, is bad
    input: one error line, nothing on stdout."""
    _, path = diagram_file
    out = str(tmp_path / "nodir" / "out.txt") if target == "missing_dir" else str(tmp_path)
    assert cli.main([path if a == "DIAGRAM" else a for a in argv] + [out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out}: ")
    assert captured.err.count("\n") == 1


class TestInternalError:
    # Breaks the boundary-triangle law T = 6c + 4g - 4 that
    # triangulate_white_faces checks.
    BREAK_TRIANGLE_LAW = (
        "from surflink import bowtie\n"
        "bowtie.SurfaceTriangulation.triangle_count = property(\n"
        "    lambda self: len(self.triangles) + 1\n"
        ")\n"
    )

    def test_broken_counting_law_exits_three(self, monkeypatch, diagram_file, capsys):
        monkeypatch.setattr(
            bowtie.SurfaceTriangulation,
            "triangle_count",
            property(lambda self: len(self.triangles) + 1),
        )
        _, path = diagram_file
        assert cli.main(["decompose", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal: InternalInvariant: ")
        assert "expected 6c + 4g - 4" in captured.err

    def test_broken_counting_law_exits_three_under_optimize(self, diagram_file):
        # Under -O no assert runs; the law must still be checked.
        _, path = diagram_file
        src = os.path.dirname(os.path.dirname(surflink.__file__))
        script = (
            self.BREAK_TRIANGLE_LAW
            + "import sys\nfrom surflink import cli\n"
            + f"sys.exit(cli.main(['decompose', {path!r}]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: internal: InternalInvariant: ")
        assert proc.stderr.count("\n") == 1

    def test_odd_euler_characteristic_exits_three(self, monkeypatch, diagram_file, capsys):
        # One face too many makes the Euler characteristic odd, which no
        # valid map can give: an internal failure, not bad input.
        traced = surface_map.trace_faces

        def one_face_more(m):
            fs = traced(m)
            return surface_map.FaceSet(fs.faces + ((),), fs.face_of)

        monkeypatch.setattr(surface_map, "trace_faces", one_face_more)
        _, path = diagram_file
        assert cli.main(["validate", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: InternalInvariant: odd Euler characteristic -1\n"

    def test_unexpected_exception_exits_three(self, monkeypatch, diagram_file, capsys):
        def broken(args):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setattr(cli, "cmd_validate", broken)
        _, path = diagram_file
        assert cli.main(["validate", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal: RuntimeError: boom second line\n"


class TestCurvesCommand:
    def test_intersect(self, capsys):
        assert cli.main(["curves", "intersect", "a1", "b1", "--genus", "2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"algebraic": 1, "command": "curves intersect", "geometric": 1}

    def test_reduce_relator(self, capsys):
        assert (
            cli.main(["curves", "reduce", "a1b1A1B1a2b2A2B2", "--genus", "2", "--json"])
            == 0
        )
        assert json.loads(capsys.readouterr().out)["reduced"] == ""

    def test_conjugate_exit_codes(self, capsys):
        assert cli.main(["curves", "conjugate", "a1", "b1a1B1", "--genus", "2"]) == 0
        assert cli.main(["curves", "conjugate", "a1", "b1", "--genus", "2"]) == 1

    @pytest.mark.parametrize("action", [["reduce", "a1"], ["intersect", "a1", "b1"]])
    @pytest.mark.parametrize("value", ["-1", "x"])
    def test_bad_budget_exit_two(self, action, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["curves", *action, "--genus", "2", "--budget", value])
        assert exc.value.code == 2
        assert "error: argument --budget" in capsys.readouterr().err

    def test_zero_budget_accepted(self, capsys):
        assert cli.main(["curves", "reduce", "a1", "--genus", "2", "--budget", "0"]) == 0

    @pytest.mark.parametrize(
        "action,word,other,default,message",
        [
            ("intersect", "a1b1" * 8 + "a1", "b1", 16, "words of length 17, 1 exceed budget 16"),
            ("conjugate", "a1b1" * 32 + "a1", "a1", 64, "word of length 65 exceeds budget 64"),
        ],
        ids=["intersect", "conjugate"],
    )
    def test_default_budget_is_the_library_default(self, action, word, other, default, message, capsys):
        """Without --budget the library's default applies, and giving that
        default explicitly prints the same."""
        outputs = []
        for extra in ([], ["--budget", str(default)]):
            code = cli.main(["curves", action, word, other, "--genus", "2", *extra])
            outputs.append((code, capsys.readouterr()))
        assert outputs[0] == outputs[1]
        code, captured = outputs[0]
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: LengthBudgetExceeded: {message}\n"

    def test_bad_word_exit_two(self, capsys):
        assert cli.main(["curves", "reduce", "z9", "--genus", "2"]) == 2

    @pytest.mark.parametrize(
        "words",
        [["intersect", "a1"], ["reduce", "a1", "b1"], ["conjugate", "a1", "b1", "a2"]],
    )
    def test_wrong_word_count_exit_two(self, words, capsys):
        assert cli.main(["curves", *words, "--genus", "2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "words", [["intersect", "a1", "b1"], ["reduce", "a1b1"], ["conjugate", "a1", "b1"]]
    )
    def test_genus_above_cap_exit_two(self, words, capsys):
        """A genus past MAX_CURVES_GENUS is refused before any vector of 2g
        entries is built."""
        genus = str(cli.MAX_CURVES_GENUS + 1)
        assert cli.main(["curves", *words, "--genus", genus]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: --genus {genus} is above the cap of ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "words", [["intersect", "a1", "b1"], ["reduce", "a1b1"], ["conjugate", "a1", "b1"]]
    )
    def test_genus_one_is_too_small(self, words, capsys):
        assert cli.main(["curves", *words, "--genus", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: GenusTooSmall: surface-group reduction needs genus >= 2\n"
