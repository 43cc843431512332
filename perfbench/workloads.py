"""The four benchmark workloads: seeded inputs, items, and output checks.

Each workload builds its inputs in ``setup`` (before timing starts) and
hands out its pool of distinct items from ``items``; the loop runs the
whole pool round after round.  An item is a callable that drives the
program and returns the names of the output checks it failed (an empty
list when every check passed).  Inputs depend only on the seed.

Checks are ones any correct version of surflink passes: counting laws,
round trips, oracle laws, independent recomputation of homology
certificates, CLI exit codes and byte-identical CLI output.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path


def item_seed(*parts) -> int:
    return random.Random("/".join(map(str, parts))).getrandbits(32)


# -- words and homology, computed independently of the program -----------------


def random_word(rng: random.Random, n: int, g: int) -> tuple:
    letters = [x for x in range(-2 * g, 2 * g + 1) if x]
    w: list[int] = []
    while len(w) < n:
        x = rng.choice(letters)
        if not w or w[-1] != -x:
            w.append(x)
    return tuple(w)


def inverse(w) -> tuple:
    return tuple(-x for x in reversed(w))


def free_reduce(w) -> tuple:
    out: list[int] = []
    for x in w:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def relator(g: int) -> tuple:
    r: list[int] = []
    for i in range(g):
        a, b = 2 * i + 1, 2 * i + 2
        r.extend((a, b, -a, -b))
    return tuple(r)


def word_text(w) -> str:
    out = []
    for x in w:
        kind = "a" if abs(x) % 2 == 1 else "b"
        out.append(f"{kind.upper() if x < 0 else kind}{(abs(x) + 1) // 2}")
    return "".join(out)


def parse_word(text: str) -> tuple:
    out = []
    i = 0
    while i < len(text):
        kind = text[i]
        j = i + 1
        while j < len(text) and text[j].isdigit():
            j += 1
        index = int(text[i + 1 : j])
        letter = 2 * index - 1 if kind.lower() == "a" else 2 * index
        out.append(-letter if kind.isupper() else letter)
        i = j
    return tuple(out)


def homology(w, g: int) -> tuple:
    v = [0] * (2 * g)
    for x in w:
        v[abs(x) - 1] += 1 if x > 0 else -1
    return tuple(v)


def pairing(x, y) -> int:
    return sum(x[2 * i] * y[2 * i + 1] - x[2 * i + 1] * y[2 * i] for i in range(len(x) // 2))


def twist(alpha, x, t: int) -> tuple:
    k = t * pairing(x, alpha)
    return tuple(xi + k * ai for xi, ai in zip(x, alpha))


def monodromy_moves(phi, gamma, g: int) -> bool:
    """True when the twist word phi (letters applied right to left, each
    twist about the homology class of its word) moves gamma off +-gamma."""
    image = tuple(gamma)
    for text, exp in reversed(phi):
        image = twist(homology(parse_word(text), g), image, exp)
    return image != tuple(gamma) and image != tuple(-v for v in gamma)


# -- diagram data, computed from the JSON form -----------------------------------


def strand_count(data: dict) -> int:
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for a, b in data["opposite"]:
        union(a, b)
    for cycle in data["vertices"]:
        half = len(cycle) // 2
        for i in range(half):
            union(cycle[i], cycle[i + half])
    return len({find(d) for d in parent})


def gluing_table_errors(text: str, expected_tets: int) -> list[str]:
    """Parse an exported gluing table and check it is a closed, mutually
    inverse face pairing with the expected tetrahedron count."""
    table = {}
    for line in text.splitlines():
        head, _, rest = line.partition(":")
        entries = []
        for part in rest.split():
            nbr, face, perm = part.strip("()").split(",")
            entries.append((int(nbr), int(face), tuple(int(ch) for ch in perm)))
        table[int(head)] = entries
    if len(table) != expected_tets or sorted(table) != list(range(expected_tets)):
        return ["tetrahedron_count"]
    for tet, faces in table.items():
        if len(faces) != 4:
            return ["gluing_involution"]
        for face, (nbr, nf, perm) in enumerate(faces):
            if sorted(perm) != [0, 1, 2, 3] or perm[face] != nf or (nbr, nf) == (tet, face):
                return ["gluing_involution"]
            back = table.get(nbr, [None] * 4)[nf] if 0 <= nf < 4 else None
            if back is None or back[:2] != (tet, face) or tuple(back[2][p] for p in perm) != (0, 1, 2, 3):
                return ["gluing_involution"]
    return []


# -- generate-sweep ----------------------------------------------------------------


class GenerateSweep:
    """Seeded generate_fal over a (g, c) ladder, every result validated."""

    name = "generate-sweep"
    spawns = False
    # (g, c, items in the pool, require_checkerboard).  A diagram's cost
    # varies with its seed (one more retry doubles a small one), so p50 and
    # p90 sit near the middle of the two largest classes, (3,12) and c = 25,
    # where many items share a cost, rather than on a class boundary.  The
    # c >= 100 calls, three items, take about a third of a round.
    LADDER = {
        "full": [
            (2, 4, 30, False), (3, 6, 30, False), (2, 8, 30, False), (3, 12, 150, False), (2, 8, 8, True),
            (2, 16, 8, False), (2, 25, 25, False), (3, 25, 25, False), (2, 50, 2, False), (3, 50, 2, False),
            (2, 100, 1, False), (3, 100, 1, False), (2, 200, 1, False),
        ],
        "tiny": [(2, 4, 2, False), (2, 8, 1, True), (3, 6, 1, False), (3, 8, 1, False)],
    }

    def setup(self, seed: int, scale: str, workdir: Path) -> dict:
        pool = []
        for g, c, count, checkerboard in self.LADDER[scale]:
            for i in range(count):
                half_twist = 0.5 if i % 2 else 0.0
                pool.append((g, c, item_seed(seed, g, c, i, checkerboard), half_twist, checkerboard))
        return {"pool": pool}

    def items(self, state: dict):
        from surflink.fal_diagram import CrossingCircle, validate_fal
        from surflink.generator import generate_fal
        from surflink.surface_map import checkerboard_coloring, trace_faces

        def run(g, c, s, p, cb):
            d = generate_fal(g, c, seed=s, half_twist_probability=p, require_checkerboard=cb)
            bad = []
            if d.genus != g or d.map.vertex_count != c:
                bad.append("size")
            if not all(isinstance(kind, CrossingCircle) for kind in d.vertex_kind):
                bad.append("all_circles")
            elif p == 0 and any(kind.half_twist for kind in d.vertex_kind):
                bad.append("half_twist_flags")
            if not validate_fal(d).ok:
                bad.append("validate")
            faces = trace_faces(d.map)
            if faces.count != c + 2 - 2 * g:
                bad.append("white_face_law")
            if min(faces.degrees()) < 3:
                bad.append("reduced")
            if cb and checkerboard_coloring(d.map, faces) is None:
                bad.append("checkerboard")
            return bad

        return [(f"g{a[0]}c{a[1]}", lambda a=a: run(*a)) for a in state["pool"]]


# -- analyze-corpus ----------------------------------------------------------------


class AnalyzeCorpus:
    """The full analysis pipeline over a corpus generated in set-up."""

    name = "analyze-corpus"
    spawns = False
    # (g, c, diagrams, generated with the checkerboard filter).  The
    # filter's rejection retries grow with c and make set-up time vary with
    # the seed, so it runs only at c <= 8; a diagram without a checkerboard
    # colouring cannot take alternating signs and is filled with its seeded
    # signs instead.  The counts put p50 inside the (2,8) class and p90
    # inside the c = 25 classes, not on a class boundary.  One c = 100
    # diagram, of genus 2 or 3 by the seed's parity, keeps a round near 6 s.
    LADDER = {
        "full": [
            (2, 4, 18, True), (3, 6, 18, False), (2, 8, 36, True), (3, 12, 10, False), (2, 16, 8, False),
            (2, 25, 8, False), (3, 25, 7, False), (2, 50, 1, False), (3, 50, 1, False), ("seed", 100, 1, False),
        ],
        "tiny": [(2, 4, 1, True), (2, 6, 1, True), (3, 6, 1, False)],
    }

    def setup(self, seed: int, scale: str, workdir: Path) -> dict:
        from surflink.generator import generate_fal
        from surflink.io import diagram_to_json_dict

        corpus = []
        for g, c, n_diagrams, checkerboard in self.LADDER[scale]:
            if g == "seed":
                g = 2 + seed % 2
            for i in range(n_diagrams):
                rng = random.Random(item_seed(seed, "corpus", g, c, i))
                d = generate_fal(
                    g, c, seed=rng.getrandbits(32), half_twist_probability=0.3, require_checkerboard=checkerboard
                )
                s = [rng.choice((1, 2)) * rng.choice((1, -1)) for _ in range(c)]
                corpus.append((g, c, json.dumps(diagram_to_json_dict(d)), s, checkerboard))
        return {"corpus": corpus}

    def items(self, state: dict):
        return [(f"g{a[0]}c{a[1]}", lambda a=a: self.analyze(*a)) for a in state["corpus"]]

    @staticmethod
    def analyze(g: int, c: int, text: str, s: list, checkerboard: bool) -> list:
        from surflink import io as sio
        from surflink.bowtie import build_nerve, decompose, prism_triangulation, reglue
        from surflink.constructions import build_layered, build_trivial_torus, fill_to_wga
        from surflink.fal_diagram import (
            augment, check_weakly_prime, check_wga, detect_twist_regions, diagrams_isomorphic, fill_all, validate_fal,
        )
        from surflink.surface_map import checkerboard_coloring

        bad = []
        d = sio.diagram_from_json_dict(json.loads(text))
        if not validate_fal(d).ok:
            bad.append("validate")
        weakly_prime, _ = check_weakly_prime(d)
        colorable = checkerboard_coloring(d.map) is not None
        if checkerboard and not colorable:
            bad.append("checkerboard")
        dec = decompose(d)
        if dec.white_count != c + 2 - 2 * g:
            bad.append("white_face_law")
        nerve = build_nerve(dec)
        if (nerve.node_count, nerve.edge_count, nerve.face_count) != (c + 2 - 2 * g, 3 * c, 2 * c):
            bad.append("nerve_counts")
        pt = prism_triangulation(dec)
        tets = 6 * (3 * c + 2 * g - 2)
        if pt.tetrahedron_count != tets:
            bad.append("tetrahedron_count")
        bad += gluing_table_errors(pt.export_gluing_table(), tets)
        if not diagrams_isomorphic(reglue(dec), d):
            bad.append("reglue_round_trip")
        if colorable:
            link = fill_to_wga(build_trivial_torus(d, build_layered(d, "a1", "b1", 1)), s)
            filled, regions = link.filled_diagram, link.twist_region_count
            if weakly_prime and not link.wga_report.wga_positive:
                bad.append("wga_positive")
        else:
            filled = fill_all(d, dict(enumerate(s)))
            regions = len(detect_twist_regions(filled))
            check_wga(filled, surface_incompressible=True)
        if regions != c:
            bad.append("twist_regions")
        if not diagrams_isomorphic(augment(filled), d):
            bad.append("fill_augment_round_trip")
        return bad


# -- curves -------------------------------------------------------------------------


class Curves:
    """Curve engine and constructions: oracle, Dehn reduction, conjugacy,
    and mapping-torus families with random word-valued monodromy."""

    name = "curves"
    spawns = False
    # (g, |w1|, |w2|, pairs in the pool) for the oracle length ladder, and
    # pool items of the other kinds.  An oracle call's cost varies widely
    # with its words, so every class is large enough that the pool's p50
    # (in the conjugacy and reduce classes) and p90 (in the 5x4-letter
    # oracle classes) move little from seed to seed.
    LADDER = {
        "full": {
            "oracle": [
                (2, 2, 2, 24), (2, 3, 3, 24), (2, 4, 3, 16), (2, 5, 4, 16), (2, 6, 5, 8), (2, 7, 6, 4), (2, 9, 7, 4),
                (2, 11, 8, 4), (3, 2, 2, 24), (3, 3, 3, 24), (3, 4, 3, 16), (3, 5, 4, 16), (3, 6, 5, 8), (3, 7, 6, 4),
                (3, 9, 7, 4), (3, 11, 8, 4),
            ],
            "reduce": [(2, 64, 16), (2, 128, 16), (2, 256, 16), (3, 64, 16), (3, 128, 16), (3, 256, 16)],
            "conjugacy": 96,
            "family": 232,
        },
        "tiny": {
            "oracle": [(2, 2, 2, 1), (2, 3, 2, 1), (3, 2, 2, 1)],
            "reduce": [(2, 16, 1), (3, 16, 1)],
            "conjugacy": 2,
            "family": 4,
        },
    }
    GAMMAS = [("a1", "b1"), ("b1", "a1"), ("a2", "b2"), ("a1a2", "b1"), ("a1", "b1b2")]
    PROBES = 40  # length-2g monodromy specs run by defect_probe

    @staticmethod
    def bases(seed: int) -> dict:
        from surflink.generator import generate_fal
        from surflink.io import diagram_to_json_dict

        return {
            g: diagram_to_json_dict(generate_fal(g, c, seed=item_seed(seed, "base", g), require_checkerboard=True))
            for g, c in ((2, 4), (3, 6))
        }

    @classmethod
    def family_spec(cls, rng: random.Random, bases: dict, phi_lengths=None) -> tuple:
        """A random family spec; `phi_lengths(g)` lists the allowed lengths
        of a MappingTorus twist word."""
        g = rng.choice((2, 3))
        odd, even = rng.choice(cls.GAMMAS)
        m = rng.randint(1, 4)
        spec = {"base": bases[g], "gamma_odd": odd, "gamma_even": even, "m": m}
        if phi_lengths is None and rng.random() < 0.25:
            spec["kind"] = "TrivialMappingTorus"
        else:
            lengths = phi_lengths(g) if phi_lengths else [n for n in range(1, 2 * g + 3) if n != 2 * g]
            spec["kind"] = "MappingTorus"
            spec["phi"] = [
                [word_text(random_word(rng, rng.choice(lengths), g)), rng.choice((-2, -1, 1, 2))]
                for _ in range(rng.randint(1, 3))
            ]
        if rng.random() < 0.5:
            spec["t"] = [rng.randint(1, 3) for _ in range(m)]
        return g, spec

    def setup(self, seed: int, scale: str, workdir: Path) -> dict:
        ladder = self.LADDER[scale]
        bases = self.bases(seed)
        rng = random.Random(item_seed(seed, "curves"))
        pool = []
        for g, n1, n2, count in ladder["oracle"]:
            for _ in range(count):
                pool.append(("oracle", g, random_word(rng, n1, g), random_word(rng, n2, g)))
        for g, n, count in ladder["reduce"]:
            for _ in range(count):
                w = random_word(rng, n, g)
                padded = list(w)
                r = relator(g)
                for _ in range(n // 16):
                    rot = rng.randrange(len(r))
                    piece = r[rot:] + r[:rot]
                    if rng.random() < 0.5:
                        piece = inverse(piece)
                    at = rng.randrange(len(padded) + 1)
                    padded[at:at] = piece
                pool.append(("reduce", g, w, tuple(padded)))
        for _ in range(ladder["conjugacy"]):
            g = rng.choice((2, 3))
            w = random_word(rng, rng.randint(3, 8), g)
            x = random_word(rng, rng.randint(1, 3), g)
            v = random_word(rng, len(w), g)
            while homology(v, g) == homology(w, g):
                v = random_word(rng, len(w), g)
            pool.append(("conjugacy", g, w, free_reduce(x + w + inverse(x)), v))
        # Twist words of exactly 2g letters are left out of the timed pool:
        # the program reads them as homology vectors (ROADMAP item 3), so
        # their certificates can be wrong.  defect_probe runs them instead.
        for _ in range(ladder["family"]):
            pool.append(("family", *self.family_spec(rng, bases)))
        return {"pool": pool}

    def items(self, state: dict):
        return [(args[0], lambda a=args: getattr(self, a[0])(*a[1:])) for args in state["pool"]]

    def defect_probe(self, seed: int) -> tuple:
        """Run the ROADMAP item 3 repro and PROBES seeded specs whose twist
        words all have 2g letters, untimed; return (specs whose certificate
        check failed, specs run)."""
        bases = self.bases(seed)
        rng = random.Random(item_seed(seed, "defect-probe"))
        repro = {"kind": "MappingTorus", "base": bases[2], "gamma_odd": "a1", "gamma_even": "b1", "m": 1,
                 "phi": [["a1b1A1B1", 1]]}
        specs = [(2, repro)]
        specs += [self.family_spec(rng, bases, lambda g: [2 * g]) for _ in range(self.PROBES)]
        return sum(1 for g, spec in specs if self.family(g, spec)), len(specs)

    @staticmethod
    def oracle(g, u, v) -> list:
        from surflink.curves_mcg import geometric_intersection_oracle

        uv = geometric_intersection_oracle(u, v, g)
        vu = geometric_intersection_oracle(v, u, g)
        alg = pairing(homology(u, g), homology(v, g))
        bad = []
        if uv != vu:
            bad.append("oracle_symmetry")
        if uv < abs(alg):
            bad.append("oracle_geo_ge_alg")
        if (uv - alg) % 2:
            bad.append("oracle_parity")
        return bad

    @staticmethod
    def reduce(g, w, padded) -> list:
        from surflink.curves_mcg import dehn_reduce

        r = dehn_reduce(padded, g)
        bad = []
        if len(r) > len(padded) or homology(r, g) != homology(w, g):
            bad.append("reduce_shape")
        if dehn_reduce(r, g) != r:
            bad.append("reduce_idempotent")
        if dehn_reduce(padded + inverse(w), g) != ():
            bad.append("reduce_word_problem")
        return bad

    @staticmethod
    def conjugacy(g, w, conj, other) -> list:
        from surflink.curves_mcg import conjugacy_equal

        bad = []
        if not conjugacy_equal(w, conj, g):
            bad.append("conjugates_equal")
        if conjugacy_equal(w, other, g):
            bad.append("homology_differs_not_equal")
        return bad

    @staticmethod
    def family(g, spec) -> list:
        from surflink.errors import MonodromyActsTrivially
        from surflink.io import build_link_from_spec

        odd = homology(parse_word(spec["gamma_odd"]), g)
        even = homology(parse_word(spec["gamma_even"]), g)
        base = spec["base"]
        m = spec["m"]
        try:
            link = build_link_from_spec(dict(spec))
        except MonodromyActsTrivially:
            moved = [monodromy_moves(spec["phi"], gamma, g) for gamma in (odd, even)]
            return [] if not all(moved) else ["certificate_refused"]
        bad = []
        if link.kind != spec["kind"]:
            bad.append("family_kind")
        c = sum(1 for kind in base["vertex_kind"] if kind == "circle")
        cusps = strand_count(base) + c + (0 if "t" in spec else 2 * m)
        if link.cusp_count != cusps:
            bad.append("cusp_count")
        cert = link.family.certificate
        if (cert.kind, cert.value) != ("homology", pairing(odd, even)):
            bad.append("intersection_certificate")
        if spec["kind"] == "MappingTorus":
            for (name, verdict), gamma in zip(link.certificates, (odd, even)):
                if verdict == "CertifiedNontrivial" and not monodromy_moves(spec["phi"], gamma, g):
                    bad.append("false_certificate")
                    break
        elif link.certificates or link.hyperbolic_assumed:
            bad.append("trivial_torus_flags")
        return bad


# -- cli ----------------------------------------------------------------------------


class Cli:
    """One `surflink` subprocess at a time, on small inputs."""

    name = "cli"
    spawns = True  # its items and set-up are subprocesses
    INPUTS = {"full": 2, "tiny": 1}

    COMMAND = [sys.executable, "-m", "surflink.cli"]

    def __init__(self) -> None:
        self.child = None  # when set, the traced child's argv prefix replaces COMMAND

    @staticmethod
    def env(root: Path) -> dict:
        return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def setup(self, seed: int, scale: str, workdir: Path) -> dict:
        root = Path(__file__).resolve().parents[1]
        if workdir.exists():
            shutil.rmtree(workdir)
        workdir.mkdir(parents=True)
        base = self.COMMAND
        inputs = []
        for i in range(self.INPUTS[scale]):
            rng = random.Random(item_seed(seed, "cli", i))
            g, c = (2, rng.choice((4, 6))) if i % 2 == 0 else (3, 6)
            gen_seed = rng.getrandbits(16)
            d_path = workdir / f"d{i}.json"
            subprocess.run(
                base + ["generate", "--genus", str(g), "--circles", str(c), "--seed", str(gen_seed),
                        "--require-checkerboard", "--half-twist-probability", "0.3", "-o", str(d_path)],
                env=self.env(root), check=True, timeout=120, capture_output=True,
            )
            t = ",".join(str(rng.choice((1, 2, -1))) for _ in range(c))
            subprocess.run(
                base + ["fill", str(d_path), f"--t={t}", "-o", str(workdir / f"filled{i}.json")],
                env=self.env(root), check=True, timeout=120, capture_output=True,
            )
            spec = {"kind": "TrivialMappingTorus", "base": d_path.name, "gamma_odd": "a1", "gamma_even": "b1",
                    "m": rng.randint(1, 3), "s": [rng.choice((1, 2)) for _ in range(c)]}
            (workdir / f"spec{i}.json").write_text(json.dumps(spec))
            w = random_word(rng, rng.randint(3, 5), g)
            x = random_word(rng, 2, g)
            inputs.append({
                "g": g, "c": c, "gen_seed": gen_seed, "t": t,
                "w1": word_text(w), "w2": word_text(random_word(rng, rng.randint(2, 4), g)),
                "long": word_text(random_word(rng, 24, g) + relator(g) + random_word(rng, 8, g)),
                "conj": word_text(free_reduce(x + w + inverse(x))),
                "l": strand_count(json.loads(d_path.read_text())),
            })
        return {"root": root, "workdir": workdir, "inputs": inputs, "seen": {}}

    def items(self, state: dict):
        return [item for i in range(len(state["inputs"])) for item in self.commands(state, i)]

    def commands(self, state: dict, i: int):
        inp = state["inputs"][i]
        d, g = f"d{i}.json", str(inp["g"])
        items = [
            ("generate", ["generate", "--genus", g, "--circles", str(inp["c"]), "--seed", str(inp["gen_seed"]),
                          "--require-checkerboard", "--half-twist-probability", "0.3"], None, inp),
            ("validate", ["validate", d, "--json"], None, inp),
            ("decompose", ["decompose", d, "--json", "--export-gluing", f"gluing{i}.txt"], f"gluing{i}.txt", inp),
            ("fill", ["fill", d, f"--t={inp['t']}", "-o", f"out_filled{i}.json"], f"out_filled{i}.json", inp),
            ("augment", ["augment", f"filled{i}.json"], None, inp),
            ("bounds", ["bounds", d, "--json", "--m", "2"], None, inp),
            ("family", ["family", f"spec{i}.json", "--json"], None, inp),
            ("intersect", ["curves", "intersect", inp["w1"], inp["w2"], "--genus", g, "--json"], None, inp),
            ("reduce", ["curves", "reduce", inp["long"], "--genus", g, "--json"], None, inp),
            ("conjugate", ["curves", "conjugate", inp["w1"], inp["conj"], "--genus", g, "--json"], None, inp),
        ]
        return [(label, lambda a=(label, argv, out, inp): self.invoke(state, *a)) for label, argv, out, inp in items]

    def invoke(self, state: dict, label: str, argv: list, out_file, inp: dict) -> list:
        workdir = state["workdir"]
        start = time.perf_counter()
        proc = subprocess.run(
            (self.child or self.COMMAND) + argv, cwd=workdir, env=self.env(state["root"]),
            capture_output=True, timeout=120,
        )
        state["last_process"] = (start, time.perf_counter())
        produced = proc.stdout + ((workdir / out_file).read_bytes() if out_file and proc.returncode == 0 else b"")
        state["last_bytes_out"] = len(produced)
        bad = []
        if proc.returncode != 0:
            return [f"exit_{label}"]
        digest = hashlib.sha256(produced).hexdigest()
        if state["seen"].setdefault(tuple(argv), digest) != digest:
            bad.append("byte_identical")
        g, c = inp["g"], inp["c"]
        text = proc.stdout.decode()
        if label in ("generate", "augment"):
            data = json.loads(text)
            if len(data["vertices"]) != c or set(data["vertex_kind"]) != {"circle"}:
                bad.append(f"{label}_output")
        elif label == "fill":
            data = json.loads((workdir / out_file).read_text())
            if "circle" in data["vertex_kind"]:
                bad.append("fill_output")
        else:
            report = json.loads(text)
            if label == "validate" and not all(report["checks"].values()):
                bad.append("validate_checks")
            elif label == "decompose":
                tets = 6 * (3 * c + 2 * g - 2)
                if report["counts"]["white_faces"] != c + 2 - 2 * g or report["counts"]["tetrahedra"] != tets:
                    bad.append("decompose_counts")
                bad += gluing_table_errors((workdir / out_file).read_text(), tets)
            elif label == "bounds" and abs(report["lower"] - (inp["l"] + c + 4) * 1.0149416064096536) > 1e-9:
                bad.append("bounds_lower")
            elif label == "family" and not report["wga"]["wga_positive"]:
                bad.append("family_wga")
            elif label == "intersect":
                geo, alg = report["geometric"], report["algebraic"]
                if geo < abs(alg) or (geo - alg) % 2:
                    bad.append("oracle_laws")
            elif label == "reduce":
                r = parse_word(report["reduced"])
                if len(r) > len(parse_word(inp["long"])) or homology(r, g) != homology(parse_word(inp["long"]), g):
                    bad.append("reduce_shape")
            elif label == "conjugate" and report["equal"] is not True:
                bad.append("conjugates_equal")
        return bad


WORKLOADS = {wl.name: wl for wl in (GenerateSweep(), AnalyzeCorpus(), Curves(), Cli())}

