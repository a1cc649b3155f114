"""Single runner for every identity the model is expected to satisfy.

The suite is the ordered table ``CHECKS`` of ``(name, claim, check)`` rows, each
``check`` a function ``(table, h, seed) -> (ok, witness)``: a new check is one
function plus one row.  ``EXPECTED_CHECKS`` in ``tests/test_verifier.py`` and
``SUITE_CHECKS`` in ``perfbench/tracing.py`` mirror its order.
Each check is an exact integer statement; there are no tolerances anywhere.
Failures never raise: they are returned as report entries (exceptions inside
a check are converted to failing entries) with witness data sufficient to
reproduce the comparison.  Randomized checks draw from an explicit seed
recorded in the report header.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .words import AXIS_PAIRS, BASE_TOKENS, SHEAR_TOKENS, Generator, Macro, Word
from .words import expand_macro, render
from .rep3 import IDENTITY3, decompose_sl3, is_kernel3, mat_mul, word_image3
from .mesh.homology import HomologyData, PROJECTION, crossings, winding_signs
from .mesh.curves import cut_along
from .rep6 import GeneratorTable6, IDENTITY6, intertwines, resolve_handedness, word_image6


@dataclass
class RelationReport:
    resolution: int
    seed: int
    tube_radius: str
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def run(self, name: str, claim: str, thunk):
        """Evaluate a check; exceptions become failing entries, not errors."""
        try:
            ok, witness = thunk()
        except Exception as exc:  # noqa: BLE001 - report, never raise
            ok, witness = False, {"exception": f"{type(exc).__name__}: {exc}"}
        status = "pass" if ok else "fail"
        self.checks.append({"name": name, "claim": claim, "status": status, "witness": witness})

    def to_json(self) -> dict:
        return {
            "resolution": self.resolution,
            "seed": self.seed,
            "tube_radius": self.tube_radius,
            "all_passed": self.passed,
            "checks": self.checks,
        }

    def summary_lines(self):
        for c in self.checks:
            yield f"[{c['status'].upper():4s}] {c['name']}: {c['claim']}"


def _rows(m):
    return [list(r) for r in m]


def random_word(rng: random.Random, alphabet, max_len: int) -> Word:
    choice = rng.choice
    return tuple([choice(alphabet) for _ in range(rng.randint(0, max_len))])


FULL_ALPHABET = tuple(Generator(k, s) for k in BASE_TOKENS for s in (1, -1))
SHEAR_ALPHABET = tuple(Generator(k, s) for k in SHEAR_TOKENS for s in (1, -1))


def _mismatches(key: str, rows):
    """``(ok, witness)`` of ``(name, got, want)`` rows: ``{key: name, "got": got}``
    for each row with ``got != want``, or the row count when none differs."""
    bad = [{key: name, "got": got} for name, got, want in rows if got != want]
    return not bad, bad or {"count": len(rows)}


def check_shear_images(table, h, seed):
    rows = []
    for i, j in AXIS_PAIRS:
        expect = [list(r) for r in IDENTITY3]
        expect[j - 1][i - 1] = 1
        rows.append((f"a{i}{j}", _rows(word_image3((Generator(f"a{i}{j}", 1),))), expect))
    return _mismatches("generator", rows)


def check_kernel_generators(table, h, seed):
    return is_kernel3((Generator("s", 1),)) and is_kernel3((Generator("t", 1),)), {}


def check_twist_macros(table, h, seed):
    images = [(f"t{i}{j}", word_image3(expand_macro(Macro(f"t{i}{j}", 1)))) for i, j in AXIS_PAIRS]
    return _mismatches("macro", [(name, _rows(m), _rows(IDENTITY3)) for name, m in images])


def check_rotations(table, h, seed):
    rows = []
    for i, j in AXIS_PAIRS:
        m = word_image3(expand_macro(Macro(f"r{i}{j}", 1)))
        k = 6 - i - j
        expect = [[0] * 3 for _ in range(3)]  # e_i -> e_j, e_j -> -e_i, e_k -> e_k
        expect[j - 1][i - 1], expect[i - 1][j - 1], expect[k - 1][k - 1] = 1, -1, 1
        rows.append((f"r{i}{j}", _rows(m), expect))
    return _mismatches("macro", rows)


def check_swap_involution(table, h, seed):
    s6 = table.matrices["s"]
    sq = mat_mul(s6, s6)
    ok = sq == IDENTITY6
    return ok, {"matrix": _rows(s6)} if ok else {"square": _rows(sq)}


def check_twist_pairs(table, h, seed):
    rows = []
    for i, j in AXIS_PAIRS:
        m1 = word_image6(expand_macro(Macro(f"t{i}{j}", 1)), table)
        m2 = word_image6(expand_macro(Macro(f"t{j}{i}", 1)), table)
        rows.append((f"t{i}{j}*t{j}{i}", _rows(mat_mul(m2, m1)), _rows(IDENTITY6)))
    return _mismatches("pair", rows)


def check_handedness(table, h, seed):
    winners, details = resolve_handedness(h, table.matrices)
    ok = winners == [table.handedness]
    witness = {"winners": winners, "table_handedness": table.handedness}
    if not ok:
        witness["details"] = {
            pattern: {side: _rows(m) for side, m in pair.items()}
            for pattern, pair in details.items()
        }
    return ok, witness


def check_intertwining(table, h, seed):
    rng = random.Random(seed)
    bad = []
    tests = [(g,) for g in FULL_ALPHABET] + [
        random_word(rng, FULL_ALPHABET, 20) for _ in range(100)
    ]
    for w in tests:
        m6, m3 = word_image6(w, table), word_image3(w)
        if not intertwines(m6, m3):
            bad.append(
                {
                    "word": render(w),
                    "projected_surface_action": _rows(m6[3:]),
                    "ambient_action_projected": _rows(mat_mul(m3, PROJECTION)),
                }
            )
            if len(bad) >= 3:
                break
    return not bad, bad or {"words_tested": len(tests)}


def check_mesh_facts(table, h, seed):
    """The 15 section counts carry the defining-pair verdicts; ``winding_signs`` tests the tube."""
    problems = []
    refs = list(h.disk_sections_a) + list(h.disk_sections_b)
    names = [f"A{i}" for i in (1, 2, 3)] + [f"B{i}" for i in (1, 2, 3)]
    for x in range(6):
        for y in range(x + 1, 6):
            alg, geo = crossings(refs[x], refs[y])
            same_family = (x < 3) == (y < 3)
            expect_geo = 0 if same_family or (x % 3 == y % 3) else 2
            if alg != 0 or geo != expect_geo:
                problems.append(
                    {
                        "pair": f"{names[x]},{names[y]}",
                        "algebraic": alg,
                        "geometric": geo,
                    }
                )
    tube = h.tubes[2]
    winding_signs(tube)  # raises unless four +-e_3 longitudes, two each way
    pieces = cut_along(h.mesh, tube)
    if not (
        len(pieces) == 2
        and all(p["euler_characteristic"] == -2 and p["genus"] == 0 for p in pieces)
    ):
        problems.append({"cut_pieces": pieces})
    witness = problems or {
        "pairs": 15,
        "cut_pieces": [p["euler_characteristic"] for p in pieces],
    }
    return not problems, witness


def check_decomposition(table, h, seed):
    rng = random.Random(seed + 1)
    bad = []
    for idx in range(1000):
        w = random_word(rng, SHEAR_ALPHABET, 30)
        m = word_image3(w)
        w2 = decompose_sl3(m)
        if word_image3(w2) != m:
            bad.append({"index": idx, "word": render(w)})
            if len(bad) >= 3:
                break
    return not bad, bad or {"words_tested": 1000}


# (name, claim, check) in report order
CHECKS = (
    ("shear_images", "each shear maps to the identity plus one off-diagonal unit entry",
     check_shear_images),
    ("kernel_generators", "the swap and the reference twist act trivially downstairs",
     check_kernel_generators),
    ("twist_macros_downstairs", "every derived twist word acts trivially downstairs",
     check_twist_macros),
    ("rotation_words",
     "each rotation word carries axis i to axis j and axis j to minus axis i", check_rotations),
    ("swap_involution", "the surface action of the swap squares to the identity",
     check_swap_involution),
    ("twist_inverse_pairs", "opposite twist macros are mutually inverse on surface homology",
     check_twist_pairs),
    ("handedness_arbiter", "exactly one twist pattern is consistent under conjugation to the "
     "(1,3) disk-pair tube, and the table uses it", check_handedness),
    ("projection_intertwining", "winding part of the surface action equals the ambient action "
     "on all generators and 100 seeded random words", check_intertwining),
    ("mesh_facts", "15 distinguished crossing counts, defining-pair verdicts, 4 tube "
     "longitudes and two planar complementary pieces", check_mesh_facts),
    ("decomposition_roundtrip",
     "1000 seeded random shear words decompose and re-evaluate exactly", check_decomposition),
)


def run_suite(table: GeneratorTable6, h: HomologyData, seed: int = 0) -> RelationReport:
    report = RelationReport(
        resolution=h.mesh.resolution, seed=seed, tube_radius=str(h.tube_radius)
    )
    for name, claim, check in CHECKS:
        report.run(name, claim, partial(check, table, h, seed))
    return report
