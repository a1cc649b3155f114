"""The benchmark's workloads: inputs made from a seed, the timed op, and the
exactness checks run on every op outside its timed span.

Each workload reaches the program only through public functions of the
``t3mcg`` modules, looked up on the module objects at call time so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from importlib import import_module
from types import SimpleNamespace

from tracing import SUITE_CHECKS

# Default seed of the CLI; the answer digests are pinned for it.
DEFAULT_SEED = 0

MODULES = {
    "words": "t3mcg.words",
    "rep3": "t3mcg.rep3",
    "rep6": "t3mcg.rep6",
    "surface": "t3mcg.mesh.surface",
    "curves": "t3mcg.mesh.curves",
    "homology": "t3mcg.mesh.homology",
    "verifier": "t3mcg.verifier",
    "cli": "t3mcg.cli",
}


def import_program() -> SimpleNamespace:
    """A fresh import of every program module the benchmark reaches."""
    for name in [n for n in sys.modules if n == "t3mcg" or n.startswith("t3mcg.")]:
        del sys.modules[name]
    return SimpleNamespace(**{key: import_module(name) for key, name in MODULES.items()})


def sha256(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def capture(main, argv):
    """Run a CLI entry point in-process; returns (exit code, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


class Workload:
    """Shared digest bookkeeping.  Subclasses define setup, op_input, run and
    check; ``check`` returns a problem string or None."""

    min_ops = 1
    collect_between_ops = True  # ops build large object graphs

    def __init__(self, key: str, seed: int, workdir: str, reference: dict):
        self.key = key
        self.seed = seed
        self.workdir = workdir
        self.reference = reference.get(key, {})
        self.digests: dict = {}

    def pin(self, field: str, digest: str):
        """Record a digest and compare it with the reference one."""
        self.digests[field] = digest
        expected = self.reference.get(field)
        if expected != digest:
            return f"{field} is {digest}, reference {expected}"
        return None

    def begin(self):
        pass

    def finish(self) -> list:
        return []


class Pipeline(Workload):
    """``t3mcg --resolution N --json --seed S --table <fresh path> verify``."""

    def __init__(self, resolution: int, seed, workdir, reference):
        super().__init__(f"pipeline-n{resolution}", seed, workdir, reference)
        self.resolution = resolution

    def setup(self):
        self.p = import_program()

    def op_input(self, i):
        path = os.path.join(self.workdir, f"table-{i}.json")
        return ["--resolution", str(self.resolution), "--json", "--seed", str(self.seed),
                "--table", path, "verify"]

    def run(self, argv):
        return capture(self.p.cli.main, argv)

    def check(self, i, argv, out):
        rc, text = out
        path = argv[-2]
        with open(path, "rb") as fh:
            table = fh.read()
        os.remove(path)
        report = json.loads(text)
        names = tuple(c["name"] for c in report["checks"])
        failing = [c["name"] for c in report["checks"] if c["status"] != "pass"]
        if rc != 0 or failing or names != SUITE_CHECKS:
            return f"verify exit {rc}, failing checks {failing}, checks run {names}"
        problems = [self.pin("table_sha256", sha256(table))]
        if self.seed == DEFAULT_SEED:
            problems.append(self.pin("verify_sha256_seed0", sha256(text)))
        return "; ".join(p for p in problems if p) or None


class Mesh(Workload):
    """Surface, validation, six plane sections and their 15 pairings: the
    ``mesh validate`` and ``mesh curves`` path.  The seed changes nothing."""

    NAMES = ("A1", "A2", "A3", "B1", "B2", "B3")

    def __init__(self, resolution: int, seed, workdir, reference):
        super().__init__(f"mesh-n{resolution}", seed, workdir, reference)
        self.resolution = resolution

    def setup(self):
        self.p = import_program()

    def op_input(self, i):
        return self.resolution

    def run(self, n):
        surface, curves = self.p.surface, self.p.curves
        mesh = surface.build_surface(n)
        report = surface.validate_surface(mesh)
        sections = [
            curves.plane_section(mesh, axis, level)
            for level in (Fraction(1, 2), Fraction(0))
            for axis in (1, 2, 3)
        ]
        pairing = {}
        for i in range(6):
            for j in range(i + 1, 6):
                loop = sections[i].loops[0]
                counts = curves.walk_pairing(curves.walk_steps(loop), loop.orientation_sign, sections[j])
                pairing[f"{self.NAMES[i]},{self.NAMES[j]}"] = list(counts.get(0, (0, 0)))
        return report, pairing, [len(s.loops) for s in sections]

    def check(self, i, n, out):
        report, pairing, loops = out
        if not (report["closed"] and report["orientable"] and report["connected"]
                and report["euler_characteristic"] == -4 and loops == [1] * 6):
            return f"invalid surface {report}, section loops {loops}"
        problems = [self.pin("report_sha256", sha256(json.dumps(report, sort_keys=True))),
                    self.pin("pairing_sha256", sha256(json.dumps(pairing, sort_keys=True)))]
        return "; ".join(p for p in problems if p) or None


# ---------------------------------------------------------------------------
# Word algebra: a seeded query stream against a table derived in set-up.
# ---------------------------------------------------------------------------

# Share of each query kind in the stream, in percent.
MIX = (("image6", 45), ("parse", 25), ("kernel", 10), ("long6", 10), ("decompose", 10))


def _matrix3_of_shears(word):
    """Integer 3x3 image of a shear word, computed here rather than by the
    program: a_ij adds row i to row j, first letter first."""
    m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for g in word:
        i, j = int(g.kind[1]) - 1, int(g.kind[2]) - 1
        m[j] = [x + g.sign * y for x, y in zip(m[j], m[i])]
    return tuple(tuple(row) for row in m)


def _inverse(word, Generator):
    return tuple(Generator(g.kind, -g.sign) for g in reversed(word))


def _tokens(word) -> str:
    return " ".join(f"{g.kind}{'+' if g.sign > 0 else '-'}" for g in word)


def _symplectic_sign_ok(m, sign: int) -> bool:
    """M^T J M == sign * J for J = [[0, I], [-I, 0]]."""
    jm = [m[3], m[4], m[5]] + [[-x for x in m[r]] for r in range(3)]
    for a in range(6):
        for b in range(6):
            got = sum(m[k][a] * jm[k][b] for k in range(6))
            want = sign if b == a + 3 else -sign if a == b + 3 else 0
            if got != want:
                return False
    return True


class Algebra(Workload):
    """Word-algebra queries against the table ``t3mcg --resolution N table
    derive`` writes, which set-up derives."""

    collect_between_ops = False

    def __init__(self, resolution: int, queries: int, long_length: int, seed, workdir, reference):
        super().__init__(f"algebra-n{resolution}-q{queries}", seed, workdir, reference)
        self.resolution = resolution
        self.queries = queries
        self.long_length = long_length
        self.min_ops = queries  # the answer digest needs one whole pass

    def setup(self):
        self.p = import_program()
        path = os.path.join(self.workdir, f"table-n{self.resolution}.json")
        rc, _ = capture(self.p.cli.main, ["--resolution", str(self.resolution), "--json",
                                          "--table", path, "table", "derive"])
        if rc != 0:
            raise RuntimeError(f"table derive exited {rc}")
        with open(path, "rb") as fh:
            self.table_bytes = fh.read()
        self.table = self.p.rep6.GeneratorTable6.load(path)
        os.remove(path)
        self.stream = self._make_stream(random.Random(self.seed))

    def _make_stream(self, rng):
        W = self.p.words
        gen = W.Generator
        full = tuple(gen(k, s) for k in W.BASE_TOKENS for s in (1, -1))
        shears = tuple(gen(k, s) for k in W.SHEAR_TOKENS for s in (1, -1))
        twists = tuple(k for k in W.MACRO_TOKENS if k.startswith("t"))
        rep6 = self.p.rep6

        def word(letters, length):
            return tuple(rng.choice(letters) for _ in range(length))

        def macro(kind, sign=1):
            return W.expand_macro(W.Macro(kind, sign))

        def kernel_query():
            # Every verdict is known by construction: a conjugated shear power
            # is not ambient-trivial; a conjugated power of the reference
            # twist is ambient-trivial with a non-identity surface action; a
            # conjugated product of opposite twist pairs acts trivially on both.
            x = word(full, rng.randint(0, 30))
            product = sum((macro(rng.choice(twists), rng.choice((1, -1)))
                           for _ in range(rng.randint(1, 4))), ())
            verdict = rng.choice((rep6.KERNEL_NOT, rep6.KERNEL_NONTRIVIAL, rep6.KERNEL_CANDIDATE))
            if verdict == rep6.KERNEL_NOT:
                core = product + (rng.choice(shears),) * rng.randint(1, 3)
            elif verdict == rep6.KERNEL_NONTRIVIAL:
                core = product + (gen("t", rng.choice((1, -1))),) * rng.randint(1, 2) \
                    + _inverse(product, gen)
            else:
                core = ()
                for _ in range(rng.randint(1, 3)):
                    i, j = rng.choice(W.AXIS_PAIRS)
                    core += macro(f"t{i}{j}") + macro(f"t{j}{i}")
            return x + core + _inverse(x, gen), verdict

        def text_query():
            tokens = []
            for _ in range(rng.randint(1, 60)):
                names = W.BASE_TOKENS if rng.random() < 0.7 else W.MACRO_TOKENS
                tokens.append(rng.choice(names) + ("^-1" if rng.random() < 0.5 else ""))
            return " ".join(tokens)

        def decompose_query(min_entry):
            while True:
                length = 100 if min_entry else rng.randint(10, 100)
                m = _matrix3_of_shears(word(shears, length))
                if max(abs(x) for row in m for x in row) >= min_entry:
                    return m

        kinds = [kind for kind, pct in MIX for _ in range(self.queries * pct // 100)]
        rng.shuffle(kinds)
        stream = []
        covered = False  # the first decomposition has an entry of at least 10^5
        for kind in kinds:
            if kind == "image6":
                stream.append((kind, word(full, rng.randint(1, 200)), None))
            elif kind == "long6":
                stream.append((kind, word(full, self.long_length), None))
            elif kind == "parse":
                stream.append((kind, text_query(), None))
            elif kind == "kernel":
                stream.append((kind,) + kernel_query())
            else:
                stream.append((kind, decompose_query(0 if covered else 10**5), None))
                covered = True
        return stream

    def begin(self):
        self.answers = hashlib.sha256()

    def op_input(self, i):
        return self.stream[i % len(self.stream)]

    def run(self, query):
        kind, arg, _ = query
        p = self.p
        if kind in ("image6", "long6"):
            return p.rep6.word_image6(arg, self.table)
        if kind == "parse":
            w = p.words.parse_word(arg)
            return p.rep3.word_image3(w), p.words.render(p.words.free_reduce(w))
        if kind == "kernel":
            return p.rep6.kernel_screen(arg, self.table)
        return p.rep3.decompose_sl3(arg)

    def check(self, i, query, out):
        kind, arg, expected = query
        p = self.p
        if i < len(self.stream):
            answer = _tokens(out) if kind == "decompose" else repr(out)
            self.answers.update(f"{kind} {answer}\n".encode())
        if kind in ("image6", "long6"):
            sign = -1 if sum(g.kind == "s" for g in arg) % 2 else 1
            if not _symplectic_sign_ok(out, sign):
                return f"query {i}: M^T J M != {sign} J"
            m3 = p.rep3.word_image3(arg)
            if any(out[3 + r] != (0, 0, 0) + m3[r] for r in range(3)):
                return f"query {i}: projection does not intertwine"
        elif kind == "parse":
            m3, text = out
            reduced = p.words.parse_word(text)
            if p.words.render(reduced) != text or p.words.free_reduce(reduced) != reduced \
                    or p.rep3.word_image3(reduced) != m3:
                return f"query {i}: rendered word does not round-trip"
        elif kind == "kernel":
            if out != expected:
                return f"query {i}: verdict {out}, expected {expected}"
        elif p.rep3.word_image3(out) != arg:
            return f"query {i}: decomposition does not round-trip"
        return None

    def finish(self):
        problems = [self.pin(f"table_n{self.resolution}_sha256", sha256(self.table_bytes))]
        if self.seed == DEFAULT_SEED:
            problems.append(self.pin("answers_sha256_seed0", self.answers.hexdigest()))
        return [p for p in problems if p]


def make(workload: str, smoke: bool, seed: int, workdir: str, reference: dict) -> Workload:
    """The named workload at full size, or at the smallest size that passes
    its gates."""
    n = 8 if smoke else None
    if workload == "pipeline-n32":
        return Pipeline(n or 32, seed, workdir, reference)
    if workload == "mesh-n64":
        return Mesh(n or 64, seed, workdir, reference)
    if workload == "algebra":
        if smoke:
            return Algebra(8, 200, 800, seed, workdir, reference)
        return Algebra(16, 1000, 2000, seed, workdir, reference)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("pipeline-n32", "mesh-n64", "algebra")
