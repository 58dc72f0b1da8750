"""Seeded workload generators.

Each generator returns a list of ``(name, qasm_text)`` pairs.  The benchmark
hands only the OpenQASM 2.0 text to zxna, so parsing stays on the timed
path.  The same seed always gives the same text.

- ``structured``: QFT on 8, 12 and 16 qubits plus six 12-qubit QAOA-style
  phase polynomials.  This is the paper's target family: the QFTs are
  gflow-bound (the ``find_gflow`` precheck inside ``extract_circuit`` is
  most of a qft16 job), and the phase polynomials are where
  ``zx-with-insert`` reaches NCP arity 5.  Six rather than two phase
  polynomials put the median job among them on every seed, so it moves
  less from seed to seed.
- ``clifford-t``: wide random Clifford+T circuits (16 qubits, 300 gates,
  10% T).  ``zx-with-insert`` spends most of its time in controlled-phase
  matching and the diagram's gadget scans here; ``zx-default`` exercises CX
  emission by GF(2) elimination.
- ``random-small``: 120 small circuits over the round-trip alphabet
  {H, S, T, Rz, Rx, CX, CZ, CCZ, CP}.  Per-call overhead, the backend
  scheduler and the dense oracle dominate; gflow and simplify barely
  register.  A few circuits where ``zx-with-insert`` does badly carry much
  of its modeled time and GR pulses; 120 circuits keep that share from
  swinging between seeds.

Circuit sizes follow a fixed schedule and the seed draws the gates.

``clifford-t`` runs like the others but is not listed in BENCHMARK.json.
On seeds 0 to 9, three seeds each had one job fail (on seed 0,
``cliffordt16-5`` through ``zx-with-insert`` raises ``ExtractionError:
controlled-phase matching did not settle``), and a few slow
``zx-with-insert`` jobs (up to ten times the median job) set its compile
time, which moved by a fifth from seed to seed.  A workload that
fails on some seeds and swings that much cannot gate a change; the
failures are reported, not reseeded away.
"""

from __future__ import annotations

import random
from fractions import Fraction

__all__ = ["WORKLOADS", "qft", "phase_polynomial", "clifford_t", "random_small_circuit"]


def _angle(f: Fraction) -> str:
    """A multiple of pi as an OpenQASM expression."""
    if f == 0:
        return "0"
    num = {1: "pi", -1: "-pi"}.get(f.numerator, f"{f.numerator}*pi")
    return num if f.denominator == 1 else f"{num}/{f.denominator}"


def _program(n: int, lines: list[str]) -> str:
    head = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    return "\n".join(head + lines) + "\n"


def qft(n: int) -> str:
    """n-qubit quantum Fourier transform over {h, cp, swap}."""
    lines = []
    for i in range(n - 1, -1, -1):
        lines.append(f"h q[{i}];")
        for j in range(i - 1, -1, -1):
            lines.append(f"cp({_angle(Fraction(1, 1 << (i - j)))}) q[{j}],q[{i}];")
    for i in range(n // 2):
        lines.append(f"swap q[{i}],q[{n - 1 - i}];")
    return _program(n, lines)


def phase_polynomial(rng: random.Random, n: int = 12, layers: int = 3, pairs: int = 8, cczs: int = 3) -> str:
    """QAOA-style circuit: an H wall, diagonal layers, then an Rx mixer.

    Each layer holds ``pairs`` CP(k*pi/8) gates and ``cczs`` CCZ gates on
    random qubits, so the diagonal part is a phase polynomial with terms of
    degree two and three.
    """
    lines = [f"h q[{q}];" for q in range(n)]
    for _ in range(layers):
        for _ in range(pairs):
            a, b = rng.sample(range(n), 2)
            lines.append(f"cp({_angle(Fraction(rng.randint(1, 7), 8))}) q[{a}],q[{b}];")
        for _ in range(cczs):
            a, b, c = rng.sample(range(n), 3)
            lines.append(f"ccz q[{a}],q[{b}],q[{c}];")
    for q in range(n):
        lines.append(f"rx({_angle(Fraction(rng.choice((1, 3, -1)), 4))}) q[{q}];")
    return _program(n, lines)


def clifford_t(rng: random.Random, n: int = 16, gates: int = 300, p_t: float = 0.1) -> str:
    """Random Clifford+T circuit: T with probability p_t, else S, HSH or CX.

    The three Clifford kinds are equally likely, as in the random
    Clifford+T family common in ZX-calculus benchmarks.
    """
    lines = []
    third = (1.0 - p_t) / 3.0
    for _ in range(gates):
        r = rng.random()
        if r < p_t:
            lines.append(f"t q[{rng.randrange(n)}];")
        elif r < p_t + third:
            lines.append(f"s q[{rng.randrange(n)}];")
        elif r < p_t + 2 * third:
            q = rng.randrange(n)
            lines += [f"h q[{q}];", f"s q[{q}];", f"h q[{q}];"]
        else:
            a, b = rng.sample(range(n), 2)
            lines.append(f"cx q[{a}],q[{b}];")
    return _program(n, lines)


_SMALL_KINDS = ("H", "S", "T", "Rz", "Rx", "CX", "CZ", "CCZ", "CP")


def random_small_circuit(rng: random.Random, n: int, gates: int) -> str:
    """Random circuit of exactly ``gates`` gates over the round-trip alphabet."""
    lines = []
    while len(lines) < gates:
        k = rng.choice(_SMALL_KINDS)
        if k in ("H", "S", "T"):
            lines.append(f"{k.lower()} q[{rng.randrange(n)}];")
        elif k in ("Rz", "Rx"):
            f = Fraction(rng.randint(-7, 8), rng.choice((1, 2, 4, 8)))
            lines.append(f"{k.lower()}({_angle(f)}) q[{rng.randrange(n)}];")
        elif k in ("CX", "CZ"):
            a, b = rng.sample(range(n), 2)
            lines.append(f"{k.lower()} q[{a}],q[{b}];")
        elif k == "CCZ":
            if n >= 3:
                a, b, c = rng.sample(range(n), 3)
                lines.append(f"ccz q[{a}],q[{b}],q[{c}];")
        else:
            f = Fraction(rng.randint(-7, 8), rng.choice((2, 4, 8)))
            a, b = rng.sample(range(n), 2)
            lines.append(f"cp({_angle(f)}) q[{a}],q[{b}];")
    return _program(n, lines)


def structured(seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    corpus = [(f"qft{n}", qft(n)) for n in (8, 12, 16)]
    corpus += [(f"phasepoly12-{i}", phase_polynomial(rng)) for i in range(6)]
    return corpus


def clifford_t_corpus(seed: int) -> list[tuple[str, str]]:
    rng = random.Random(seed)
    return [(f"cliffordt16-{i}", clifford_t(rng)) for i in range(6)]


def random_small(seed: int) -> list[tuple[str, str]]:
    """120 circuits; qubits cycle through 2..8, gate counts sweep 5..60."""
    rng = random.Random(seed)
    return [
        (f"small{i:03d}", random_small_circuit(rng, 2 + i % 7, 5 + (i * 37) % 56))
        for i in range(120)
    ]


WORKLOADS = {
    "structured": structured,
    "clifford-t": clifford_t_corpus,
    "random-small": random_small,
}
