"""OpenQASM 2.0 reader and writer for the supported gate subset.

The gate vocabulary lives in one table, ``_GATES``: each QASM name maps to
its IR kind, parameter count and qubit count.  The reader looks calls up
there; the writer's names are its inverse.  Besides the table the reader
knows the multi-controlled phase family ``ncp<m>``/``ncz<m>``/``mcp``/
``mcphase``, which round-trips through opaque declarations (a name's digits
fix its qubit count), and user gate definitions, expanded at call sites.  A
definition takes a name none of these holds, and its body may call only
built-ins, that family and gates defined before it.  The reader also
handles qreg/creg declarations, ``include``, ``barrier`` (ignored) and
trailing measurements (stripped to metadata).  Gate calls on bare
registers broadcast in the usual way.

The text is read as one token stream: one ``findall`` gives the token
strings and a final ``""`` for the end of input.  The parser walks that list
by index and keeps no positions: a :class:`QasmError` works out its line and
column from its token's index when it is raised.  Every malformed input
raises one; a bad character anywhere comes before any parse error, and a
statement nested deeper than the Python stack allows is reported at its
first token.  Angles are exact multiples of pi over Python ints whenever
possible; other values are rationalized by continued fractions.  A program
may declare at most ``MAX_QUBITS`` qubits and make at most ``MAX_GATES``
gate calls, so a short text cannot broadcast or expand into unbounded work.
"""

from __future__ import annotations

import math
import re
from itertools import islice
from typing import Optional

from .circuit import Circuit, Gate
from .phase import Phase, rationalize_angle

__all__ = ["QasmError", "parse_qasm", "write_qasm"]

#: Most qubits all qreg declarations of a program may declare together.
MAX_QUBITS = 4096
#: Most gate calls a program may make, counted after broadcasting and at
#: every level of gate definitions; one call emits at most three gates.
MAX_GATES = 1 << 20


class QasmError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        if line:
            msg = f"line {line}, col {col}: {msg}"
        super().__init__(msg)
        self.line = line
        self.col = col


#: Whitespace and comments, then one token: an identifier, an operator, a
#: real, an integer, a string, a character that starts no token, or "" at the
#: end.  Only ``->`` and ``-``, and reals and integers, share a first
#: character; the longer form comes first.
_TOKEN_RE = re.compile(
    r"""\s*(?://[^\n]*\s*)*
    ( [A-Za-z_][A-Za-z0-9_]* | ->|[{}()\[\],;+\-*/]
    | [0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?|[0-9]+[eE][+-]?[0-9]+ | [0-9]+
    | "[^"]*" | . | \Z )""",
    re.VERBOSE | re.DOTALL | re.ASCII,  # OpenQASM whitespace is ASCII only
)
_ID_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ONE_CHAR_TOKEN = re.compile(r"[A-Za-z_{}()\[\],;+\-*/0-9]")


#: QASM name -> (IR kind, parameter count, qubit count).  Kind ``None`` drops
#: the gate; ``u2``, ``u3`` and ``ccx`` are composites.  The first name
#: listed for a kind is the one written.
_GATES = {
    "h": ("H", 0, 1), "x": ("X", 0, 1), "y": ("Y", 0, 1), "z": ("Z", 0, 1),
    "s": ("S", 0, 1), "sdg": ("Sdg", 0, 1), "t": ("T", 0, 1), "tdg": ("Tdg", 0, 1),
    "id": (None, 0, 1), "u0": (None, 0, 1),
    "rx": ("Rx", 1, 1), "ry": ("Ry", 1, 1), "rz": ("Rz", 1, 1), "u1": ("Rz", 1, 1), "p": ("Rz", 1, 1),
    "u2": ("u2", 2, 1), "u3": ("u3", 3, 1), "u": ("u3", 3, 1), "U": ("u3", 3, 1),
    "cx": ("CX", 0, 2), "CX": ("CX", 0, 2), "cz": ("CZ", 0, 2),
    "cp": ("NCP", 1, 2), "cu1": ("NCP", 1, 2), "swap": ("Swap", 0, 2),
    "ccx": ("ccx", 0, 3), "ccz": ("NCZ", 0, 3),
}
#: (IR kind, qubit count) -> QASM name, for the writer
_QASM_NAMES = {(kind, nq): name for name, (kind, _, nq) in reversed(_GATES.items())}

_NCP_NAME = re.compile(r"^(ncp|ncz|mcphase|mcp)(\d*)$")


class _Parser:
    """Recursive-descent reader over the token list of one program."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        bad = [t for t in set(self.toks) if len(t) == 1 and not _ONE_CHAR_TOKEN.match(t)]
        if bad:
            i = min(map(self.toks.index, bad))
            raise self.error(f"unexpected character {self.toks[i]!r}", i)
        self.pos = 0
        self.end = self.toks.index("")  # the token that reads as the end of input
        self.env: dict[str, _Val] = {}  # gate parameter values while expanding a definition
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (first qubit, size)
        self.cregs: dict[str, tuple[int, int]] = {}  # name -> (first bit, size)
        self.defs: dict[str, tuple] = {}  # name -> (param names, arg names, body)
        self.opaque: set[str] = set()
        self.gates: list[Gate] = []
        self.measures: list[tuple[int, int]] = []
        self.num_qubits = 0
        self.num_bits = 0
        self.calls = 0  # gate calls so far, at every level of definitions
        self.call_at = 0  # the top-level gate call being expanded

    def error(self, msg: str, i: int) -> QasmError:
        """An error at token ``i``, with the line and column where it starts."""
        *_, m = islice(_TOKEN_RE.finditer(self.text), i + 1)
        at = m.start(1)
        return QasmError(msg, self.text.count("\n", 0, at) + 1, at - self.text.rfind("\n", 0, at))

    def integer(self, digits: str, i: int) -> int:
        """``int(digits)``, or an error at token ``i`` if it has more digits than ``int`` reads."""
        try:
            return int(digits)
        except ValueError:
            raise self.error(f"integer of {len(digits)} digits is too long", i) from None

    # -- scanners ----------------------------------------------------------

    def next(self) -> str:
        if self.pos == self.end:
            raise self.error("unexpected end of input", self.pos)
        self.pos += 1
        return self.toks[self.pos - 1]

    def accept(self, text: str) -> bool:
        if self.toks[self.pos] == text:
            self.pos += 1
            return True
        return False

    def expected(self, what: str) -> QasmError:
        t = self.toks[self.pos]
        msg = "unexpected end of input" if self.pos == self.end else f"expected {what}, found {t!r}"
        return self.error(msg, self.pos)

    def expect(self, text: str) -> None:
        if self.toks[self.pos] != text:
            raise self.expected(repr(text))
        self.pos += 1

    def expect_id(self) -> str:
        t = self.toks[self.pos]
        if t[:1] not in _ID_START:
            raise self.expected("identifier")
        self.pos += 1
        return t

    def id_list(self) -> list[str]:
        names = [self.expect_id()]
        while self.accept(","):
            names.append(self.expect_id())
        return names

    def distinct_ids(self, what: str) -> list[str]:
        """``id_list`` whose names all differ, else an error at the first repeat."""
        start, names, seen = self.pos, self.id_list(), set()
        for k, n in enumerate(names):
            if n in seen:
                raise self.error(f"repeated {what} {n!r}", start + 2 * k)
            seen.add(n)
        return names

    def paren_groups(self) -> list[tuple[int, int]]:
        """Spans ``(start, end)`` of a parenthesised, comma-separated list, ``end`` at its delimiter."""
        if not self.accept("(") or self.accept(")"):
            return []
        spans, start, depth = [], self.pos, 0
        while True:
            t = self.next()
            if t == ";":
                raise self.error("expected ')', found ';'", self.pos - 1)
            if depth == 0 and (t == "," or t == ")"):
                spans.append((start, self.pos - 1))
                if t == ")":
                    return spans
                start = self.pos
            else:
                depth += (t == "(") - (t == ")")

    def index(self, what: str = "index") -> int:
        self.expect("[")
        t = self.toks[self.pos]
        if not t.isdecimal():
            raise self.error(f"{what} must be an integer" if t else "unexpected end of input", self.pos)
        self.pos += 1
        self.expect("]")
        return self.integer(t, self.pos - 2)

    def index_opt(self) -> Optional[int]:
        return self.index() if self.toks[self.pos] == "[" else None

    def skip_statement(self) -> None:
        while self.next() != ";":
            pass

    # -- program -----------------------------------------------------------

    def parse(self) -> Circuit:
        if self.accept("OPENQASM"):
            v = self.next()
            if v not in ("2.0", "2"):
                raise self.error(f"unsupported OPENQASM version {v}", self.pos - 1)
            self.expect(";")
        while self.toks[self.pos]:
            at = self.pos
            try:
                self.statement(at)
            except RecursionError:  # nested parentheses, unary signs or gate calls
                raise self.error("statement nested too deeply", at) from None
        if self.num_qubits == 0:
            raise self.error("no qubits declared", self.pos)
        return Circuit(self.num_qubits, tuple(self.gates), tuple(self.measures))

    def statement(self, at: int) -> None:
        name = self.toks[at]
        if name == "include":
            self.next()
            if self.toks[self.pos][:1] != '"':
                raise self.expected("string literal")
            self.next()
            self.expect(";")
        elif name in ("qreg", "creg"):
            self.next()
            reg = self.expect_id()
            n = self.index("register size")
            self.expect(";")
            regs = self.qregs if name == "qreg" else self.cregs
            if reg in regs:
                raise self.error(f"duplicate {name} {reg!r}", at)
            if name == "qreg" and self.num_qubits + n > MAX_QUBITS:
                raise self.error(f"more than {MAX_QUBITS} qubits declared", at)
            regs[reg] = (self.num_qubits if name == "qreg" else self.num_bits, n)
            self.num_qubits += n if name == "qreg" else 0
            self.num_bits += n if name == "creg" else 0
        elif name == "barrier":
            self.skip_statement()
        elif name == "gate":
            self.gate_def()
        elif name == "opaque":
            self.opaque_def()
        elif name == "measure":
            self.measure_stmt(at)
        elif name in ("reset", "if"):
            raise self.error(f"unsupported feature: {name}", at)
        elif name[0] in _ID_START:
            self.gate_call(at)
        else:
            raise self.error(f"unexpected token {name!r}", at)

    def select(self, regs: dict, reg: str, idx: Optional[int], at: int) -> range:
        """Indices named by ``reg`` (``idx is None``) or ``reg[idx]``."""
        first, size = regs[reg]
        if idx is None:
            return range(first, first + size)
        if idx >= size:
            raise self.error(f"index {idx} out of range for {reg!r}", at)
        return range(first + idx, first + idx + 1)

    def measure_stmt(self, at: int) -> None:
        self.next()
        qreg, q_idx = self.expect_id(), self.index_opt()
        self.expect("->")
        creg, c_idx = self.expect_id(), self.index_opt()
        self.expect(";")
        if qreg not in self.qregs or creg not in self.cregs:
            raise self.error("unknown register in measure", at)
        if (q_idx is None) != (c_idx is None):
            raise self.error("measure register/bit mismatch", at)
        qubits = self.select(self.qregs, qreg, q_idx, at)
        bits = self.select(self.cregs, creg, c_idx, at)
        if len(qubits) != len(bits):
            raise self.error("mismatched register lengths", at)
        self.measures.extend(zip(qubits, bits))

    # -- gate definitions --------------------------------------------------

    def gate_header(self) -> tuple[str, list[str], list[str]]:
        """Name, parameter names and argument names of a ``gate`` or ``opaque`` declaration."""
        self.next()
        name, params = self.expect_id(), []
        if self.accept("(") and not self.accept(")"):
            params = self.distinct_ids("parameter")
            self.expect(")")
        return name, params, self.distinct_ids("argument")

    def gate_def(self) -> None:
        at = self.pos + 1
        name, params, args = self.gate_header()
        if name in _GATES or name in self.defs or self.ncp_spec(name, 0, at) is not None:
            raise self.error(f"gate {name!r} is already defined", at)
        self.expect("{")
        body = []
        while not self.accept("}"):
            at = self.pos
            if self.toks[at] == "barrier":
                self.skip_statement()
                continue
            call = self.expect_id()
            spans = self.paren_groups()
            gargs = self.id_list()
            self.expect(";")
            if call not in _GATES and call not in self.defs and self.ncp_spec(call, 0, at) is None:
                what = "calls itself" if call == name else f"calls undefined gate {call!r}"
                raise self.error(f"gate {name!r} {what}", at)
            for a in gargs:
                if a not in args:
                    raise self.error(f"unknown gate argument {a!r}", at)
            body.append((at, spans, gargs))
        self.defs[name] = (params, args, body)

    def opaque_def(self) -> None:
        at = self.pos + 1
        name = self.gate_header()[0]
        self.expect(";")
        if _NCP_NAME.match(name) is None:
            raise self.error(f"unsupported opaque gate {name!r}", at)
        self.opaque.add(name)

    def ncp_spec(self, name: str, called: int, at: int) -> Optional[tuple]:
        """``_GATES`` entry of a multi-controlled phase family name, else None.

        ``ncp<m>`` acts on m qubits and names no gate for m < 2; an opaque
        name without digits acts on the ``called`` number, at least two.
        """
        m = _NCP_NAME.match(name)
        if m is None or not (m.group(2) or name in self.opaque):
            return None
        nq = self.integer(m.group(2), at) if m.group(2) else max(called, 2)
        if nq < 2:
            return None
        kind = "NCZ" if m.group(1) == "ncz" else "NCP"
        return kind, int(kind == "NCP"), nq

    # -- gate calls --------------------------------------------------------

    def gate_call(self, at: int) -> None:
        self.pos += 1
        self.call_at = at
        params = [self.value(span, {}) for span in self.paren_groups()]
        args = [self.qubit_arg()]
        while self.accept(","):
            args.append(self.qubit_arg())
        self.expect(";")
        if self.measures:
            raise self.error("unsupported feature: gate after measure", at)
        name = self.toks[at]
        if range not in map(type, args):
            return self.emit(name, params, args, at)
        # broadcast bare-register arguments; one of size 1 acts as its qubit
        sizes = {len(a) for a in args if type(a) is range} - {1}
        if len(sizes) > 1:
            raise self.error("mismatched register lengths", at)
        for i in range(sizes.pop() if sizes else 1):
            self.emit(name, params, [a if type(a) is int else a[i if len(a) != 1 else 0] for a in args], at)

    def qubit_arg(self) -> int | range:
        """The qubit of ``reg[idx]``, or the qubits of a bare register ``reg``."""
        at = self.pos
        reg = self.expect_id()
        if reg not in self.qregs:
            raise self.error(f"unknown qubit register {reg!r}", at)
        first, size = self.qregs[reg]
        if self.toks[self.pos] != "[":
            return range(first, first + size)
        idx = self.index()
        if idx >= size:
            raise self.error(f"index {idx} out of range for {reg!r}", at)
        return first + idx

    def emit(self, name: str, params: list[_Val], qubits: list[int], at: int) -> None:
        self.calls += 1
        if self.calls > MAX_GATES:
            raise self.error(f"more than {MAX_GATES} gate calls", self.call_at)
        if len(set(qubits)) != len(qubits):
            raise self.error("duplicate qubit argument", at)
        spec = _GATES.get(name) or self.ncp_spec(name, len(qubits), at)
        if spec is None:
            if name not in self.defs:
                raise self.error(f"unknown gate {name!r}", at)
            return self.expand(self.defs[name], params, qubits, at)
        kind, np_, nq = spec
        if len(params) != np_ or len(qubits) != nq:
            raise self.error(f"{name} expects {np_} parameter(s) and {nq} qubit(s)", at)
        try:
            phases = [v.to_phase() for v in params] if params else ()
        except ValueError as e:
            raise self.error(str(e), at) from None
        if kind == "u2":
            self._u3(Phase(1, 2), *phases, qubits[0])
        elif kind == "u3":
            self._u3(*phases, qubits[0])
        elif kind == "ccx":
            h = Gate("H", (qubits[2],))
            self.gates += [h, Gate("NCZ", tuple(qubits)), h]
        elif kind is not None:
            self.gates.append(Gate(kind, tuple(qubits), *phases))

    def _u3(self, theta: Phase, phi: Phase, lam: Phase, q: int) -> None:
        # u3(theta, phi, lam) = Rz(phi) Ry(theta) Rz(lam) up to global phase
        for kind, angle in (("Rz", lam), ("Ry", theta), ("Rz", phi)):
            if not angle.is_zero():
                self.gates.append(Gate(kind, (q,), angle))

    def expand(self, gdef: tuple, params: list[_Val], qubits: list[int], at: int) -> None:
        pnames, qnames, body = gdef
        if len(params) != len(pnames) or len(qubits) != len(qnames):
            raise self.error("gate call arity mismatch", at)
        penv = dict(zip(pnames, params))
        qenv = dict(zip(qnames, qubits))
        for call, spans, gargs in body:
            sub_params = [self.value(span, penv) for span in spans]
            self.emit(self.toks[call], sub_params, [qenv[a] for a in gargs], call)

    # -- angle expressions -------------------------------------------------

    def value(self, span: tuple[int, int], env: dict[str, _Val]) -> _Val:
        """The angle in a span from :meth:`paren_groups`, whose delimiter reads as the end of input."""
        saved = self.pos, self.end, self.env
        (self.pos, self.end), self.env = span, env
        v = self.expr()
        if self.pos != self.end:
            raise self.error(f"trailing tokens in expression: {self.toks[self.pos]!r}", self.pos)
        self.pos, self.end, self.env = saved
        return v

    def expr(self) -> _Val:
        v = self.term()
        while self.toks[self.pos] in ("+", "-"):
            op = self.next()
            w = self.term()
            v = v.add(w) if op == "+" else v.add(w.neg())
        return v

    def term(self) -> _Val:
        v = self.unary()
        while self.toks[self.pos] in ("*", "/"):
            at = self.pos
            op = self.next()
            w = self.unary()
            try:
                v = v.mul(w) if op == "*" else v.div(w)
            except ZeroDivisionError:
                raise self.error("division by zero in expression", at) from None
        return v

    def unary(self) -> _Val:
        t = self.toks[self.pos]
        if t == "-" or t == "+":
            self.pos += 1
            v = self.unary()
            return v.neg() if t == "-" else v
        return self.atom()

    def atom(self) -> _Val:
        t = self.next()
        if t == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t[0] in _ID_START:
            if t == "pi":
                return _Val(1, 0, 1)
            if t in self.env:
                return self.env[t]
            if t in ("sin", "cos", "tan", "exp", "ln", "sqrt"):
                raise self.error(f"unsupported function {t!r}", self.pos - 1)
            raise self.error(f"unknown symbol {t!r} in expression", self.pos - 1)
        if t[0].isdecimal() or t[0] == ".":  # a lone "." is a bad character
            return _Val(0, self.integer(t, self.pos - 1), 1) if t.isdecimal() else _Val(0, float(t), 0)
        raise self.error(f"unexpected token {t!r} in expression", self.pos - 1)


def _ratio(n: int, d: int) -> float:
    """``n / d`` as a float; beyond the float range, an infinity of its sign."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


class _Val:
    """``(cn*pi + kn) / den`` over ints with ``den > 0``, or the float ``kn`` when ``den`` is 0."""

    __slots__ = ("cn", "kn", "den")

    def __init__(self, cn: int, kn, den: int):
        if den:  # exact: to lowest terms with a positive denominator
            g = math.gcd(cn, kn, den) * (1 if den > 0 else -1)
            cn, kn, den = cn // g, kn // g, den // g
        self.cn, self.kn, self.den = cn, kn, den

    def to_float(self) -> float:
        if self.den:
            return _ratio(self.cn, self.den) * math.pi + _ratio(self.kn, self.den)
        return self.kn

    def neg(self) -> _Val:
        return _Val(-self.cn, -self.kn, self.den)

    def add(self, o: _Val) -> _Val:
        if self.den and o.den:
            d, od = self.den, o.den
            return _Val(self.cn * od + o.cn * d, self.kn * od + o.kn * d, d * od)
        return _Val(0, self.to_float() + o.to_float(), 0)

    def mul(self, o: _Val) -> _Val:
        for a, b in ((self, o), (o, self)):
            if a.den and not a.cn and b.den:
                return _Val(b.cn * a.kn, b.kn * a.kn, b.den * a.den)
        return _Val(0, self.to_float() * o.to_float(), 0)

    def div(self, o: _Val) -> _Val:
        """``self / o``; ZeroDivisionError for a zero divisor."""
        if o.den and not o.cn:
            if not o.kn:
                raise ZeroDivisionError
            if self.den:
                return _Val(self.cn * o.den, self.kn * o.den, self.den * o.kn)
        return _Val(0, self.to_float() / o.to_float(), 0)

    def to_phase(self) -> Phase:
        """The exact phase, or the float rationalized; ValueError when that fails."""
        if self.den and not self.kn:
            return Phase(self.cn, self.den)
        f = self.to_float()
        return rationalize_angle(f, literal=str(f))


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 program into a Circuit."""
    return _Parser(text).parse()


def write_qasm(c: Circuit) -> str:
    """Serialize a circuit; NCP/NCZ gates the table has no name for use opaque ncp<m>/ncz<m>."""
    names = dict(_QASM_NAMES)
    opaque = sorted(
        {(g.kind, len(g.qubits)) for g in c.gates if g.kind in ("NCP", "NCZ")} - names.keys()
    )
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    for kind, m in opaque:
        names[kind, m] = f"{kind.lower()}{m}"
        theta = "(theta)" if kind == "NCP" else ""
        lines.append(f"opaque {names[kind, m]}{theta} {','.join(f'q{i}' for i in range(m))};")
    lines.append(f"qreg q[{c.num_qubits}];")
    if c.measurements:
        lines.append(f"creg c[{max(b for _, b in c.measurements) + 1}];")
    for g in c.gates:
        name = names.get((g.kind, len(g.qubits)))
        if name is None:
            raise ValueError(f"cannot serialize gate kind {g.kind!r}")
        angle = "" if g.angle is None else f"({g.angle})"
        lines.append(f"{name}{angle} {','.join(f'q[{i}]' for i in g.qubits)};")
    for q, b in c.measurements:
        lines.append(f"measure q[{q}] -> c[{b}];")
    return "\n".join(lines) + "\n"
