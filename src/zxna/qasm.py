"""OpenQASM 2.0 reader and writer for the supported gate subset.

The gate vocabulary lives in one table, ``_GATES``: each QASM name maps to
its IR kind, parameter count and qubit count.  The reader looks calls up
there; the writer's names are its inverse.  Besides the table the reader
knows the multi-controlled phase family ``ncp<m>``/``ncz<m>``/``mcp``/
``mcphase``, which round-trips through opaque declarations (a name's digits
fix its qubit count), and user gate definitions, expanded at call sites.  A
gate body may call only built-ins, that family and gates defined before it.

The reader also handles qreg/creg declarations, ``include``, ``barrier``
(ignored) and trailing measurements (stripped to metadata).  Gate calls on
bare registers broadcast in the usual way.  Angle expressions are evaluated
exactly as rational multiples of pi whenever possible; decimal literals are
rationalized by continued fractions.  Malformed input always raises
:class:`QasmError` with the line and column of the offending token; a
statement nested deeper than the Python stack allows is reported at its
first token.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from fractions import Fraction
from typing import Optional

from .circuit import Circuit, Gate
from .phase import Phase, rationalize_angle

__all__ = ["QasmError", "parse_qasm", "write_qasm"]


class QasmError(ValueError):
    def __init__(self, msg: str, line: int = 0, col: int = 0):
        if line:
            msg = f"line {line}, col {col}: {msg}"
        super().__init__(msg)
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<real>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
      | (?P<int>\d+)
      | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<str>"[^"]*")
      | (?P<op>->|[{}()\[\],;+\-*/])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


_Token = namedtuple("_Token", "kind text line col")


def _tokenize(text: str) -> list[_Token]:
    """Tokens of ``text``, ending with an ``eof`` token at the end of the text."""
    toks = []
    line, start = 1, 0  # current line and the offset where it starts
    for m in _TOKEN_RE.finditer(text):
        kind, val = m.lastgroup, m.group()
        if kind == "ws":
            if "\n" in val:
                line += val.count("\n")
                start = m.start() + val.rfind("\n") + 1
            continue
        col = m.start() - start + 1
        if kind == "bad":
            raise QasmError(f"unexpected character {val!r}", line, col)
        toks.append(_Token(kind, val, line, col))
    toks.append(_Token("eof", "", line, len(text) - start + 1))
    return toks


#: QASM name -> (IR kind, parameter count, qubit count).  Kind ``None`` drops
#: the gate; ``u2``, ``u3`` and ``ccx`` are composites, and ``Swap`` is
#: read as three CX.  The first name listed for a kind is the one written.
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


class _Cursor:
    """A position in a token list that ends with an ``eof`` token."""

    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind == "eof":
            raise QasmError("unexpected end of input", t.line, t.col)
        self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        if self.toks[self.pos].text == text:
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise QasmError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t


class _Parser(_Cursor):
    def __init__(self, text: str):
        super().__init__(_tokenize(text))
        self.qregs: dict[str, tuple[int, int]] = {}  # name -> (first qubit, size)
        self.cregs: dict[str, tuple[int, int]] = {}  # name -> (0, size): bits count per register
        self.defs: dict[str, tuple] = {}  # name -> (param names, arg names, body)
        self.opaque: set[str] = set()
        self.gates: list[Gate] = []
        self.measures: list[tuple[int, int]] = []
        self.num_qubits = 0

    # -- scanners ----------------------------------------------------------

    def expect_id(self) -> _Token:
        t = self.next()
        if t.kind != "id":
            raise QasmError(f"expected identifier, found {t.text!r}", t.line, t.col)
        return t

    def id_list(self) -> list[str]:
        names = [self.expect_id().text]
        while self.accept(","):
            names.append(self.expect_id().text)
        return names

    def paren_groups(self) -> list[list[_Token]]:
        """Token lists of a parenthesised, comma-separated list; [] when there is none.

        Each list ends with an ``eof`` token at the delimiter that closed it.
        """
        if not self.accept("(") or self.accept(")"):
            return []
        groups, cur, depth = [], [], 0
        while True:
            t = self.next()
            if t.text == ";":
                raise QasmError("expected ')', found ';'", t.line, t.col)
            if depth == 0 and t.text in (",", ")"):
                cur.append(_Token("eof", "", t.line, t.col))
                groups.append(cur)
                if t.text == ")":
                    return groups
                cur = []
                continue
            depth += (t.text == "(") - (t.text == ")")
            cur.append(t)

    def index(self, what: str = "index") -> int:
        self.expect("[")
        t = self.next()
        if t.kind != "int":
            raise QasmError(f"{what} must be an integer", t.line, t.col)
        self.expect("]")
        return int(t.text)

    def index_opt(self) -> Optional[int]:
        return self.index() if self.peek().text == "[" else None

    def skip_statement(self) -> None:
        while self.next().text != ";":
            pass

    # -- program -----------------------------------------------------------

    def parse(self) -> Circuit:
        if self.accept("OPENQASM"):
            v = self.next()
            if v.text not in ("2.0", "2"):
                raise QasmError(f"unsupported OPENQASM version {v.text}", v.line, v.col)
            self.expect(";")
        while self.peek().kind != "eof":
            t = self.peek()
            try:
                self.statement(t)
            except RecursionError:  # nested parentheses, unary signs or gate calls
                raise QasmError("statement nested too deeply", t.line, t.col) from None
        if self.num_qubits == 0:
            t = self.peek()
            raise QasmError("no qubits declared", t.line, t.col)
        return Circuit(self.num_qubits, tuple(self.gates), tuple(self.measures))

    def statement(self, t: _Token) -> None:
        name = t.text
        if name == "include":
            self.next()
            self.next()
            self.expect(";")
        elif name in ("qreg", "creg"):
            self.next()
            reg = self.expect_id().text
            n = self.index("register size")
            self.expect(";")
            if name == "creg":
                self.cregs[reg] = (0, n)
            elif reg in self.qregs:
                raise QasmError(f"duplicate qreg {reg!r}", t.line, t.col)
            else:
                self.qregs[reg] = (self.num_qubits, n)
                self.num_qubits += n
        elif name == "barrier":
            self.skip_statement()
        elif name == "gate":
            self.gate_def()
        elif name == "opaque":
            self.opaque_def()
        elif name == "measure":
            self.measure_stmt(t)
        elif name in ("reset", "if"):
            raise QasmError(f"unsupported feature: {name}", t.line, t.col)
        elif t.kind == "id":
            self.gate_call(t)
        else:
            raise QasmError(f"unexpected token {name!r}", t.line, t.col)

    def select(self, regs: dict, reg: str, idx: Optional[int], at: _Token) -> range:
        """Indices named by ``reg`` (``idx is None``) or ``reg[idx]``."""
        first, size = regs[reg]
        if idx is None:
            return range(first, first + size)
        if idx >= size:
            raise QasmError(f"index {idx} out of range for {reg!r}", at.line, at.col)
        return range(first + idx, first + idx + 1)

    def measure_stmt(self, t: _Token) -> None:
        self.next()
        qreg, q_idx = self.expect_id().text, self.index_opt()
        self.expect("->")
        creg, c_idx = self.expect_id().text, self.index_opt()
        self.expect(";")
        if qreg not in self.qregs or creg not in self.cregs:
            raise QasmError("unknown register in measure", t.line, t.col)
        if (q_idx is None) != (c_idx is None):
            raise QasmError("measure register/bit mismatch", t.line, t.col)
        qubits = self.select(self.qregs, qreg, q_idx, t)
        bits = self.select(self.cregs, creg, c_idx, t)
        if len(qubits) != len(bits):
            raise QasmError("mismatched register lengths", t.line, t.col)
        self.measures.extend(zip(qubits, bits))

    # -- gate definitions --------------------------------------------------

    def gate_def(self) -> None:
        self.next()
        name = self.expect_id().text
        params = []
        if self.accept("(") and not self.accept(")"):
            params = self.id_list()
            self.expect(")")
        args = self.id_list()
        self.expect("{")
        body = []
        while not self.accept("}"):
            t = self.peek()
            if t.text == "barrier":
                self.skip_statement()
                continue
            self.expect_id()
            pexprs = self.paren_groups()
            gargs = self.id_list()
            self.expect(";")
            if t.text not in _GATES and t.text not in self.defs and self.ncp_spec(t.text, 0) is None:
                what = "calls itself" if t.text == name else f"calls undefined gate {t.text!r}"
                raise QasmError(f"gate {name!r} {what}", t.line, t.col)
            for a in gargs:
                if a not in args:
                    raise QasmError(f"unknown gate argument {a!r}", t.line, t.col)
            body.append((t, pexprs, gargs))
        self.defs[name] = (params, args, body)

    def opaque_def(self) -> None:
        self.next()
        t = self.expect_id()
        self.paren_groups()
        self.id_list()
        self.expect(";")
        if _NCP_NAME.match(t.text) is None:
            raise QasmError(f"unsupported opaque gate {t.text!r}", t.line, t.col)
        self.opaque.add(t.text)

    def ncp_spec(self, name: str, called: int) -> Optional[tuple]:
        """``_GATES`` entry of a multi-controlled phase family name, else None.

        ``ncp<m>`` acts on m qubits; a name without digits on the ``called``
        number.  Either way the qubit count is at least two.
        """
        m = _NCP_NAME.match(name)
        if m is None or not (m.group(2) or name in self.opaque):
            return None
        kind = "NCZ" if m.group(1) == "ncz" else "NCP"
        return kind, int(kind == "NCP"), max(int(m.group(2) or called), 2)

    # -- gate calls --------------------------------------------------------

    def gate_call(self, tok: _Token) -> None:
        self.next()
        params = [_ExprEval(toks, {}).parse() for toks in self.paren_groups()]
        targets = [self.qubit_arg()]
        while self.accept(","):
            targets.append(self.qubit_arg())
        self.expect(";")
        if self.measures:
            raise QasmError("unsupported feature: gate after measure", tok.line, tok.col)
        # broadcast bare-register arguments
        lens = {len(t) for t in targets if len(t) != 1}
        if len(lens) > 1:
            raise QasmError("mismatched register lengths", tok.line, tok.col)
        for i in range(lens.pop() if lens else 1):
            self.emit(tok.text, params, [t[i] if len(t) != 1 else t[0] for t in targets], tok)

    def qubit_arg(self) -> range:
        t = self.expect_id()
        if t.text not in self.qregs:
            raise QasmError(f"unknown qubit register {t.text!r}", t.line, t.col)
        return self.select(self.qregs, t.text, self.index_opt(), t)

    def emit(self, name: str, params: list[_Val], qubits: list[int], tok: _Token) -> None:
        if len(set(qubits)) != len(qubits):
            raise QasmError("duplicate qubit argument", tok.line, tok.col)
        spec = _GATES.get(name) or self.ncp_spec(name, len(qubits))
        if spec is None:
            if name not in self.defs:
                raise QasmError(f"unknown gate {name!r}", tok.line, tok.col)
            return self.expand(self.defs[name], params, qubits, tok)
        kind, np_, nq = spec
        if len(params) != np_ or len(qubits) != nq:
            raise QasmError(f"{name} expects {np_} parameter(s) and {nq} qubit(s)", tok.line, tok.col)
        phases = [v.to_phase(tok) for v in params]
        if kind == "u2":
            self._u3(Phase(1, 2), *phases, qubits[0])
        elif kind == "u3":
            self._u3(*phases, qubits[0])
        elif kind == "Swap":
            a, b = qubits
            self.gates += [Gate("CX", (a, b)), Gate("CX", (b, a)), Gate("CX", (a, b))]
        elif kind == "ccx":
            h = Gate("H", (qubits[2],))
            self.gates += [h, Gate("NCZ", tuple(qubits)), h]
        elif kind is not None:
            self.gates.append(Gate(kind, tuple(qubits), *phases))

    def _u3(self, theta: Phase, phi: Phase, lam: Phase, q: int) -> None:
        # u3(theta, phi, lam) = Rz(phi) Ry(theta) Rz(lam) up to global phase
        if not lam.is_zero():
            self.gates.append(Gate("Rz", (q,), lam))
        if not theta.is_zero():
            self.gates.append(Gate("Ry", (q,), theta))
        if not phi.is_zero():
            self.gates.append(Gate("Rz", (q,), phi))

    def expand(self, gdef: tuple, params: list[_Val], qubits: list[int], tok: _Token) -> None:
        pnames, qnames, body = gdef
        if len(params) != len(pnames) or len(qubits) != len(qnames):
            raise QasmError("gate call arity mismatch", tok.line, tok.col)
        penv = dict(zip(pnames, params))
        qenv = dict(zip(qnames, qubits))
        for t, pexprs, gargs in body:
            sub_params = [_ExprEval(toks, penv).parse() for toks in pexprs]
            self.emit(t.text, sub_params, [qenv[a] for a in gargs], t)


class _ExprEval(_Cursor):
    """Recursive-descent evaluator for one angle expression.

    Values are :class:`_Val` pairs ``coef*pi + const``.  They stay exact
    Fractions through sums, and through products with and divisions by a
    plain rational number; a decimal literal, a product of two pi terms or
    a division by a pi term falls back to a float.  ``env`` maps gate
    parameter names to their values.
    """

    def __init__(self, toks: list[_Token], env: dict[str, _Val]):
        super().__init__(toks)
        self.env = env

    def parse(self) -> _Val:
        v = self.expr()
        t = self.peek()
        if t.kind != "eof":
            raise QasmError(f"trailing tokens in expression: {t.text!r}", t.line, t.col)
        return v

    def expr(self) -> _Val:
        v = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            w = self.term()
            v = v.add(w) if op == "+" else v.add(w.neg())
        return v

    def term(self) -> _Val:
        v = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.next()
            w = self.unary()
            v = v.mul(w) if op.text == "*" else v.div(w, op)
        return v

    def unary(self) -> _Val:
        if self.accept("-"):
            return self.unary().neg()
        if self.accept("+"):
            return self.unary()
        return self.atom()

    def atom(self) -> _Val:
        t = self.next()
        if t.text == "(":
            v = self.expr()
            self.expect(")")
            return v
        if t.kind == "int":
            return _Val(Fraction(0), Fraction(int(t.text)))
        if t.kind == "real":
            return _Val(Fraction(0), float(t.text))
        if t.kind == "id":
            if t.text == "pi":
                return _Val(Fraction(1), Fraction(0))
            if t.text in self.env:
                return self.env[t.text]
            if t.text in ("sin", "cos", "tan", "exp", "ln", "sqrt"):
                raise QasmError(f"unsupported function {t.text!r}", t.line, t.col)
            raise QasmError(f"unknown symbol {t.text!r} in expression", t.line, t.col)
        raise QasmError(f"unexpected token {t.text!r} in expression", t.line, t.col)


class _Val:
    """coef * pi + const; coef is Fraction, const is Fraction or float."""

    __slots__ = ("coef", "const")

    def __init__(self, coef: Fraction, const):
        self.coef = coef
        self.const = const

    def is_exact(self) -> bool:
        return isinstance(self.const, Fraction)

    def to_float(self) -> float:
        return float(self.coef) * math.pi + float(self.const)

    def neg(self) -> _Val:
        return _Val(-self.coef, -self.const)

    def add(self, o: _Val) -> _Val:
        if self.is_exact() and o.is_exact():
            return _Val(self.coef + o.coef, self.const + o.const)
        return _Val(Fraction(0), self.to_float() + o.to_float())

    def mul(self, o: _Val) -> _Val:
        for a, b in ((self, o), (o, self)):
            if a.is_exact() and a.coef == 0 and b.is_exact():
                return _Val(b.coef * a.const, b.const * a.const)
        return _Val(Fraction(0), self.to_float() * o.to_float())

    def div(self, o: _Val, tok: _Token) -> _Val:
        if o.is_exact() and o.coef == 0:
            if o.const == 0:
                raise QasmError("division by zero in expression", tok.line, tok.col)
            if self.is_exact():
                return _Val(self.coef / o.const, self.const / o.const)
        f = o.to_float()
        if f == 0.0:
            raise QasmError("division by zero in expression", tok.line, tok.col)
        return _Val(Fraction(0), self.to_float() / f)

    def to_phase(self, tok: _Token) -> Phase:
        if self.is_exact() and self.const == 0:
            return Phase(self.coef.numerator, self.coef.denominator)
        f = self.to_float()
        try:
            return rationalize_angle(f, literal=str(f))
        except ValueError as e:
            raise QasmError(str(e), tok.line, tok.col) from None


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
