"""OpenQASM 2.0 reader and writer for the supported gate subset.

The parser handles qreg/creg declarations, the common gate set (including
u1/u2/u3/p lowered to Rz/Ry/Rz), custom gate definitions expanded at call
sites, barrier (ignored) and trailing measurements (stripped to metadata).
Gate calls on bare registers broadcast in the usual way.  Angle expressions
are evaluated exactly as rational multiples of pi whenever possible;
decimal literals are rationalized by continued fractions.

Multi-controlled phase gates round-trip through opaque declarations named
``ncp<m>``/``ncz<m>`` for each arity m in use.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Union

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
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}:{self.text!r}"


def _tokenize(text: str) -> list[_Token]:
    toks = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            toks.append(_Token(kind, val, line, col))
        nl = val.count("\n")
        if nl:
            line += nl
            col = len(val) - val.rfind("\n")
        else:
            col += len(val)
        pos = m.end()
    return toks


#: value of an angle expression: either an exact multiple of pi or a float
_Angle = Union[Fraction, float]


class _GateDef:
    def __init__(self, params: list[str], args: list[str], body: list):
        self.params = params
        self.args = args
        self.body = body  # list of (name, param expr token lists, arg names)


# one-qubit QASM names mapping directly onto IR kinds
_SIMPLE_1Q = {
    "h": "H", "x": "X", "y": "Y", "z": "Z", "s": "S", "sdg": "Sdg",
    "t": "T", "tdg": "Tdg", "id": None, "u0": None,
}
_ROT_1Q = {"rx": "Rx", "ry": "Ry", "rz": "Rz"}

_NCP_NAME = re.compile(r"^(ncp|ncz|mcphase|mcp)(\d*)$")


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.qubits: dict[tuple[str, int], int] = {}
        self.qregs: dict[str, int] = {}
        self.cregs: dict[str, int] = {}
        self.defs: dict[str, _GateDef] = {}
        self.opaque: dict[str, int] = {}  # name -> arity for ncp-style opaques
        self.gates: list[Gate] = []
        self.measures: list[tuple[int, int]] = []
        self.num_qubits = 0

    # -- token helpers -----------------------------------------------------

    def peek(self) -> Optional[_Token]:
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Token("op", "", 1, 1)
            raise QasmError("unexpected end of input", last.line, last.col)
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise QasmError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    def expect_id(self) -> _Token:
        t = self.next()
        if t.kind != "id":
            raise QasmError(f"expected identifier, found {t.text!r}", t.line, t.col)
        return t

    # -- program -----------------------------------------------------------

    def parse(self) -> Circuit:
        t = self.peek()
        if t is not None and t.text == "OPENQASM":
            self.next()
            v = self.next()
            if v.text not in ("2.0", "2"):
                raise QasmError(f"unsupported OPENQASM version {v.text}", v.line, v.col)
            self.expect(";")
        while self.peek() is not None:
            self.statement()
        if self.num_qubits == 0:
            raise QasmError("no qubits declared")
        return Circuit(self.num_qubits, tuple(self.gates), tuple(self.measures))

    def statement(self) -> None:
        t = self.peek()
        name = t.text
        if name == "include":
            self.next()
            self.next()
            self.expect(";")
            return
        if name in ("qreg", "creg"):
            self.next()
            reg = self.expect_id().text
            self.expect("[")
            size = self.next()
            if size.kind != "int":
                raise QasmError("register size must be an integer", size.line, size.col)
            self.expect("]")
            self.expect(";")
            n = int(size.text)
            if name == "qreg":
                if reg in self.qregs:
                    raise QasmError(f"duplicate qreg {reg!r}", t.line, t.col)
                self.qregs[reg] = n
                for i in range(n):
                    self.qubits[(reg, i)] = self.num_qubits
                    self.num_qubits += 1
            else:
                self.cregs[reg] = n
            return
        if name == "barrier":
            self.next()
            while self.next().text != ";":
                pass
            return
        if name == "gate":
            self.gate_def()
            return
        if name == "opaque":
            self.opaque_def()
            return
        if name == "measure":
            self.measure_stmt()
            return
        if name in ("reset", "if"):
            raise QasmError(f"unsupported feature: {name}", t.line, t.col)
        if t.kind == "id":
            self.gate_call()
            return
        raise QasmError(f"unexpected token {t.text!r}", t.line, t.col)

    def measure_stmt(self) -> None:
        t = self.next()
        qreg = self.expect_id().text
        q_idx = self.index_opt()
        self.expect("->")
        creg = self.expect_id().text
        c_idx = self.index_opt()
        self.expect(";")
        if qreg not in self.qregs or creg not in self.cregs:
            raise QasmError(f"unknown register in measure", t.line, t.col)
        if q_idx is None and c_idx is None:
            for i in range(self.qregs[qreg]):
                self.measures.append((self.qubits[(qreg, i)], i))
        elif q_idx is not None and c_idx is not None:
            self.measures.append((self.qubits[(qreg, q_idx)], c_idx))
        else:
            raise QasmError("measure register/bit mismatch", t.line, t.col)

    def index_opt(self) -> Optional[int]:
        t = self.peek()
        if t is not None and t.text == "[":
            self.next()
            i = self.next()
            if i.kind != "int":
                raise QasmError("index must be an integer", i.line, i.col)
            self.expect("]")
            return int(i.text)
        return None

    # -- gate definitions --------------------------------------------------

    def gate_def(self) -> None:
        self.expect("gate")
        name_tok = self.expect_id()
        name = name_tok.text
        params: list[str] = []
        if self.peek() is not None and self.peek().text == "(":
            self.next()
            while self.peek().text != ")":
                params.append(self.expect_id().text)
                if self.peek().text == ",":
                    self.next()
            self.expect(")")
        args = [self.expect_id().text]
        while self.peek().text == ",":
            self.next()
            args.append(self.expect_id().text)
        self.expect("{")
        body = []
        while self.peek() is not None and self.peek().text != "}":
            t = self.peek()
            if t.text == "barrier":
                while self.next().text != ";":
                    pass
                continue
            gname = self.expect_id().text
            pexprs: list[list[_Token]] = []
            if self.peek().text == "(":
                self.next()
                depth = 1
                cur: list[_Token] = []
                while depth > 0:
                    tok = self.next()
                    if tok.text == "(":
                        depth += 1
                    elif tok.text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    if depth == 1 and tok.text == ",":
                        pexprs.append(cur)
                        cur = []
                    else:
                        cur.append(tok)
                pexprs.append(cur)
            gargs = [self.expect_id().text]
            while self.peek().text == ",":
                self.next()
                gargs.append(self.expect_id().text)
            self.expect(";")
            body.append((gname, pexprs, gargs, t.line, t.col))
        self.expect("}")
        self.defs[name] = _GateDef(params, args, body)

    def opaque_def(self) -> None:
        self.expect("opaque")
        name_tok = self.expect_id()
        name = name_tok.text
        if self.peek().text == "(":
            depth = 0
            while True:
                tok = self.next()
                if tok.text == "(":
                    depth += 1
                elif tok.text == ")":
                    depth -= 1
                    if depth == 0:
                        break
        args = [self.expect_id().text]
        while self.peek().text == ",":
            self.next()
            args.append(self.expect_id().text)
        self.expect(";")
        m = _NCP_NAME.match(name)
        if m is None:
            raise QasmError(f"unsupported opaque gate {name!r}", name_tok.line, name_tok.col)
        self.opaque[name] = len(args)

    # -- gate calls --------------------------------------------------------

    def gate_call(self) -> None:
        name_tok = self.expect_id()
        name = name_tok.text
        params: list[_Angle] = []
        if self.peek() is not None and self.peek().text == "(":
            self.next()
            if self.peek().text != ")":
                params.append(self.angle_expr({}))
                while self.peek().text == ",":
                    self.next()
                    params.append(self.angle_expr({}))
            self.expect(")")
        targets: list[list[int]] = [self.qubit_arg()]
        while self.peek() is not None and self.peek().text == ",":
            self.next()
            targets.append(self.qubit_arg())
        self.expect(";")
        if self.measures:
            raise QasmError(
                "unsupported feature: gate after measure", name_tok.line, name_tok.col
            )
        # broadcast bare-register arguments
        lens = {len(t) for t in targets if len(t) > 1}
        if len(lens) > 1:
            raise QasmError("mismatched register lengths", name_tok.line, name_tok.col)
        count = lens.pop() if lens else 1
        for i in range(count):
            qubits = [t[i] if len(t) > 1 else t[0] for t in targets]
            if len(set(qubits)) != len(qubits):
                raise QasmError("duplicate qubit argument", name_tok.line, name_tok.col)
            self.emit(name, params, qubits, name_tok)

    def qubit_arg(self) -> list[int]:
        t = self.expect_id()
        reg = t.text
        if reg not in self.qregs:
            raise QasmError(f"unknown qubit register {reg!r}", t.line, t.col)
        idx = self.index_opt()
        if idx is None:
            return [self.qubits[(reg, i)] for i in range(self.qregs[reg])]
        if idx >= self.qregs[reg]:
            raise QasmError(f"index {idx} out of range for {reg!r}", t.line, t.col)
        return [self.qubits[(reg, idx)]]

    def emit(self, name: str, params: list[_Angle], qubits: list[int], tok: _Token) -> None:
        def phase(i: int) -> Phase:
            return _to_phase(params[i], tok)

        def need(np_: int, nq: int) -> None:
            if len(params) != np_ or len(qubits) != nq:
                raise QasmError(
                    f"{name} expects {np_} parameter(s) and {nq} qubit(s)", tok.line, tok.col
                )

        if name in _SIMPLE_1Q:
            need(0, 1)
            kind = _SIMPLE_1Q[name]
            if kind is not None:
                self.gates.append(Gate(kind, (qubits[0],)))
            return
        if name in _ROT_1Q:
            need(1, 1)
            self.gates.append(Gate(_ROT_1Q[name], (qubits[0],), phase(0)))
            return
        if name in ("u1", "p"):
            need(1, 1)
            self.gates.append(Gate("Rz", (qubits[0],), phase(0)))
            return
        if name == "u2":
            need(2, 1)
            self._u3(Phase(1, 2), phase(0), phase(1), qubits[0])
            return
        if name in ("u3", "u", "U"):
            need(3, 1)
            self._u3(phase(0), phase(1), phase(2), qubits[0])
            return
        if name == "cx" or name == "CX":
            need(0, 2)
            self.gates.append(Gate("CX", tuple(qubits)))
            return
        if name == "cz":
            need(0, 2)
            self.gates.append(Gate("CZ", tuple(qubits)))
            return
        if name in ("cp", "cu1"):
            need(1, 2)
            self.gates.append(Gate("NCP", tuple(qubits), phase(0)))
            return
        if name == "swap":
            need(0, 2)
            a, b = qubits
            for pair in ((a, b), (b, a), (a, b)):
                self.gates.append(Gate("CX", pair))
            return
        if name == "ccx":
            need(0, 3)
            tgt = qubits[2]
            self.gates.append(Gate("H", (tgt,)))
            self.gates.append(Gate("NCZ", tuple(qubits)))
            self.gates.append(Gate("H", (tgt,)))
            return
        if name == "ccz":
            need(0, 3)
            self.gates.append(Gate("NCZ", tuple(qubits)))
            return
        m = _NCP_NAME.match(name)
        if m is not None and (name in self.opaque or m.group(2)):
            if m.group(1) in ("ncz",):
                need(0, len(qubits))
                self.gates.append(Gate("NCZ", tuple(qubits)))
            else:
                need(1, len(qubits))
                self.gates.append(Gate("NCP", tuple(qubits), phase(0)))
            return
        if name in self.defs:
            self.expand(self.defs[name], params, qubits, tok)
            return
        raise QasmError(f"unknown gate {name!r}", tok.line, tok.col)

    def _u3(self, theta: Phase, phi: Phase, lam: Phase, q: int) -> None:
        # u3(theta, phi, lam) = Rz(phi) Ry(theta) Rz(lam) up to global phase
        if not lam.is_zero():
            self.gates.append(Gate("Rz", (q,), lam))
        if not theta.is_zero():
            self.gates.append(Gate("Ry", (q,), theta))
        if not phi.is_zero():
            self.gates.append(Gate("Rz", (q,), phi))

    def expand(self, gd: _GateDef, params: list[_Angle], qubits: list[int], tok: _Token) -> None:
        if len(params) != len(gd.params) or len(qubits) != len(gd.args):
            raise QasmError("gate call arity mismatch", tok.line, tok.col)
        penv = dict(zip(gd.params, params))
        qenv = dict(zip(gd.args, qubits))
        for gname, pexprs, gargs, line, col in gd.body:
            sub_tok = _Token("id", gname, line, col)
            sub_params = [self.eval_tokens(toks, penv) for toks in pexprs]
            try:
                sub_qubits = [qenv[a] for a in gargs]
            except KeyError as e:
                raise QasmError(f"unknown gate argument {e.args[0]!r}", line, col)
            self.emit(gname, sub_params, sub_qubits, sub_tok)

    # -- angle expressions -------------------------------------------------

    def angle_expr(self, env: dict[str, _Angle]) -> _Angle:
        toks: list[_Token] = []
        depth = 0
        while True:
            t = self.peek()
            if t is None:
                raise QasmError("unterminated expression")
            if depth == 0 and t.text in (",", ")"):
                break
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
            toks.append(self.next())
        return self.eval_tokens(toks, env)

    def eval_tokens(self, toks: list[_Token], env: dict[str, _Angle]) -> _Angle:
        return _ExprEval(toks, env).parse()


class _ExprEval:
    """Tiny recursive-descent evaluator for angle expressions.

    Values are tracked exactly as Fraction multiples of pi where possible
    (pi -> Fraction(1), integers -> n/pi ... no: plain numbers are stored as
    floats unless they combine with pi by multiplication/division).
    Internally a value is (coef, const): coef * pi + const with Fraction
    entries, falling back to float arithmetic when exactness is lost.
    """

    def __init__(self, toks: list[_Token], env: dict[str, _Angle]):
        self.toks = toks
        self.pos = 0
        self.env = env

    def parse(self) -> _Angle:
        v = self.expr()
        if self.pos != len(self.toks):
            t = self.toks[self.pos]
            raise QasmError(f"trailing tokens in expression: {t.text!r}", t.line, t.col)
        return v

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise QasmError("unexpected end of expression")
        self.pos += 1
        return t

    def expr(self) -> "_Val":
        v = self.term()
        while self.peek() is not None and self.peek().text in ("+", "-"):
            op = self.next().text
            w = self.term()
            v = v.add(w) if op == "+" else v.add(w.neg())
        return v

    def term(self) -> "_Val":
        v = self.unary()
        while self.peek() is not None and self.peek().text in ("*", "/"):
            op = self.next().text
            w = self.unary()
            v = v.mul(w) if op == "*" else v.div(w)
        return v

    def unary(self) -> "_Val":
        t = self.peek()
        if t is not None and t.text == "-":
            self.next()
            return self.unary().neg()
        if t is not None and t.text == "+":
            self.next()
            return self.unary()
        return self.atom()

    def atom(self) -> "_Val":
        t = self.next()
        if t.text == "(":
            v = self.expr()
            close = self.next()
            if close.text != ")":
                raise QasmError("expected ')'", close.line, close.col)
            return v
        if t.kind == "int":
            return _Val(Fraction(0), Fraction(int(t.text)))
        if t.kind == "real":
            return _Val(Fraction(0), float(t.text))
        if t.kind == "id":
            if t.text == "pi":
                return _Val(Fraction(1), Fraction(0))
            if t.text in self.env:
                val = self.env[t.text]
                if isinstance(val, _Val):
                    return val
                if isinstance(val, Fraction):
                    return _Val(val, Fraction(0))
                return _Val(Fraction(0), float(val))
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
        import math

        return float(self.coef) * math.pi + float(self.const)

    def neg(self) -> "_Val":
        return _Val(-self.coef, -self.const)

    def add(self, o: "_Val") -> "_Val":
        if self.is_exact() and o.is_exact():
            return _Val(self.coef + o.coef, self.const + o.const)
        return _Val(Fraction(0), self.to_float() + o.to_float())

    def mul(self, o: "_Val") -> "_Val":
        for a, b in ((self, o), (o, self)):
            if a.is_exact() and a.coef == 0 and b.is_exact():
                return _Val(b.coef * a.const, b.const * a.const)
        return _Val(Fraction(0), self.to_float() * o.to_float())

    def div(self, o: "_Val") -> "_Val":
        if o.is_exact() and o.coef == 0:
            if o.const == 0:
                raise QasmError("division by zero in expression")
            if self.is_exact():
                return _Val(self.coef / o.const, self.const / o.const)
        f = o.to_float()
        if f == 0.0:
            raise QasmError("division by zero in expression")
        return _Val(Fraction(0), self.to_float() / f)


def _to_phase(v, tok: _Token) -> Phase:
    if isinstance(v, _Val):
        if v.is_exact() and v.const == 0:
            return Phase(v.coef.numerator, v.coef.denominator)
        f = v.to_float()
    elif isinstance(v, Fraction):
        return Phase(v.numerator, v.denominator)
    else:
        f = float(v)
    try:
        return rationalize_angle(f, literal=str(f))
    except ValueError as e:
        raise QasmError(str(e), tok.line, tok.col) from None


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 program into a Circuit."""
    return _Parser(text).parse()


_QASM_NAMES = {
    "H": "h", "X": "x", "Y": "y", "Z": "z", "S": "s", "Sdg": "sdg",
    "T": "t", "Tdg": "tdg",
}


def write_qasm(c: Circuit) -> str:
    """Serialize a circuit; NCP/NCZ gates use opaque ncp<m>/ncz<m> gates."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";']
    arities = sorted(
        {
            (g.kind, len(g.qubits))
            for g in c.gates
            if (g.kind == "NCP" and len(g.qubits) > 2)
            or (g.kind == "NCZ" and len(g.qubits) not in (3,))
        }
    )
    for kind, m in arities:
        args = ",".join(f"q{i}" for i in range(m))
        if kind == "NCP":
            lines.append(f"opaque ncp{m}(theta) {args};")
        else:
            lines.append(f"opaque ncz{m} {args};")
    lines.append(f"qreg q[{c.num_qubits}];")
    if c.measurements:
        lines.append(f"creg c[{max(b for _, b in c.measurements) + 1}];")
    for g in c.gates:
        qs = ",".join(f"q[{i}]" for i in g.qubits)
        if g.kind in _QASM_NAMES:
            lines.append(f"{_QASM_NAMES[g.kind]} {qs};")
        elif g.kind in ("Rx", "Ry", "Rz"):
            lines.append(f"{g.kind.lower()}({g.angle}) {qs};")
        elif g.kind == "CX":
            lines.append(f"cx {qs};")
        elif g.kind == "CZ":
            lines.append(f"cz {qs};")
        elif g.kind == "Swap":
            lines.append(f"swap {qs};")
        elif g.kind == "NCP":
            if len(g.qubits) == 2:
                lines.append(f"cp({g.angle}) {qs};")
            else:
                lines.append(f"ncp{len(g.qubits)}({g.angle}) {qs};")
        elif g.kind == "NCZ":
            if len(g.qubits) == 3:
                lines.append(f"ccz {qs};")
            else:
                lines.append(f"ncz{len(g.qubits)} {qs};")
        else:
            raise ValueError(f"cannot serialize gate kind {g.kind!r}")
    for q, b in c.measurements:
        lines.append(f"measure q[{q}] -> c[{b}];")
    return "\n".join(lines) + "\n"
