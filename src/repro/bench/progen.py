"""A deterministic random mini-C program generator.

Two consumers:

* the soundness property tests -- every concrete run of a generated
  program must be covered by the abstract analysis results;
* the Table 1 scalability experiment -- scaled-up configurations stand in
  for the SpecCPU2006 programs (see DESIGN.md for the substitution
  rationale).

:func:`single_constant_edits` derives the small edits that warm-start
benchmarks and tests replay, from generated or hand-written programs.

Generated programs are *safe and terminating by construction*: loops are
counting loops with literal bounds, divisors are non-zero literals, array
indices are reduced modulo the array size (with non-negative adjustment),
and the call graph is acyclic except for controlled bounded recursion.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class ProgramConfig:
    """Shape parameters for a generated program."""

    #: Number of helper functions besides main.
    functions: int = 3
    #: Target statements per function body.
    stmts_per_function: int = 8
    #: Maximum nesting depth of loops/conditionals.
    max_depth: int = 2
    #: Number of global scalars.
    globals: int = 2
    #: Number of global arrays.
    global_arrays: int = 0
    #: Inclusive range of loop trip counts.
    loop_bounds: tuple = (2, 8)
    #: Whether helpers may call earlier helpers.
    allow_calls: bool = True
    #: Probability weight of statements touching globals.
    global_weight: float = 0.2
    #: RNG seed.
    seed: int = 0


class _FnGen:
    def __init__(self, rng: random.Random, config: ProgramConfig, name: str,
                 params: List[str], callees: List[tuple], globals_: List[str],
                 global_arrays: List[str]) -> None:
        self.rng = rng
        self.config = config
        self.name = name
        self.params = params
        self.callees = callees
        self.globals = globals_
        self.global_arrays = global_arrays
        self.scalars: List[str] = list(params)
        #: Loop counters currently in scope: readable but never assigned,
        #: which keeps every generated loop terminating.
        self.protected: set = set()
        self.arrays: List[tuple] = []
        self.counter = 0
        self.lines: List[str] = []

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    # -- expressions ---------------------------------------------------- #

    def atom(self) -> str:
        choices = []
        if self.scalars:
            choices.extend(self.scalars * 2)
        if self.globals and self.rng.random() < self.config.global_weight:
            choices.append(self.rng.choice(self.globals))
        if not choices or self.rng.random() < 0.3:
            return str(self.rng.randrange(-4, 17))
        return self.rng.choice(choices)

    def expr(self, depth: int = 0) -> str:
        if depth >= 2 or self.rng.random() < 0.4:
            return self.atom()
        op = self.rng.choice(["+", "-", "*", "+", "-"])
        if self.rng.random() < 0.12:
            # Safe division/modulo by a non-zero literal.
            divisor = self.rng.choice([2, 3, 4, 5, 7])
            op2 = self.rng.choice(["/", "%"])
            return f"({self.expr(depth + 1)} {op2} {divisor})"
        return f"({self.expr(depth + 1)} {op} {self.expr(depth + 1)})"

    def condition(self) -> str:
        op = self.rng.choice(["<", "<=", ">", ">=", "==", "!="])
        simple = f"{self.atom()} {op} {self.atom()}"
        roll = self.rng.random()
        if roll < 0.15:
            op2 = self.rng.choice(["&&", "||"])
            other = f"{self.atom()} {self.rng.choice(['<', '>'])} {self.atom()}"
            return f"({simple}) {op2} ({other})"
        if roll < 0.25:
            return f"!({simple})"
        return simple

    # -- statements ----------------------------------------------------- #

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * (depth + 1) + text)

    def writable(self) -> List[str]:
        return [v for v in self.scalars if v not in self.protected]

    def gen_stmt(self, depth: int) -> None:
        roll = self.rng.random()
        if roll < 0.30 or not self.writable():
            name = self.fresh("v")
            self.emit(depth, f"int {name} = {self.expr()};")
            self.scalars.append(name)
        elif roll < 0.55:
            target = self.rng.choice(self.writable())
            self.emit(depth, f"{target} = {self.expr()};")
        elif roll < 0.62 and self.globals:
            g = self.rng.choice(self.globals)
            self.emit(depth, f"{g} = {self.expr()};")
        elif roll < 0.70 and depth < self.config.max_depth:
            self.gen_if(depth)
        elif roll < 0.82 and depth < self.config.max_depth:
            self.gen_loop(depth)
        elif roll < 0.88 and self.global_arrays and self.scalars:
            arr = self.rng.choice(self.global_arrays)
            idx = self.rng.choice(self.scalars)
            size = 8
            self.emit(
                depth,
                f"{arr}[(({idx} % {size}) + {size}) % {size}] = {self.expr()};",
            )
        elif roll < 0.95 and self.callees and self.config.allow_calls:
            callee, arity = self.rng.choice(self.callees)
            args = ", ".join(self.expr(1) for _ in range(arity))
            target = self.fresh("r")
            self.emit(depth, f"int {target} = {callee}({args});")
            self.scalars.append(target)
        else:
            target = self.rng.choice(self.writable())
            self.emit(depth, f"{target} = {target} + 1;")

    def gen_if(self, depth: int) -> None:
        self.emit(depth, f"if ({self.condition()}) {{")
        saved = list(self.scalars)
        for _ in range(self.rng.randrange(1, 3)):
            self.gen_stmt(depth + 1)
        self.scalars = list(saved)
        if self.rng.random() < 0.5:
            self.emit(depth, "} else {")
            for _ in range(self.rng.randrange(1, 3)):
                self.gen_stmt(depth + 1)
            self.scalars = list(saved)
        self.emit(depth, "}")

    def gen_loop(self, depth: int) -> None:
        i = self.fresh("i")
        lo, hi = self.config.loop_bounds
        bound = self.rng.randrange(lo, hi + 1)
        self.emit(depth, f"for (int {i} = 0; {i} < {bound}; {i} = {i} + 1) {{")
        saved = list(self.scalars)
        self.scalars.append(i)
        self.protected.add(i)
        for _ in range(self.rng.randrange(1, 3)):
            self.gen_stmt(depth + 1)
        self.scalars = list(saved)
        self.protected.discard(i)
        self.emit(depth, "}")

    def generate(self) -> str:
        for _ in range(self.config.stmts_per_function):
            self.gen_stmt(0)
        ret = self.rng.choice(self.scalars) if self.scalars else "0"
        self.emit(0, f"return {ret};")
        params = ", ".join(f"int {p}" for p in self.params)
        header = f"int {self.name}({params}) {{"
        return "\n".join([header] + self.lines + ["}"])


def generate_program(config: ProgramConfig) -> str:
    """Generate a deterministic random mini-C program.

    The program has ``config.functions`` helper functions (an acyclic call
    graph), the requested globals, and a ``main`` that exercises the
    helpers.  The same configuration always yields the same source.
    """
    rng = random.Random(config.seed)
    globals_ = [f"g{i}" for i in range(config.globals)]
    global_arrays = [f"buf{i}" for i in range(config.global_arrays)]
    parts: List[str] = []
    for g in globals_:
        parts.append(f"int {g} = {rng.randrange(0, 5)};")
    for arr in global_arrays:
        parts.append(f"int {arr}[8];")

    callees: List[tuple] = []
    for i in range(config.functions):
        name = f"f{i}"
        arity = rng.randrange(0, 3)
        params = [f"p{j}" for j in range(arity)]
        gen = _FnGen(
            rng, config, name, params, list(callees), globals_, global_arrays
        )
        parts.append(gen.generate())
        callees.append((name, arity))

    main_gen = _FnGen(rng, config, "main", [], callees, globals_, global_arrays)
    main_src = main_gen.generate()
    if config.allow_calls:
        # Turn main into a driver that deterministically exercises every
        # helper (real programs' main loops call into all their modules),
        # with argument signs varied so that context-sensitive analyses
        # see several calling contexts per function.
        driver_lines: List[str] = []
        for index, (name, arity) in enumerate(callees):
            for tag, sign in (("p", 1), ("n", -1)):
                args = ", ".join(
                    str(sign * ((index + j * 3) % 9 + 1)) for j in range(arity)
                )
                driver_lines.append(
                    f"    int d{tag}{index} = {name}({args});"
                )
        close = main_src.rfind("    return ")
        main_src = (
            main_src[:close]
            + "\n".join(driver_lines)
            + ("\n" if driver_lines else "")
            + main_src[close:]
        )
    parts.append(main_src)
    return "\n\n".join(parts) + "\n"


#: A numeric literal compared against (a loop bound) or assigned (an
#: initialiser): the constant a single-constant edit bumps by one.
EDIT_RE = re.compile(r"(?P<ctx>[<>]=? *|= *)(?P<num>\d+)(?P<tail> *[;)])")


def single_constant_edits(source: str, limit: int = 2) -> List[str]:
    """The first ``limit`` compilable variants bumping one constant by one.

    This is the classic maintenance edit (a loop bound or an assigned
    constant changes) behind the warm-start benchmarks and tests.
    """
    from repro.lang import compile_program

    variants = []
    for m in EDIT_RE.finditer(source):
        n = int(m.group("num"))
        edited = source[: m.start("num")] + str(n + 1) + source[m.end("num") :]
        try:
            compile_program(edited)
        except Exception:
            continue
        variants.append(edited)
        if len(variants) >= limit:
            break
    return variants
