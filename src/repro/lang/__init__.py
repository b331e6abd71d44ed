"""The `imp` language frontend (our replacement for C2fsm).

`imp` is a small imperative language with polynomial integer arithmetic,
``while``/``if`` control flow, bounded nondeterministic assignments and
branches, ``assume`` statements, ``tick(e)`` cost statements, and
optional ``invariant(...)`` loop annotations.  Programs are parsed to an
AST, checked, and lowered to the transition systems of :mod:`repro.ts`.

Typical use::

    from repro.lang import load_program
    lowered = load_program('''
        proc count(n) {
            assume(1 <= n && n <= 100);
            var i = 0;
            while (i < n) { tick(1); i = i + 1; }
        }
    ''')
    system = lowered.system
"""

from repro.lang.lexer import tokenize, Token
from repro.lang.ast_nodes import Program
from repro.lang.parser import parse_program
from repro.lang.lower import LoweredProgram, lower_program
from repro.lang.typecheck import check_program


def read_source(source: str) -> str:
    """The program text ``source`` stands for: the file's contents for
    a path ending in ``.imp``, the text itself otherwise."""
    if source.endswith(".imp") and "\n" not in source:
        with open(source) as handle:
            return handle.read()
    return source


def load_program(source: str, name: str | None = None) -> LoweredProgram:
    """Parse, check and lower an `imp` program in one call.

    ``source`` may be program text or a path ending in ``.imp``
    (see :func:`read_source`).  ``name`` overrides the procedure name
    as the system name.
    """
    program = parse_program(read_source(source))
    check_program(program)
    return lower_program(program, name=name)


__all__ = [
    "Token",
    "tokenize",
    "Program",
    "parse_program",
    "check_program",
    "LoweredProgram",
    "lower_program",
    "load_program",
    "read_source",
]
