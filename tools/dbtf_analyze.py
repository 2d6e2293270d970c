#!/usr/bin/env python3
"""DBTF project analyzer: structural rules the compiler cannot check.

Lexes the C++ sources under src/ and tests/ into a token stream (comments
and string literals are opaque), recovers the class/function structure, and
checks whole-program properties and the runtime's layering seams (see
DESIGN.md, "Correctness tooling"):

  discarded-status    a call whose result is dbtf::Status or Result<T> and
                      whose value is not consumed is an error. Backed by
                      [[nodiscard]] on both types (common/status.h) plus
                      -Werror=unused-result; this pass additionally catches
                      discards the compiler cannot see (macro bodies,
                      uninstantiated templates). Intentional drops must be
                      written DBTF_IGNORE_ERROR(expr).
  lock-order          extracts the dbtf::Mutex acquisition graph (MutexLock
                      scopes, locks a holder object keeps in a
                      std::optional<MutexLock> for its lifetime, one level
                      of call-graph propagation) across
                      src/dist/, src/ckpt/, and src/dbtf/ and fails on any
                      cycle, printing the witness path. A cycle is a
                      potential deadlock even if today's schedules never
                      interleave it.
  guarded-by          a class data member assigned or mutated while a
                      MutexLock holds one of the class's mutexes must carry
                      a DBTF_GUARDED_BY annotation, so Clang's thread-safety
                      analysis (the CI clang leg) can see every guarded
                      member. Atomics and the mutexes themselves are exempt.
  kernel-confinement  hand-rolled word iteration over BitWord data belongs
                      in src/common/kernels/ (plus the bitops.h/bitspan.h
                      shims) and nowhere else. Two idioms are errors in any
                      other src/ file: a `std::popcount` call, and a
                      BitWord-typed identifier subscripted and combined
                      with a bitwise operator inside a for/while loop.
                      Callers go through the BoolKernels dispatch table so
                      every backend (portable/AVX2/AVX-512) stays
                      bit-for-bit identical and the portable oracle remains
                      the single semantic definition.

Layering seams, over src/ only: worker-include, naked-mutex,
thread-construction, comm-stats-mutation, fault-handling,
recovery-stats-mutation, filesystem-write, transport-syscalls and
async-seam. Each confines a token pattern to the files that own its seam;
the SEAMS table below gives the owners, DESIGN.md the reasons.

Struct field coverage is not a rule here: every wire message and
checkpoint blob declares its fields once (common/fields.h), and the
compiler rejects a member its field list does not name.

The whole analysis is a built-in C++ lexer + structural parser with no
dependencies beyond the standard library, so every host and CI runs the
same check.

Suppression: a line may opt out of one rule with a trailing
`// analyze-ignore(<rule>): reason` comment. Suppressions are deliberate
and reviewable, like NOLINT.

Exit status: 0 clean, 1 findings, 2 usage/environment error. Output format
is `file:line: [rule] message`, one finding per line. Run as the ctest
cases dbtf_analyze / dbtf_analyze_selftest and as a hard CI gate.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

RULES = ("discarded-status", "lock-order", "guarded-by", "kernel-confinement",
         "worker-include", "naked-mutex", "thread-construction",
         "comm-stats-mutation", "fault-handling", "recovery-stats-mutation",
         "filesystem-write", "transport-syscalls", "async-seam")

# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# Token kinds: id, num, str, chr, punct, pp (whole preprocessor directive).
TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<rawstr>R"(?P<delim>[^()\s\\]{0,16})\(.*?\)(?P=delim)")
  | (?P<str>"(?:\\.|[^"\\\n])*")
  | (?P<chr>'(?:\\.|[^'\\\n])*')
  | (?P<num>\.?\d(?:[\w.']|[eEpP][+-])*)
  | (?P<id>[A-Za-z_]\w*)
  | (?P<punct><<=|>>=|->\*|\.\.\.|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\||
      \+=|-=|\*=|/=|%=|&=|\|=|\^=|[{}()\[\];:,.<>+\-*/%&|^!~=?#@\\])
    """,
    re.VERBOSE | re.DOTALL)

PP_CONT_RE = re.compile(r"\\\s*\n")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int


def lex(text: str) -> list[Token]:
    """Tokenizes C++ source. Preprocessor directives become single 'pp'
    tokens (with continuations folded) so the statement grammar below never
    trips over macro definitions."""
    tokens: list[Token] = []
    line = 1
    pos = 0
    n = len(text)
    at_line_start = True
    while pos < n:
        ch = text[pos]
        if at_line_start or (ch == "#" and tokens and
                             tokens[-1].line != line):
            # Detect a preprocessor directive at the start of a line.
            stripped = pos
            while stripped < n and text[stripped] in " \t":
                stripped += 1
            if stripped < n and text[stripped] == "#":
                end = stripped
                while True:
                    nl = text.find("\n", end)
                    if nl == -1:
                        nl = n
                    chunk = text[stripped:nl]
                    if chunk.rstrip().endswith("\\"):
                        end = nl + 1
                        continue
                    break
                directive = text[stripped:nl]
                tokens.append(Token("pp", PP_CONT_RE.sub(" ", directive),
                                    line))
                line += text.count("\n", pos, min(nl + 1, n))
                pos = nl + 1
                at_line_start = True
                continue
        m = TOKEN_RE.match(text, pos)
        if not m:
            pos += 1  # unknown byte: skip
            at_line_start = False
            continue
        kind = m.lastgroup
        value = m.group(0)
        if kind == "delim":  # pragma: no cover - named subgroup artifact
            kind = "rawstr"
        if kind not in ("ws", "comment"):
            out_kind = {"rawstr": "str"}.get(kind, kind)
            tokens.append(Token(out_kind, value, line))
        line += value.count("\n")
        at_line_start = value.endswith("\n") or (kind in ("ws", "comment")
                                                 and "\n" in value)
        pos = m.end()
    return tokens


IGNORE_RE = re.compile(r"analyze-ignore\((?P<rules>[\w,\- ]+)\)")


def collect_suppressions(text: str) -> dict[int, set[str]]:
    """Maps line number -> rules suppressed on that line."""
    out: dict[int, set[str]] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        m = IGNORE_RE.search(line)
        if m:
            out[lineno] = {r.strip() for r in m.group("rules").split(",")}
    return out


# ---------------------------------------------------------------------------
# Structural parsing: classes, functions, member declarations
# ---------------------------------------------------------------------------

CONTROL_KEYWORDS = {"if", "for", "while", "switch", "catch", "return",
                    "sizeof", "alignof", "decltype", "else", "do", "new",
                    "delete", "throw", "co_return", "co_await", "static_cast",
                    "reinterpret_cast", "const_cast", "dynamic_cast"}


@dataclass
class Function:
    name: str                 # unqualified name
    qualifier: str | None     # explicit Class:: qualifier or enclosing class
    line: int
    body: list[Token]         # tokens inside the braces, exclusive


@dataclass
class ClassInfo:
    name: str
    line: int
    body: list[Token]


def _match_brace(tokens: list[Token], open_index: int) -> int:
    """Index of the '}' matching tokens[open_index] == '{'."""
    depth = 0
    for i in range(open_index, len(tokens)):
        t = tokens[i]
        if t.kind == "punct":
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth == 0:
                    return i
    return len(tokens) - 1


def _match_paren(tokens: list[Token], open_index: int) -> int:
    depth = 0
    for i in range(open_index, len(tokens)):
        t = tokens[i]
        if t.kind == "punct":
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return i
    return len(tokens) - 1


def extract_classes(tokens: list[Token]) -> list[ClassInfo]:
    """Top-level and nested class/struct definitions with bodies."""
    classes = []
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.kind == "id" and t.text in ("class", "struct"):
            # class [attr] Name [final] [: bases] {   — skip fwd decls.
            j = i + 1
            # Skip attributes and capability macros: DBTF_CAPABILITY("..."),
            # DBTF_SCOPED_CAPABILITY, alignas(...), [[...]].
            name = None
            while j < len(tokens):
                tj = tokens[j]
                if tj.kind == "id":
                    if (j + 1 < len(tokens) and tokens[j + 1].kind == "punct"
                            and tokens[j + 1].text == "("):
                        j = _match_paren(tokens, j + 1) + 1
                        continue
                    name = tj.text
                    j += 1
                    break
                if tj.kind == "punct" and tj.text == "[":
                    while j < len(tokens) and tokens[j].text != "]":
                        j += 1
                    j += 1
                    continue
                break
            # Find '{' before any ';' (else it's a declaration/variable).
            k = j
            brace = None
            while k < len(tokens):
                tk = tokens[k]
                if tk.kind == "punct":
                    if tk.text == ";":
                        break
                    if tk.text == "{":
                        brace = k
                        break
                    if tk.text == "(":  # 'struct X foo(...)' etc.
                        break
                k += 1
            if name and brace is not None:
                close = _match_brace(tokens, brace)
                classes.append(ClassInfo(name, t.line,
                                         tokens[brace + 1:close]))
                classes.extend(extract_classes(tokens[brace + 1:close]))
                i = close + 1
                continue
        i += 1
    return classes


def extract_functions(tokens: list[Token],
                      enclosing: str | None = None) -> list[Function]:
    """Function definitions (with bodies) in a token stream, recursing into
    class bodies so inline methods get their enclosing class as qualifier."""
    functions: list[Function] = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind == "id" and t.text in ("class", "struct"):
            # Delegate to extract_classes-style scan for the body.
            j = i + 1
            name = None
            while j < n:
                tj = tokens[j]
                if tj.kind == "id":
                    if (j + 1 < n and tokens[j + 1].kind == "punct"
                            and tokens[j + 1].text == "("):
                        j = _match_paren(tokens, j + 1) + 1
                        continue
                    name = tj.text
                    j += 1
                    break
                if tj.kind == "punct" and tj.text == "[":
                    while j < n and tokens[j].text != "]":
                        j += 1
                    j += 1
                    continue
                break
            k = j
            brace = None
            while k < n:
                tk = tokens[k]
                if tk.kind == "punct" and tk.text in (";", "(", "{"):
                    brace = k if tk.text == "{" else None
                    break
                k += 1
            if name and brace is not None:
                close = _match_brace(tokens, brace)
                functions.extend(
                    extract_functions(tokens[brace + 1:close], name))
                i = close + 1
                continue
            i = j
            continue
        if (t.kind == "punct" and t.text == "("
                and i > 0 and tokens[i - 1].kind == "id"
                and tokens[i - 1].text not in CONTROL_KEYWORDS):
            name_index = i - 1
            name = tokens[name_index].text
            qualifier = enclosing
            if (name_index >= 2 and tokens[name_index - 1].kind == "punct"
                    and tokens[name_index - 1].text == "::"
                    and tokens[name_index - 2].kind == "id"):
                qualifier = tokens[name_index - 2].text
            close_paren = _match_paren(tokens, i)
            # Scan past trailer (const, noexcept, override, ->type,
            # constructor init list) looking for '{' before ';' or '='.
            j = close_paren + 1
            brace = None
            while j < n:
                tj = tokens[j]
                if tj.kind == "punct":
                    if tj.text == "{":
                        brace = j
                        break
                    if tj.text in (";", "=", ","):
                        break
                    if tj.text == "(":
                        j = _match_paren(tokens, j) + 1
                        continue
                    if tj.text == ":":
                        # Constructor init list: id(…) or id{…} groups.
                        j += 1
                        while j < n:
                            tk = tokens[j]
                            if tk.kind == "punct" and tk.text == "(":
                                j = _match_paren(tokens, j) + 1
                            elif tk.kind == "punct" and tk.text == "{":
                                # An init group's '{' directly follows the
                                # member's identifier (b_{x}); the body's
                                # '{' follows an init group's closer.
                                if (j > 0 and tokens[j - 1].kind == "id"):
                                    j = _match_brace(tokens, j) + 1
                                else:
                                    brace = j
                                    break
                            elif tk.kind == "punct" and tk.text == ";":
                                break
                            else:
                                j += 1
                        break
                j += 1
            if brace is not None:
                close = _match_brace(tokens, brace)
                body = tokens[brace + 1:close]
                functions.append(Function(name, qualifier,
                                          tokens[name_index].line, body))
                # Lambdas/local classes inside bodies are rare here; still
                # recurse so nested definitions are visible.
                i = close + 1
                continue
            i = close_paren + 1
            continue
        i += 1
    return functions


MEMBER_SKIP_STARTERS = {"using", "typedef", "friend", "public", "private",
                        "protected", "static_assert", "enum", "class",
                        "struct", "template", "operator"}


def extract_members(class_body: list[Token]) -> list[tuple[str, int, str]]:
    """Data member declarations of a class body as (name, line, decl_text).

    Skips methods (a '(' directly after the declared name), nested types,
    using/friend/typedef, and access specifiers. decl_text is the statement's
    token text joined by spaces — annotation macros included."""
    members = []
    i = 0
    n = len(class_body)
    depth = 0
    while i < n:
        t = class_body[i]
        if t.kind == "punct" and t.text == "{":
            i = _match_brace(class_body, i) + 1
            continue
        if t.kind == "pp":
            i += 1
            continue
        # Access specifiers are their own pseudo-statement; consuming them
        # here keeps them from swallowing the following declaration.
        if (t.kind == "id" and t.text in ("public", "private", "protected")
                and i + 1 < n and class_body[i + 1].kind == "punct"
                and class_body[i + 1].text == ":"):
            i += 2
            continue
        # Statement start at depth 0.
        start = i
        # Collect tokens to ';' at depth 0 (skipping nested () {} <> pairs).
        stmt: list[Token] = []
        angle = 0
        while i < n:
            tk = class_body[i]
            if tk.kind == "punct":
                if tk.text == "(":
                    end = _match_paren(class_body, i)
                    stmt.extend(class_body[i:end + 1])
                    i = end + 1
                    continue
                if tk.text == "{":
                    end = _match_brace(class_body, i)
                    stmt.extend(class_body[i:end + 1])
                    i = end + 1
                    # 'Type name{init};' continues; 'void f() {…}' ends. A
                    # method body '}' not followed by ';' ends the statement.
                    if not (i < n and class_body[i].kind == "punct"
                            and class_body[i].text == ";"):
                        break
                    continue
                if tk.text == "<":
                    angle += 1
                elif tk.text == ">" and angle > 0:
                    angle -= 1
                elif tk.text == ">>" and angle > 0:
                    # Lexed as one token, closes two lists: Result<vector<T>>.
                    angle = max(0, angle - 2)
                elif tk.text == ";" and angle == 0:
                    stmt.append(tk)
                    i += 1
                    break
            stmt.append(tk)
            i += 1
        if not stmt or stmt[-1].text != ";":
            continue
        first = stmt[0]
        if first.kind != "id" or first.text in MEMBER_SKIP_STARTERS:
            continue
        if any(tok.kind == "id" and tok.text in ("operator", "friend",
                                                 "using", "typedef")
               for tok in stmt):
            continue
        # Method declaration: '(' directly after an identifier that is
        # followed (eventually) by ');' — i.e. the statement contains '('
        # immediately after the declared name. Find candidate name: the
        # identifier right before '=', '{', '[', 'DBTF_GUARDED_BY', or ';'.
        name = None
        for j, tok in enumerate(stmt):
            if tok.kind == "punct" and tok.text == "(" and j > 0:
                prev = stmt[j - 1]
                if prev.kind == "id" and prev.text not in ("DBTF_GUARDED_BY",
                                                           "GUARDED_BY"):
                    # function declaration (or macro-annotated method)
                    name = None
                    break
            if tok.kind == "punct" and tok.text in ("=", "{", "[", ";"):
                name = stmt[j - 1].text if (j > 0 and
                                            stmt[j - 1].kind == "id") else None
                break
            if tok.kind == "id" and tok.text in ("DBTF_GUARDED_BY",
                                                 "GUARDED_BY"):
                name = stmt[j - 1].text if (j > 0 and
                                            stmt[j - 1].kind == "id") else None
                break
        if name and name not in ("const", "constexpr", "static", "mutable"):
            decl_text = " ".join(tok.text for tok in stmt)
            members.append((name, first.line, decl_text))
    return members


# ---------------------------------------------------------------------------
# Findings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass
class SourceFile:
    rel: str                  # path relative to repo root, posix
    text: str
    tokens: list[Token] = field(default_factory=list)
    suppressions: dict[int, set[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.tokens = lex(self.text)
        self.suppressions = collect_suppressions(self.text)

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.suppressions.get(line, set())


# ---------------------------------------------------------------------------
# Rule 1: discarded-status
# ---------------------------------------------------------------------------

STATUS_TYPES = {"Status", "Result"}
# Macro statements that consume a Status/Result internally.
CONSUMING_MACROS = {"DBTF_RETURN_IF_ERROR", "DBTF_ASSIGN_OR_RETURN",
                    "DBTF_IGNORE_ERROR", "DBTF_CHECK", "DBTF_DCHECK",
                    "DBTF_CHECK_OK", "ASSERT_OK", "EXPECT_OK"}


def collect_status_returning(files: list[SourceFile]) -> set[str]:
    """Names declared *somewhere* with a Status/Result return type, minus
    names also declared with any other return type (overload ambiguity would
    make statement-position flagging unsound)."""
    status_names: set[str] = set()
    other_names: set[str] = set()
    for sf in files:
        toks = sf.tokens
        for i, t in enumerate(toks):
            if t.kind != "punct" or t.text != "(" or i == 0:
                continue
            prev = toks[i - 1]
            if prev.kind != "id" or prev.text in CONTROL_KEYWORDS:
                continue
            # Walk back over 'Class ::' qualifiers to the return type.
            j = i - 2
            while (j >= 1 and toks[j].kind == "punct" and toks[j].text == "::"
                   and toks[j - 1].kind == "id"):
                j -= 2
            if j < 0:
                continue
            # Return type token: identifier, possibly closing a template
            # argument list (Result<T>).
            rt = toks[j]
            if rt.kind == "punct" and rt.text == ">":
                # scan back to the matching '<' and the name before it
                depth = 1
                k = j - 1
                while k >= 0 and depth:
                    if toks[k].kind == "punct":
                        if toks[k].text == ">":
                            depth += 1
                        elif toks[k].text == "<":
                            depth -= 1
                    k -= 1
                rt = toks[k] if k >= 0 else rt
            if rt.kind != "id":
                continue
            name = prev.text
            if rt.text in STATUS_TYPES:
                status_names.add(name)
            elif rt.text not in ("return", "new", "case", "else", "do",
                                 "co_return", "throw", "in", "of"):
                # Only count plausible declarations: the token before the
                # name must look like a type, and the paren must close into
                # a declaration-ish continuation. Cheap filter: the return
                # type starts a statement (preceded by ; } { or pp or
                # nothing) — expression calls rarely do.
                if j == 0 or (toks[j - 1].kind == "punct"
                              and toks[j - 1].text in (";", "{", "}")) or \
                        toks[j - 1].kind == "pp" or \
                        (toks[j - 1].kind == "id"
                         and toks[j - 1].text in ("inline", "static",
                                                  "virtual", "constexpr",
                                                  "explicit", "friend")):
                    other_names.add(name)
    return status_names - other_names


def check_discarded_status(files: list[SourceFile],
                           status_names: set[str]) -> list[Finding]:
    findings = []
    for sf in files:
        for fn in extract_functions(sf.tokens):
            findings.extend(
                _scan_body_for_discards(sf, fn.body, status_names))
    return findings


def _scan_body_for_discards(sf: SourceFile, body: list[Token],
                            status_names: set[str]) -> list[Finding]:
    findings = []
    n = len(body)
    i = 0
    stmt_start = True
    while i < n:
        t = body[i]
        if t.kind == "punct" and t.text in (";", "{", "}"):
            stmt_start = True
            i += 1
            continue
        if t.kind == "pp":
            stmt_start = True
            i += 1
            continue
        if stmt_start and t.kind == "id":
            if t.text in CONSUMING_MACROS or t.text in CONTROL_KEYWORDS:
                stmt_start = False
                i += 1
                continue
            end, called = _parse_postfix_chain(body, i)
            if called is not None and (end < n and body[end].kind == "punct"
                                       and body[end].text == ";"):
                name, name_line = called
                if (name in status_names
                        and not sf.suppressed(name_line, "discarded-status")):
                    findings.append(Finding(
                        sf.rel, name_line, "discarded-status",
                        f"result of '{name}' (returns Status/Result) is "
                        f"discarded; check it, propagate it, or write "
                        f"DBTF_IGNORE_ERROR(...) to drop it on purpose"))
                i = end + 1
                stmt_start = True
                continue
        stmt_start = False
        i += 1
    return findings


def _parse_postfix_chain(tokens: list[Token], start: int):
    """Parses id ( '::' id | '.' id | '->' id | '(' args ')' )* from start.

    Returns (index after chain, (last_called_name, line) | None). The chain
    qualifies only if its LAST element is a call."""
    i = start
    n = len(tokens)
    if tokens[i].kind != "id":
        return start, None
    last_call: tuple[str, int] | None = None
    prev_id = tokens[i]
    i += 1
    while i < n and tokens[i].kind == "punct":
        p = tokens[i].text
        if p in ("::", ".", "->"):
            if i + 1 < n and tokens[i + 1].kind == "id":
                prev_id = tokens[i + 1]
                last_call = None
                i += 2
                continue
            return i, None
        if p == "(":
            close = _match_paren(tokens, i)
            last_call = (prev_id.text, prev_id.line)
            i = close + 1
            continue
        break
    return i, last_call


# ---------------------------------------------------------------------------
# Rule 2: lock-order
# ---------------------------------------------------------------------------

@dataclass
class LockFacts:
    """Per-function lock behavior extracted from its body."""
    acquires: list[tuple[tuple[str, ...], str, int]] = field(
        default_factory=list)   # (held-before, lock, line)
    calls: list[tuple[tuple[str, ...], str, int]] = field(
        default_factory=list)   # (held, callee, line)
    all_locks: set[str] = field(default_factory=set)


def _lock_identity(expr: list[Token], qualifier: str | None) -> str:
    """Canonical name of a mutex expression: 'Class::member_' for a bare
    member, 'obj.member_' for a qualified access. A subscript names one
    lock of a family ('Class::member_[]' for member_[i]), whatever the
    index expression."""
    ids = []
    depth = 0
    for t in expr:
        if t.kind == "punct" and t.text == "[":
            if depth == 0 and ids:
                ids[-1] += "[]"
            depth += 1
        elif t.kind == "punct" and t.text == "]":
            depth -= 1
        elif t.kind == "id" and depth == 0:
            ids.append(t.text)
    if not ids:
        return "<unknown>"
    if len(ids) == 1:
        return f"{qualifier or '<free>'}::{ids[0]}"
    return ".".join(ids)


def _optional_lock_names(tokens: list[Token]) -> set[str]:
    """Names declared 'std::optional<MutexLock> name': a lock held for an
    object's lifetime rather than a lexical scope."""
    return {tokens[i + 4].text for i in range(len(tokens) - 4)
            if tokens[i].text == "optional" and tokens[i + 1].text == "<"
            and tokens[i + 2].text == "MutexLock"
            and tokens[i + 3].text == ">" and tokens[i + 4].kind == "id"}


def _emplaced_lock(toks: list[Token], i: int, optional_locks: set[str],
                   qualifier: str | None) -> tuple[str, int] | None:
    """(lock, index past the call) for '<name>.emplace(<mutex>)' at i, where
    <name> is a std::optional<MutexLock>."""
    if (_text(toks, i) in optional_locks and _text(toks, i + 1) == "."
            and _text(toks, i + 2) == "emplace"
            and _text(toks, i + 3) == "("):
        close = _match_paren(toks, i + 3)
        return _lock_identity(toks[i + 4:close], qualifier), close + 1
    return None


def analyze_lock_facts(files: list[SourceFile],
                       prefixes: tuple[str, ...]) -> dict[str, LockFacts]:
    """Extracts MutexLock scopes + calls per function over selected files.

    A class whose constructor emplaces a std::optional<MutexLock> member is
    a lock holder: the lock is held for the object's lifetime, so every
    other member function of the class runs with it held."""
    selected = [sf for sf in files if sf.rel.startswith(prefixes)]
    optional_locks: set[str] = set()
    for sf in selected:
        optional_locks |= _optional_lock_names(sf.tokens)
    functions = [(sf, fn) for sf in selected
                 for fn in extract_functions(sf.tokens)]
    holders: dict[str, str] = {}
    for _, fn in functions:
        if fn.qualifier is None or fn.name != fn.qualifier:
            continue
        for i in range(len(fn.body)):
            hit = _emplaced_lock(fn.body, i, optional_locks, fn.qualifier)
            if hit is not None:
                holders[fn.qualifier] = hit[0]
    facts: dict[str, LockFacts] = {}
    for sf, fn in functions:
        key = f"{fn.qualifier}::{fn.name}" if fn.qualifier else fn.name
        fact = facts.setdefault(key, LockFacts())
        held = None
        if fn.qualifier in holders and fn.name != fn.qualifier:
            held = holders[fn.qualifier]
        _scan_locks(sf, fn, fact, optional_locks, held)
    return facts


def _scan_locks(sf: SourceFile, fn: Function, fact: LockFacts,
                optional_locks: set[str], held_throughout: str | None) -> None:
    body = fn.body
    n = len(body)
    # held: list of (lock_name, brace_depth_at_acquisition); a lock held
    # throughout the function sits at depth 0 and is never released.
    held: list[tuple[str, int]] = (
        [(held_throughout, 0)] if held_throughout else [])
    depth = 0
    i = 0
    while i < n:
        t = body[i]
        emplaced = _emplaced_lock(body, i, optional_locks, fn.qualifier)
        if emplaced is not None:
            lock, i = emplaced
            fact.acquires.append((tuple(name for name, _ in held), lock,
                                  t.line))
            fact.all_locks.add(lock)
            held.append((lock, depth))
            continue
        if t.kind == "punct":
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                held = [(name, d) for (name, d) in held if d <= depth]
            i += 1
            continue
        if (t.kind == "id" and t.text == "MutexLock"
                and i + 2 < n and body[i + 1].kind == "id"
                and body[i + 2].kind == "punct" and body[i + 2].text == "("):
            close = _match_paren(body, i + 2)
            lock = _lock_identity(body[i + 3:close], fn.qualifier)
            held_now = tuple(name for name, _ in held)
            fact.acquires.append((held_now, lock, t.line))
            fact.all_locks.add(lock)
            held.append((lock, depth))
            i = close + 1
            continue
        # Method/function calls made while holding a lock (for one-level
        # call-graph propagation). Constructor-style 'Type var(' is filtered
        # by requiring the name not be directly preceded by another id.
        if (held and t.kind == "id" and t.text not in CONTROL_KEYWORDS
                and t.text != "MutexLock"
                and i + 1 < n and body[i + 1].kind == "punct"
                and body[i + 1].text == "("
                and not (i > 0 and body[i - 1].kind == "id")):
            callee = t.text
            if i >= 2 and body[i - 1].text == "::" and body[i - 2].kind == "id":
                callee = f"{body[i - 2].text}::{t.text}"
            fact.calls.append((tuple(name for name, _ in held), callee,
                               t.line))
        i += 1


def check_lock_order(files: list[SourceFile],
                     prefixes: tuple[str, ...]) -> list[Finding]:
    facts = analyze_lock_facts(files, prefixes)

    # Transitive lock set per function (which locks can a call into this
    # function acquire), via memoized DFS over the name-matched call graph.
    by_name: dict[str, list[str]] = {}
    for key in facts:
        by_name.setdefault(key.split("::")[-1], []).append(key)

    closure: dict[str, set[str]] = {}

    def locks_of(key: str, stack: frozenset[str]) -> set[str]:
        if key in closure:
            return closure[key]
        if key in stack:
            return set()
        fact = facts[key]
        out = set(fact.all_locks)
        for _, callee, _ in fact.calls:
            names = by_name.get(callee.split("::")[-1], [])
            for target in names:
                out |= locks_of(target, stack | {key})
        closure[key] = out
        return out

    # Edge list: held -> acquired, with a witness (function, line).
    edges: dict[tuple[str, str], tuple[str, int]] = {}
    for key, fact in facts.items():
        for held, lock, line in fact.acquires:
            for h in held:
                if h != lock:
                    edges.setdefault((h, lock), (key, line))
        for held, callee, line in fact.calls:
            if not held:
                continue
            for target in by_name.get(callee.split("::")[-1], []):
                if target == key:
                    continue
                for lock in locks_of(target, frozenset({key})):
                    for h in held:
                        if h != lock:
                            edges.setdefault((h, lock),
                                             (f"{key} -> {callee}", line))

    # Cycle detection with witness path.
    graph: dict[str, list[str]] = {}
    for (a, b) in edges:
        graph.setdefault(a, []).append(b)

    findings: list[Finding] = []
    seen_cycles: set[frozenset[str]] = set()
    state: dict[str, int] = {}
    path: list[str] = []

    def dfs(node: str) -> None:
        state[node] = 1
        path.append(node)
        for succ in sorted(graph.get(node, [])):
            if state.get(succ, 0) == 1:
                cycle = path[path.index(succ):] + [succ]
                cyc_key = frozenset(cycle)
                if cyc_key not in seen_cycles:
                    seen_cycles.add(cyc_key)
                    hops = []
                    for a, b in zip(cycle, cycle[1:]):
                        site, line = edges[(a, b)]
                        hops.append(f"{a} -> {b} ({site}:{line})")
                    site, line = edges[(cycle[0], cycle[1])]
                    findings.append(Finding(
                        "src", line, "lock-order",
                        "mutex acquisition cycle: " + "; ".join(hops)
                        + " — a consistent order (or a merged lock) is "
                          "required"))
            elif state.get(succ, 0) == 0:
                dfs(succ)
        path.pop()
        state[node] = 2

    for node in sorted(graph):
        if state.get(node, 0) == 0:
            dfs(node)
    return findings


# ---------------------------------------------------------------------------
# Rule 3: guarded-by
# ---------------------------------------------------------------------------

MUTEX_TYPES = {"Mutex"}
MUTATING_METHODS = {"push_back", "emplace_back", "pop_back", "clear",
                    "resize", "insert", "erase", "assign", "push", "pop",
                    "emplace", "swap", "reset", "reserve"}
ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
              ">>=", "++", "--"}


@dataclass
class GuardClass:
    name: str
    mutexes: set[str]
    members: dict[str, tuple[int, bool]]  # name -> (line, annotated)
    file_rel: str


def collect_guard_classes(files: list[SourceFile]) -> dict[str, GuardClass]:
    out: dict[str, GuardClass] = {}
    for sf in files:
        for cls in extract_classes(sf.tokens):
            mutexes: set[str] = set()
            members: dict[str, tuple[int, bool]] = {}
            for name, line, decl in extract_members(cls.body):
                toks = decl.split()
                if any(t in MUTEX_TYPES for t in toks):
                    mutexes.add(name)
                    continue
                annotated = "DBTF_GUARDED_BY" in decl or "GUARDED_BY" in decl
                atomic = "atomic" in decl
                const = toks and toks[0] in ("const", "constexpr", "static")
                if not atomic and not const:
                    members[name] = (line, annotated)
            if mutexes:
                out[cls.name] = GuardClass(cls.name, mutexes, members, sf.rel)
    return out


def check_guarded_by(files: list[SourceFile]) -> list[Finding]:
    classes = collect_guard_classes(files)
    findings: list[Finding] = []
    flagged: set[tuple[str, str]] = set()
    for sf in files:
        for fn in extract_functions(sf.tokens):
            gc = classes.get(fn.qualifier or "")
            if gc is None:
                continue
            for member, line in _mutations_under_lock(fn, gc):
                info = gc.members.get(member)
                if info is None:
                    continue
                decl_line, annotated = info
                if annotated or (gc.name, member) in flagged:
                    continue
                decl_file = next((f for f in files if f.rel == gc.file_rel),
                                 None)
                if decl_file and decl_file.suppressed(decl_line,
                                                      "guarded-by"):
                    continue
                flagged.add((gc.name, member))
                findings.append(Finding(
                    gc.file_rel, decl_line, "guarded-by",
                    f"{gc.name}::{member} is mutated under MutexLock "
                    f"({sf.rel}:{line}) but carries no DBTF_GUARDED_BY "
                    f"annotation — Clang's thread-safety analysis cannot "
                    f"check unannotated members"))
    return findings


def _mutations_under_lock(fn: Function,
                          gc: GuardClass) -> list[tuple[str, int]]:
    """(member, line) pairs mutated while a MutexLock on one of gc's
    mutexes is in scope inside fn's body."""
    body = fn.body
    n = len(body)
    out = []
    held_depths: list[int] = []
    depth = 0
    i = 0
    while i < n:
        t = body[i]
        if t.kind == "punct":
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                held_depths = [d for d in held_depths if d <= depth]
            i += 1
            continue
        if (t.kind == "id" and t.text == "MutexLock"
                and i + 2 < n and body[i + 1].kind == "id"
                and body[i + 2].kind == "punct" and body[i + 2].text == "("):
            close = _match_paren(body, i + 2)
            ids = [tok.text for tok in body[i + 3:close] if tok.kind == "id"]
            if ids and ids[-1] in gc.mutexes:
                held_depths.append(depth)
            i = close + 1
            continue
        if held_depths and t.kind == "id" and t.text in gc.members:
            # Bare member access only (not obj.member of another object).
            prev_ok = not (i > 0 and body[i - 1].kind == "punct"
                           and body[i - 1].text in (".", "->"))
            if i > 0 and body[i - 1].kind == "punct" \
                    and body[i - 1].text == "::":
                prev_ok = False
            if (i >= 2 and body[i - 1].kind == "punct"
                    and body[i - 1].text in (".", "->")
                    and body[i - 2].kind == "id"
                    and body[i - 2].text == "this"):
                prev_ok = True
            if prev_ok and i + 1 < n:
                nxt = body[i + 1]
                mutated = False
                if nxt.kind == "punct" and nxt.text in ASSIGN_OPS:
                    mutated = nxt.text != "=" or not (
                        i + 2 < n and body[i + 2].kind == "punct"
                        and body[i + 2].text == "=")
                elif (nxt.kind == "punct" and nxt.text in (".", "->")
                      and i + 3 < n and body[i + 2].kind == "id"
                      and body[i + 2].text in MUTATING_METHODS
                      and body[i + 3].kind == "punct"
                      and body[i + 3].text == "("):
                    mutated = True
                elif (i > 0 and body[i - 1].kind == "punct"
                      and body[i - 1].text in ("++", "--")):
                    mutated = True
                if mutated:
                    out.append((t.text, t.line))
        i += 1
    return out


# ---------------------------------------------------------------------------
# Rule 4: kernel-confinement
# ---------------------------------------------------------------------------

# The only places allowed to iterate BitWord arrays by hand: the kernel
# backends themselves, the word-level primitives header, and the span header
# (whose ForEachSetBit is the one sanctioned scalar scan).
KERNEL_EXEMPT_PREFIXES = ("src/common/kernels/",)
KERNEL_EXEMPT_FILES = {"src/common/bitops.h", "src/common/bitspan.h"}

# Operators that turn a subscripted word into word-level Boolean arithmetic.
KERNEL_BITWISE_AFTER = {"&", "|", "^", "&=", "|=", "^=", "<<", ">>",
                        "<<=", ">>="}
KERNEL_BITWISE_BEFORE = {"&", "|", "^", "~"}

# Tokens skipped between 'BitWord' and the declared identifier: covers
# 'const BitWord* w', 'std::vector<BitWord>& rows', 'unique_ptr<BitWord[]>'.
_BITWORD_DECL_SKIP = {"*", "&", ">", "[", "]"}


def _match_bracket(tokens: list[Token], open_index: int) -> int:
    depth = 0
    for i in range(open_index, len(tokens)):
        t = tokens[i]
        if t.kind == "punct":
            if t.text == "[":
                depth += 1
            elif t.text == "]":
                depth -= 1
                if depth == 0:
                    return i
    return len(tokens) - 1


def _bitword_identifiers(tokens: list[Token]) -> set[str]:
    """Identifiers declared with BitWord in their type within this file:
    'const BitWord* w', 'std::vector<BitWord> row', 'BitWord mask',
    'std::unique_ptr<BitWord[]> table' — parameters, locals, and members
    alike. Over-approximating is fine: flagging additionally requires a
    subscript combined with a bitwise operator inside a loop."""
    out: set[str] = set()
    n = len(tokens)
    for i, t in enumerate(tokens):
        if t.kind != "id" or t.text != "BitWord":
            continue
        j = i + 1
        while j < n and ((tokens[j].kind == "punct"
                          and tokens[j].text in _BITWORD_DECL_SKIP)
                         or (tokens[j].kind == "id"
                             and tokens[j].text == "const")):
            j += 1
        if j < n and tokens[j].kind == "id" and tokens[j].text != "BitWord":
            out.add(tokens[j].text)
    return out


def _loop_ranges(tokens: list[Token]) -> list[tuple[int, int]]:
    """Inclusive token index ranges covered by for/while headers and bodies.
    Nested loops each contribute their own range; overlap is harmless."""
    ranges: list[tuple[int, int]] = []
    n = len(tokens)
    for i, t in enumerate(tokens):
        if not (t.kind == "id" and t.text in ("for", "while")
                and i + 1 < n and tokens[i + 1].kind == "punct"
                and tokens[i + 1].text == "("):
            continue
        close = _match_paren(tokens, i + 1)
        j = close + 1
        if j < n and tokens[j].kind == "punct" and tokens[j].text == "{":
            end = _match_brace(tokens, j)
        else:  # single-statement body: scan to ';' skipping nested parens
            end = j
            while end < n:
                tk = tokens[end]
                if tk.kind == "punct":
                    if tk.text == "(":
                        end = _match_paren(tokens, end)
                    elif tk.text == ";":
                        break
                end += 1
        ranges.append((i, min(end, n - 1)))
    return ranges


def _scan_kernel_confinement(sf: SourceFile) -> list[Finding]:
    """Both kernel-confinement idioms in one file (exemptions NOT applied
    here — the caller filters paths, so the self-test can prove the scan
    trips on the kernel sources themselves)."""
    toks = sf.tokens
    n = len(toks)
    findings: list[Finding] = []
    for i, t in enumerate(toks):
        if (t.kind == "id" and t.text == "popcount"
                and i >= 2 and toks[i - 1].kind == "punct"
                and toks[i - 1].text == "::" and toks[i - 2].kind == "id"
                and toks[i - 2].text == "std"
                and not sf.suppressed(t.line, "kernel-confinement")):
            findings.append(Finding(
                sf.rel, t.line, "kernel-confinement",
                "std::popcount outside src/common/kernels/ — go through "
                "the dispatch table (Kernels().popcount / xor_popcount / "
                "and_popcount over a BitSpan) so every backend stays "
                "bit-for-bit identical to the portable oracle"))
    names = _bitword_identifiers(toks)
    if not names:
        return findings
    seen_lines: set[int] = set()
    for start, end in _loop_ranges(toks):
        i = start
        while i <= end and i < n:
            t = toks[i]
            if not (t.kind == "id" and t.text in names and i + 1 < n
                    and toks[i + 1].kind == "punct"
                    and toks[i + 1].text == "["):
                i += 1
                continue
            close = _match_bracket(toks, i + 1)
            after = toks[close + 1] if close + 1 < n else None
            before = toks[i - 1] if i > 0 else None
            hit = (after is not None and after.kind == "punct"
                   and after.text in KERNEL_BITWISE_AFTER)
            if (not hit and before is not None and before.kind == "punct"
                    and before.text in KERNEL_BITWISE_BEFORE):
                # '&w[i]' as address-of (after '(', ',', '=', ...) is not
                # word arithmetic; binary '&' follows a value token.
                if before.text != "&" or (
                        i >= 2 and (toks[i - 2].kind in ("id", "num")
                                    or toks[i - 2].text in (")", "]"))):
                    hit = True
            if (not hit and before is not None and before.kind == "punct"
                    and before.text == "(" and i >= 2
                    and toks[i - 2].kind == "id"
                    and toks[i - 2].text == "PopCount"):
                hit = True  # the bitops.h shim inside a loop is the idiom
            if (hit and t.line not in seen_lines
                    and not sf.suppressed(t.line, "kernel-confinement")):
                seen_lines.add(t.line)
                findings.append(Finding(
                    sf.rel, t.line, "kernel-confinement",
                    f"raw word loop over BitWord '{t.text}' — hand-rolled "
                    f"word iteration is confined to src/common/kernels/; "
                    f"wrap the data in a BitSpan and use the BoolKernels "
                    f"ops (or ForEachSetBit) instead"))
            i = close + 1
    return findings


def check_kernel_confinement(files: list[SourceFile]) -> list[Finding]:
    findings: list[Finding] = []
    for sf in files:
        if not sf.rel.startswith("src/"):
            continue
        if sf.rel.startswith(KERNEL_EXEMPT_PREFIXES) \
                or sf.rel in KERNEL_EXEMPT_FILES:
            continue
        findings.extend(_scan_kernel_confinement(sf))
    return findings


# ---------------------------------------------------------------------------
# Layering seams
# ---------------------------------------------------------------------------
#
# Each seam is a short token pattern that may appear only in the files that
# own the seam. The token stream already hides comments and string or
# character literals, and token texts are unambiguous across kinds (a
# literal keeps its quotes, a directive its '#'), so the matchers compare
# texts only. Scope is src/: tests legitimately spawn threads and signal
# through condition variables.

def _text(toks: list[Token], i: int) -> str:
    return toks[i].text if 0 <= i < len(toks) else ""


def _std(toks: list[Token], i: int, names: set[str]) -> str | None:
    """'std::<name>' for a std::-qualified name in `names` at i."""
    if (_text(toks, i) in names and _text(toks, i - 1) == "::"
            and _text(toks, i - 2) == "std"):
        return f"std::{toks[i].text}"
    return None


def _call(toks: list[Token], i: int, names: set[str],
          qualified_ok: tuple[str, ...] = ()) -> str | None:
    """'<name>()' for a call of one of `names` at i, unqualified or through
    the global '::'. A call through a class or namespace qualifier (std::bind)
    is another function, unless the qualifier is one of `qualified_ok`."""
    name = _text(toks, i)
    if name not in names or _text(toks, i + 1) != "(":
        return None
    if (_text(toks, i - 1) == "::" and i >= 2
            and ((toks[i - 2].kind == "id"
                  and toks[i - 2].text not in CONTROL_KEYWORDS)
                 or toks[i - 2].text == ">")
            and toks[i - 2].text not in qualified_ok):
        return None
    return f"{name}()"


def _member_call(toks: list[Token], i: int, names: set[str]) -> str | None:
    """'<name>()' for a call of one of `names` through '.' or '->' at i."""
    if (_text(toks, i) in names and _text(toks, i - 1) in (".", "->")
            and _text(toks, i + 1) == "("):
        return f"{toks[i].text}()"
    return None


WORKER_INCLUDE_RE = re.compile(r'#\s*include\s+"dist/worker\.h"')
GUARD_MACROS = {"DBTF_GUARDED_BY", "GUARDED_BY"}
COMM_RECORDS = {"RecordShuffle", "RecordBroadcast", "RecordCollect",
                "RecordQuery"}
RECOVERY_RECORDS = {"RecordFailedDelivery", "RecordRetry", "RecordMachineLost",
                    "RecordReprovision", "RecordStall"}
TRANSPORT_SYSCALLS = {"socket", "socketpair", "bind", "listen", "accept",
                      "connect", "setsockopt", "send", "sendmsg", "recv",
                      "recvmsg", "fork", "vfork", "execv", "execve", "execvp",
                      "execvpe", "execl", "execle", "execlp", "waitpid", "kill",
                      "mkdtemp"}
ASYNC_PRIMITIVES = {"promise", "future", "shared_future", "packaged_task",
                    "async"}


def _worker_include(toks: list[Token], i: int) -> str | None:
    return ('"dist/worker.h"' if toks[i].kind == "pp"
            and WORKER_INCLUDE_RE.match(toks[i].text) else None)


def _naked_mutex(toks: list[Token], i: int) -> str | None:
    """A '[mutable] [std::|dbtf::]Mutex name_;' member — a plain mutex, not
    a container of them — whose name no DBTF_GUARDED_BY in the file cites."""
    if not (_text(toks, i) in ("Mutex", "mutex") and i + 2 < len(toks)
            and toks[i + 1].kind == "id" and toks[i + 1].text.endswith("_")
            and _text(toks, i + 2) == ";"):
        return None
    j = i - 1
    if _text(toks, j) == "::" and _text(toks, j - 1) in ("std", "dbtf"):
        j -= 2
    if _text(toks, j) == "mutable":
        j -= 1
    if j >= 0 and toks[j].kind != "pp" and toks[j].text not in (";", "{",
                                                                "}", ":"):
        return None
    name = toks[i + 1].text
    guarded = {_text(toks, k + 2) for k, t in enumerate(toks)
               if t.text in GUARD_MACROS and _text(toks, k + 1) == "("}
    return None if name in guarded else name


def _comm_mutation(toks: list[Token], i: int) -> str | None:
    hit = _member_call(toks, i, COMM_RECORDS)
    if hit is None and _member_call(toks, i, {"Reset"}):
        # Reset() mutates the ledger only when called on a CommStats: the
        # cluster's comm_ member or its comm() accessor.
        if _text(toks, i - 2) == "comm_" or (
                _text(toks, i - 2) == ")" and _text(toks, i - 3) == "("
                and _text(toks, i - 4) == "comm"):
            hit = "Reset()"
    return hit


def _sleep(toks: list[Token], i: int) -> str | None:
    if (_text(toks, i) in ("sleep_for", "sleep_until")
            and _text(toks, i - 1) == "::"
            and _text(toks, i - 2) == "this_thread"):
        return f"this_thread::{toks[i].text}"
    if _text(toks, i) in ("usleep", "nanosleep") and _text(toks, i + 1) == "(":
        return f"{toks[i].text}()"
    return _call(toks, i, {"sleep"})


def _unavailable(toks: list[Token], i: int) -> str | None:
    if (_text(toks, i) == "Unavailable" and _text(toks, i - 1) == "::"
            and _text(toks, i - 2) == "Status" and _text(toks, i + 1) == "("):
        return "Status::Unavailable()"
    return None


def _filesystem_write(toks: list[Token], i: int) -> str | None:
    if _text(toks, i) == "ofstream" and (_text(toks, i - 1) != "::"
                                         or _text(toks, i - 2) == "std"):
        return "ofstream"
    return _call(toks, i, {"fopen", "rename"}, qualified_ok=("std",))


@dataclass(frozen=True)
class Seam:
    """One confined pattern. `match(tokens, i)` names the violation that
    starts at tokens[i] (None: no match); `message` may cite it as {hit}.
    `only` and `exempt` are src/-relative path prefixes: the pattern is
    checked in files under some `only` prefix and no `exempt` one."""
    rule: str
    match: Callable[[list[Token], int], str | None]
    message: str
    exempt: tuple[str, ...] = ()
    only: tuple[str, ...] = ("",)


SEAMS = (
    Seam("worker-include", _worker_include,
         "dist/worker.h is only visible to src/dist/ and src/dbtf/engine.cc; "
         "drive workers through Cluster routing or dist/provision.h",
         exempt=("dist/", "dbtf/engine.cc")),
    Seam("naked-mutex", _naked_mutex,
         "mutex member '{hit}' guards nothing: annotate the protected "
         "members with DBTF_GUARDED_BY({hit})",
         exempt=("common/mutex.h",)),
    Seam("thread-construction",
         lambda toks, i: (_std(toks, i, {"thread"})
                          if _text(toks, i + 1) != "::" else None),
         "std::thread objects are created only by src/dist/thread_pool."
         "{{h,cc}}; submit work to the pool instead",
         exempt=("dist/thread_pool.h", "dist/thread_pool.cc")),
    Seam("comm-stats-mutation", _comm_mutation,
         "the CommStats ledger is charged only by Cluster "
         "(src/dist/cluster.cc) so routed bytes are counted exactly once",
         exempt=("dist/cluster.cc",)),
    Seam("fault-handling", _sleep,
         "wall-clock sleep {hit} in the runtime: faults, stalls, and retry "
         "backoff are charged to the virtual clocks via dist/fault.h",
         only=("dist/", "dbtf/")),
    Seam("fault-handling", _unavailable,
         "Status::Unavailable is manufactured only by the fault seam "
         "(dist/fault.cc) and the retrying router (dist/cluster.cc); express "
         "failures through dist/fault.h",
         exempt=("dist/fault.cc", "dist/cluster.cc"), only=("dist/", "dbtf/")),
    Seam("recovery-stats-mutation",
         lambda toks, i: _member_call(toks, i, RECOVERY_RECORDS),
         "the RecoveryLedger is charged only by Cluster (src/dist/cluster.cc) "
         "so every retry and re-provision is counted exactly once",
         exempt=("dist/cluster.cc",)),
    Seam("filesystem-write", _filesystem_write,
         "{hit} writes a file outside the checkpoint store (src/ckpt/) and "
         "the tensor text codecs (src/tensor/io.cc): durable state written "
         "elsewhere escapes the atomic tmp+fsync+rename discipline",
         exempt=("ckpt/", "tensor/io.cc", "tensor/io.h")),
    Seam("transport-syscalls",
         lambda toks, i: _call(toks, i, TRANSPORT_SYSCALLS),
         "raw process/socket syscall {hit} outside src/dist/transport/ (the "
         "socket transport owns process lifecycles and frame I/O); route "
         "work through the transport seam",
         exempt=("dist/transport/",)),
    Seam("async-seam", lambda toks, i: _std(toks, i, ASYNC_PRIMITIVES),
         "no {hit} in src/: route through Cluster's blocking calls, which "
         "deliver under the per-machine delivery locks in call order"),
    Seam("async-seam",
         lambda toks, i: _std(toks, i, {"condition_variable",
                                        "condition_variable_any"}),
         "{hit} is confined to common/mutex.h and dist/thread_pool.h; wait "
         "with MutexLock::Wait or ThreadPool::ParallelFor instead of "
         "hand-rolled signalling",
         exempt=("common/mutex.h", "dist/thread_pool.h")),
)


def check_seams(files: list[SourceFile], rules: list[str]) -> list[Finding]:
    """Seam findings over src/, at most one per (line, seam)."""
    findings: list[Finding] = []
    for sf in files:
        if not sf.rel.startswith("src/"):
            continue
        rel = sf.rel[len("src/"):]
        seams = [s for s in SEAMS if s.rule in rules
                 and rel.startswith(s.only) and not rel.startswith(s.exempt)]
        flagged: set[tuple[int, Seam]] = set()
        for i, t in enumerate(sf.tokens):
            for seam in seams:
                hit = seam.match(sf.tokens, i)
                if (hit is None or (t.line, seam) in flagged
                        or sf.suppressed(t.line, seam.rule)):
                    continue
                flagged.add((t.line, seam))
                findings.append(Finding(sf.rel, t.line, seam.rule,
                                        seam.message.format(hit=hit)))
    return findings


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

LOCK_ORDER_PREFIXES = ("src/dist/", "src/ckpt/", "src/dbtf/")


def load_files(root: Path) -> list[SourceFile]:
    files = []
    for sub in ("src", "tests"):
        base = root / sub
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc") or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            files.append(SourceFile(rel, path.read_text(encoding="utf-8")))
    return files


def analyze(root: Path, rules: list[str]) -> list[Finding]:
    files = load_files(root)
    by_rel = {sf.rel: sf for sf in files}
    findings: list[Finding] = []

    if "discarded-status" in rules:
        status_names = collect_status_returning(files)
        findings.extend(check_discarded_status(files, status_names))
    if "lock-order" in rules:
        findings.extend(check_lock_order(files, LOCK_ORDER_PREFIXES))
    if "guarded-by" in rules:
        findings.extend(check_guarded_by(files))
    if "kernel-confinement" in rules:
        findings.extend(check_kernel_confinement(files))
    findings.extend(check_seams(files, rules))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root containing src/ (default: this repo)")
    parser.add_argument(
        "--rule", action="append", choices=RULES, dest="rules",
        help="run only the named rule (repeatable; default: all)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"dbtf_analyze: no src/ under {root}", file=sys.stderr)
        return 2
    rules = args.rules or list(RULES)
    findings = analyze(root, rules)
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(finding.render())
    if findings:
        print(f"dbtf_analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
