#!/usr/bin/env python3
"""DBTF project analyzer: AST-grade rules the regex linter cannot express.

Where tools/dbtf_lint.py matches per-line patterns, this tool lexes the C++
sources into a token stream, recovers the class/function structure, and
checks whole-program properties (see DESIGN.md, "Correctness tooling"):

  discarded-status    a call whose result is dbtf::Status or Result<T> and
                      whose value is not consumed is an error. Backed by
                      [[nodiscard]] on both types (common/status.h) plus
                      -Werror=unused-result; this pass additionally catches
                      discards the compiler cannot see (macro bodies,
                      uninstantiated templates). Intentional drops must be
                      written DBTF_IGNORE_ERROR(expr).
  lock-order          extracts the dbtf::Mutex acquisition graph (MutexLock
                      scopes, one level of call-graph propagation) across
                      src/dist/, src/ckpt/, and src/dbtf/ and fails on any
                      cycle, printing the witness path. A cycle is a
                      potential deadlock even if today's schedules never
                      interleave it.
  ckpt-coverage       every CheckpointState (and FactorShadowSnapshot) field
                      must be written by Session::BuildCheckpoint, read by
                      Session::RestoreFromCheckpoint, serialized by a
                      ckpt_format::Serialize* blob codec, and parsed by the
                      matching ckpt_format::Parse* codec. Adding a field
                      without serializing it (or bumping kFormatVersion) is
                      a build-time failure, not a silent resume corruption.
  wire-coverage       every field of every message struct in dist/messages.h
                      must be referenced by both its Encode* and Decode*
                      codec in dist/transport/wire.cc, and both codecs must
                      exist. A field that never crosses the wire would
                      desynchronize the socket transport from the in-process
                      oracle.
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

Backends:
  internal   a built-in C++ lexer + structural parser; no dependencies
             beyond the standard library. Always available; implements all
             rules.
  libclang   when python3 clang bindings (clang.cindex) and a libclang
             shared object are installed, the discarded-status rule is
             re-derived from the real clang AST over the exported
             compile_commands.json, which sees through typedefs and
             template instantiation. Missing bindings degrade to the
             internal backend with a note — never to a weaker check.

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

RULES = ("discarded-status", "lock-order", "ckpt-coverage", "wire-coverage",
         "guarded-by", "kernel-confinement")

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
    member, 'obj.member_' for a qualified access."""
    ids = [t.text for t in expr if t.kind == "id"]
    if not ids:
        return "<unknown>"
    if len(ids) == 1:
        return f"{qualifier or '<free>'}::{ids[0]}"
    return ".".join(ids)


def analyze_lock_facts(files: list[SourceFile],
                       prefixes: tuple[str, ...]) -> dict[str, LockFacts]:
    """Extracts MutexLock scopes + calls per function over selected files."""
    facts: dict[str, LockFacts] = {}
    for sf in files:
        if not sf.rel.startswith(prefixes):
            continue
        for fn in extract_functions(sf.tokens):
            key = f"{fn.qualifier}::{fn.name}" if fn.qualifier else fn.name
            fact = facts.setdefault(key, LockFacts())
            _scan_locks(sf, fn, fact)
    return facts


def _scan_locks(sf: SourceFile, fn: Function, fact: LockFacts) -> None:
    body = fn.body
    n = len(body)
    # held: list of (lock_name, brace_depth_at_acquisition)
    held: list[tuple[str, int]] = []
    depth = 0
    i = 0
    while i < n:
        t = body[i]
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
# Rules 3a/3b: schema coverage
# ---------------------------------------------------------------------------

def _struct_fields(sf: SourceFile, struct_name: str) -> list[tuple[str, int]]:
    for cls in extract_classes(sf.tokens):
        if cls.name == struct_name:
            return [(name, line) for name, line, _ in
                    extract_members(cls.body)]
    return []


def _function_body_tokens(sf: SourceFile, name: str,
                          qualifier: str | None = None) -> list[Token] | None:
    for fn in extract_functions(sf.tokens):
        if fn.name == name and (qualifier is None
                                or fn.qualifier == qualifier):
            return fn.body
    return None


def _member_tokens(body: list[Token]) -> set[str]:
    """Identifiers appearing as member accesses (after '.', '->') or as
    designated initializers / bare identifiers — the superset is fine for
    coverage checking."""
    return {t.text for t in body if t.kind == "id"}


def check_ckpt_coverage(by_rel: dict[str, SourceFile]) -> list[Finding]:
    header = by_rel.get("src/ckpt/checkpoint.h")
    if header is None:
        return []
    findings: list[Finding] = []

    consumers = []  # (what, fields-must-appear-in, description)
    session = by_rel.get("src/dbtf/session.cc")
    fmt = by_rel.get("src/ckpt/format.cc")
    if session is not None:
        build = _function_body_tokens(session, "BuildCheckpoint", "Session")
        restore = _function_body_tokens(session, "RestoreFromCheckpoint",
                                        "Session")
        if build is None:
            findings.append(Finding(
                "src/dbtf/session.cc", 1, "ckpt-coverage",
                "Session::BuildCheckpoint not found — the ckpt-coverage "
                "rule needs it to prove every field is captured"))
        else:
            consumers.append((_member_tokens(build),
                              "Session::BuildCheckpoint (field never "
                              "written into the snapshot)"))
        if restore is None:
            findings.append(Finding(
                "src/dbtf/session.cc", 1, "ckpt-coverage",
                "Session::RestoreFromCheckpoint not found — the "
                "ckpt-coverage rule needs it to prove every field is "
                "consumed on resume"))
        else:
            consumers.append((_member_tokens(restore),
                              "Session::RestoreFromCheckpoint (field never "
                              "read on resume)"))
    if fmt is not None:
        ser_tokens: set[str] = set()
        par_tokens: set[str] = set()
        for fn in extract_functions(fmt.tokens):
            if fn.name.startswith("Serialize"):
                ser_tokens |= _member_tokens(fn.body)
            elif fn.name.startswith("Parse"):
                par_tokens |= _member_tokens(fn.body)
        consumers.append((ser_tokens,
                          "any ckpt_format::Serialize* blob codec (field "
                          "never serialized — add it to a blob and bump "
                          "kFormatVersion)"))
        consumers.append((par_tokens,
                          "any ckpt_format::Parse* blob codec (field never "
                          "parsed — a snapshot would restore it to its "
                          "default)"))

    for struct in ("CheckpointState", "FactorShadowSnapshot"):
        for fld, line in _struct_fields(header, struct):
            if header.suppressed(line, "ckpt-coverage"):
                continue
            for tokens, description in consumers:
                if fld not in tokens:
                    findings.append(Finding(
                        "src/ckpt/checkpoint.h", line, "ckpt-coverage",
                        f"{struct}::{fld} is not referenced by "
                        f"{description}"))
    return findings


# Messages whose codecs live in wire.cc under Encode<Name>/Decode<Name>.
WIRE_MESSAGE_SUFFIXES = ("", "Request", "Response")


def check_wire_coverage(by_rel: dict[str, SourceFile]) -> list[Finding]:
    header = by_rel.get("src/dist/messages.h")
    wire = by_rel.get("src/dist/transport/wire.cc")
    if header is None or wire is None:
        return []
    findings: list[Finding] = []
    wire_functions = {fn.name: fn for fn in extract_functions(wire.tokens)}

    for cls in extract_classes(header.tokens):
        fields = extract_members(cls.body)
        if not fields:
            continue
        encode = wire_functions.get(f"Encode{cls.name}")
        decode = wire_functions.get(f"Decode{cls.name}")
        if encode is None or decode is None:
            findings.append(Finding(
                "src/dist/messages.h", cls.line, "wire-coverage",
                f"message {cls.name} has no "
                f"{'Encode' if encode is None else 'Decode'}{cls.name} in "
                f"src/dist/transport/wire.cc — every wire message needs "
                f"both codecs"))
            continue
        enc_tokens = _member_tokens(encode.body)
        dec_tokens = _member_tokens(decode.body)
        for fld, line, _ in fields:
            if header.suppressed(line, "wire-coverage"):
                continue
            if fld not in enc_tokens:
                findings.append(Finding(
                    "src/dist/messages.h", line, "wire-coverage",
                    f"{cls.name}::{fld} is never encoded by "
                    f"Encode{cls.name} — the socket transport would drop "
                    f"it (add it to the codec and bump kWireVersion)"))
            if fld not in dec_tokens:
                findings.append(Finding(
                    "src/dist/messages.h", line, "wire-coverage",
                    f"{cls.name}::{fld} is never decoded by "
                    f"Decode{cls.name} — a decoded message would hold the "
                    f"field's default instead of the sender's value"))
    return findings


# ---------------------------------------------------------------------------
# Rule 4: guarded-by
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
# Rule 5: kernel-confinement
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
# libclang backend (optional; replaces the internal discarded-status pass)
# ---------------------------------------------------------------------------

def try_libclang_discarded(root: Path, compdb_dir: Path) -> \
        list[Finding] | None:
    """Re-derives the discarded-status rule from the clang AST when the
    python bindings and a libclang shared object are installed. Returns None
    (degrade to the internal backend) when anything is missing — never a
    weaker check."""
    try:
        from clang import cindex  # type: ignore
    except Exception:
        return None
    try:
        index = cindex.Index.create()
        compdb = cindex.CompilationDatabase.fromDirectory(str(compdb_dir))
    except Exception:
        return None

    findings: list[Finding] = []
    try:
        commands = list(compdb.getAllCompileCommands())
        for cmd in commands:
            path = Path(cmd.filename)
            try:
                rel = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                continue
            if not rel.startswith(("src/", "tests/")):
                continue
            args = [a for a in list(cmd.arguments)[1:]
                    if a not in (str(path), "-c", "-o")]
            # Drop the object-file operand the '-o' used to take.
            cleaned = []
            skip = False
            for a in args:
                if skip:
                    skip = False
                    continue
                if a == "-o":
                    skip = True
                    continue
                cleaned.append(a)
            tu = index.parse(str(path), args=cleaned)
            for cursor in tu.cursor.walk_preorder():
                if cursor.kind != cindex.CursorKind.CALL_EXPR:
                    continue
                if cursor.location.file is None or \
                        Path(str(cursor.location.file)) != path:
                    continue
                rtype = cursor.type.spelling
                if not (rtype.endswith("Status")
                        or "Result<" in rtype):
                    continue
                parent = cursor.semantic_parent
                # Heuristic parent check: clang exposes unused results via
                # -Wunused-result diagnostics; collect those instead.
            for diag in tu.diagnostics:
                if "ignoring return value" in diag.spelling and \
                        diag.location.file is not None and \
                        Path(str(diag.location.file)) == path:
                    findings.append(Finding(
                        rel, diag.location.line, "discarded-status",
                        "clang AST: " + diag.spelling))
    except Exception:
        return None
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


def analyze(root: Path, rules: list[str], backend: str) -> list[Finding]:
    files = load_files(root)
    by_rel = {sf.rel: sf for sf in files}
    findings: list[Finding] = []

    if "discarded-status" in rules:
        clang_findings = None
        if backend in ("auto", "libclang"):
            compdb = root / "build"
            if (compdb / "compile_commands.json").is_file():
                clang_findings = try_libclang_discarded(root, compdb)
            if clang_findings is None and backend == "libclang":
                print("dbtf_analyze: libclang backend requested but "
                      "clang.cindex/libclang is unavailable", file=sys.stderr)
                raise SystemExit(2)
        status_names = collect_status_returning(files)
        internal = check_discarded_status(files, status_names)
        if clang_findings is not None:
            # The AST pass is authoritative where it ran; keep internal
            # findings too (macros/templates clang may have folded away),
            # deduplicated by site.
            seen = {(f.path, f.line) for f in internal}
            findings.extend(internal)
            findings.extend(f for f in clang_findings
                            if (f.path, f.line) not in seen)
        else:
            findings.extend(internal)
    if "lock-order" in rules:
        findings.extend(check_lock_order(files, LOCK_ORDER_PREFIXES))
    if "ckpt-coverage" in rules:
        findings.extend(check_ckpt_coverage(by_rel))
    if "wire-coverage" in rules:
        findings.extend(check_wire_coverage(by_rel))
    if "guarded-by" in rules:
        findings.extend(check_guarded_by(files))
    if "kernel-confinement" in rules:
        findings.extend(check_kernel_confinement(files))
    return findings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parent.parent,
        help="repository root containing src/ (default: this repo)")
    parser.add_argument(
        "--rule", action="append", choices=RULES, dest="rules",
        help="run only the named rule (repeatable; default: all)")
    parser.add_argument(
        "--backend", choices=("auto", "internal", "libclang"),
        default="auto",
        help="auto: libclang for discarded-status when importable, internal "
             "otherwise; internal: never touch libclang; libclang: require "
             "it (exit 2 when missing)")
    args = parser.parse_args(argv)

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"dbtf_analyze: no src/ under {root}", file=sys.stderr)
        return 2
    rules = args.rules or list(RULES)
    findings = analyze(root, rules, args.backend)
    for finding in sorted(findings, key=lambda f: (f.path, f.line, f.rule)):
        print(finding.render())
    if findings:
        print(f"dbtf_analyze: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
