"""Parser for SWGOMP's OpenMP directive subset (section 3.3.1, Fig. 4).

SWGOMP is "a compiler-plugin-based tool" that turns OpenMP-offload
directives in Fortran source into CPE launches: ``!$omp target`` opens a
device region, ``!$omp parallel``/``!$omp do`` distribute loops to CPEs,
``!$omp target parallel workshare`` offloads Fortran array operations,
and the unified-shared-memory backport removes data-map clauses.

This module parses that directive subset from Fortran-like source text
into a structured launch plan (regions, their clauses, and the loop
nests they cover) — the front half of SWGOMP, feeding the
:class:`~repro.sunway.swgomp.JobServer` execution model.  The test suite
parses the paper's own Fig. 4 listing and checks it produces exactly one
target region with one distributed loop and one workshare region.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

#: Directive sentinel (case-insensitive, Fortran free form).
_SENTINEL = re.compile(r"^\s*!\$omp\s+(.*)$", re.IGNORECASE)


@dataclass
class LoopNest:
    """One ``!$omp do``-annotated loop inside a parallel region."""

    line: int
    variable: str = ""
    nowait: bool = False


@dataclass
class WorkshareRegion:
    """A ``workshare`` region offloading array syntax."""

    line: int
    statements: int = 0


@dataclass
class TargetRegion:
    """One ``!$omp target`` region with its contents."""

    line: int
    combined: tuple = ()                 # e.g. ("parallel", "workshare")
    private: list = field(default_factory=list)
    num_teams: int | None = None
    loops: list = field(default_factory=list)
    workshares: list = field(default_factory=list)


@dataclass
class LaunchPlan:
    """Everything SWGOMP would hand to the job server for one file."""

    targets: list = field(default_factory=list)
    uses_unified_shared_memory: bool = True   # the OpenMP 5.0 backport
    #: Structured errors gathered in ``errors="collect"`` mode.
    errors: list = field(default_factory=list)

    @property
    def n_target_regions(self) -> int:
        return len(self.targets)


class DirectiveError(ValueError):
    """Malformed or unbalanced directive structure.

    A *structured* error: ``line`` is the 1-based source line (None for
    end-of-file problems) and ``code`` a stable machine-readable slug
    (``"unbalanced-end"``, ``"unterminated"``, ``"outside-target"``,
    ``"nested-target"``, ``"unknown-directive"``, ``"unknown-clause"``),
    so tools can key off the failure kind rather than the message text.
    """

    def __init__(self, message: str, line: int | None = None, code: str = ""):
        super().__init__(message)
        self.line = line
        self.code = code

    def to_dict(self) -> dict:
        return {"message": str(self), "line": self.line, "code": self.code}


#: Directive keywords that may legally appear in a directive body.
_KEYWORDS = {"target", "parallel", "workshare", "do", "end"}

#: Clause patterns recognised by the subset (everything else errors).
_PRIVATE_RE = re.compile(r"private\s*\(([^)]*)\)", re.IGNORECASE)
_NUM_TEAMS_RE = re.compile(r"num_teams\s*\(\s*(\d+)\s*\)", re.IGNORECASE)
_NOWAIT_RE = re.compile(r"\bnowait\b", re.IGNORECASE)


def _strip_comment(text: str) -> str:
    """Drop a trailing Fortran ``!`` comment from a directive body."""
    return text.split("!", 1)[0]


def _clauses(text: str, lineno: int) -> dict:
    """Extract the recognised clauses; reject anything left over.

    ``text`` must already have its trailing comment stripped.  Unknown
    clauses are an error (not a silent drop): the USM backport is the
    only sanctioned reason clauses disappear, and it removes *data-map*
    clauses in the compiler, not in this parser.
    """
    out: dict = {}
    m = _PRIVATE_RE.search(text)
    if m:
        out["private"] = [v.strip() for v in m.group(1).split(",") if v.strip()]
        text = text[: m.start()] + " " + text[m.end():]
    m = _NUM_TEAMS_RE.search(text)
    if m:
        out["num_teams"] = int(m.group(1))
        text = text[: m.start()] + " " + text[m.end():]
    text, n = _NOWAIT_RE.subn(" ", text)
    out["nowait"] = bool(n)
    leftover = [
        tok for tok in re.split(r"[\s,]+", text)
        if tok and tok.lower() not in _KEYWORDS
    ]
    if leftover:
        raise DirectiveError(
            f"line {lineno}: unknown clause(s) {leftover!r} "
            "(supported: private(...), num_teams(...), nowait)",
            line=lineno,
            code="unknown-clause",
        )
    return out


class _Parser:
    """Line-state machine shared by raise and collect modes."""

    def __init__(self) -> None:
        self.plan = LaunchPlan()
        self.current: TargetRegion | None = None
        self.in_parallel = False
        self.open_loop: LoopNest | None = None
        self.open_workshare: WorkshareRegion | None = None

    def plain_line(self, raw: str) -> None:
        stripped = raw.strip()
        if not stripped or stripped.startswith("!"):
            return
        if self.open_loop is not None and not self.open_loop.variable:
            dm = re.match(r"do\s+(\w+)\s*=", stripped, re.IGNORECASE)
            if dm:
                self.open_loop.variable = dm.group(1)
        if self.open_workshare is not None:
            self.open_workshare.statements += 1

    def directive_line(self, text: str, lineno: int) -> None:
        text = _strip_comment(text)
        body = text.strip().lower()
        head = body.split(None, 1)[0] if body else ""
        if head not in _KEYWORDS:
            raise DirectiveError(
                f"line {lineno}: unsupported directive {body!r}",
                line=lineno, code="unknown-directive",
            )
        cl = _clauses(text, lineno)
        if body.startswith("end"):
            self._end_directive(body[3:].strip(), cl, lineno)
        elif body.startswith("target"):
            self._open_target(body, cl, lineno)
        elif body.startswith("parallel"):
            if self.current is None:
                raise DirectiveError(
                    f"line {lineno}: parallel outside a target region "
                    "(SWGOMP offloads through target)",
                    line=lineno, code="outside-target",
                )
            self.in_parallel = True
            self.current.private.extend(cl.get("private", []))
        elif body.startswith("do"):
            if self.current is None or not self.in_parallel:
                raise DirectiveError(
                    f"line {lineno}: '!$omp do' outside target parallel",
                    line=lineno, code="outside-target",
                )
            loop = LoopNest(line=lineno)
            self.current.loops.append(loop)
            self.open_loop = loop
        elif body.startswith("workshare"):
            if self.current is None:
                raise DirectiveError(
                    f"line {lineno}: workshare outside target",
                    line=lineno, code="outside-target",
                )
            ws = WorkshareRegion(line=lineno)
            self.current.workshares.append(ws)
            self.open_workshare = ws
        else:
            raise DirectiveError(
                f"line {lineno}: unsupported directive {body!r}",
                line=lineno, code="unknown-directive",
            )

    def _open_target(self, body: str, cl: dict, lineno: int) -> None:
        if self.current is not None:
            raise DirectiveError(
                f"line {lineno}: nested target regions",
                line=lineno, code="nested-target",
            )
        combined = []
        rest = body[len("target"):]
        if "parallel" in rest:
            combined.append("parallel")
            self.in_parallel = True
        if "workshare" in rest:
            combined.append("workshare")
        self.current = TargetRegion(
            line=lineno,
            combined=tuple(combined),
            private=cl.get("private", []),
            num_teams=cl.get("num_teams"),
        )
        if "workshare" in combined:
            ws = WorkshareRegion(line=lineno)
            self.current.workshares.append(ws)
            self.open_workshare = ws

    def _end_directive(self, what: str, cl: dict, lineno: int) -> None:
        if what.startswith("target"):
            if self.current is None:
                raise DirectiveError(
                    f"line {lineno}: end target without target",
                    line=lineno, code="unbalanced-end",
                )
            self.plan.targets.append(self.current)
            self.current = None
            self.in_parallel = False
        elif what.startswith("parallel"):
            if not self.in_parallel:
                raise DirectiveError(
                    f"line {lineno}: end parallel without parallel",
                    line=lineno, code="unbalanced-end",
                )
            self.in_parallel = False
        elif what.startswith("do"):
            if self.open_loop is None:
                raise DirectiveError(
                    f"line {lineno}: end do without do",
                    line=lineno, code="unbalanced-end",
                )
            self.open_loop.nowait = cl["nowait"]
            self.open_loop = None
        elif what.startswith("workshare"):
            if self.open_workshare is None:
                raise DirectiveError(
                    f"line {lineno}: end workshare without workshare",
                    line=lineno, code="unbalanced-end",
                )
            self.open_workshare = None
        else:
            raise DirectiveError(
                f"line {lineno}: unknown end-directive {what!r}",
                line=lineno, code="unknown-directive",
            )

    def finish(self) -> list:
        """End-of-source balance checks; returns the errors found."""
        out = []
        if self.current is not None:
            out.append(DirectiveError(
                "unterminated target region "
                f"(opened at line {self.current.line})",
                line=self.current.line, code="unterminated",
            ))
        if self.open_loop is not None:
            out.append(DirectiveError(
                "unterminated '!$omp do' loop "
                f"(opened at line {self.open_loop.line})",
                line=self.open_loop.line, code="unterminated",
            ))
        return out


def parse_directives(source: str, errors: str = "raise") -> LaunchPlan:
    """Parse a Fortran-like source string into a :class:`LaunchPlan`.

    Recognised directives: ``target`` / ``end target`` (optionally
    combined with ``parallel`` and/or ``workshare``), ``parallel`` /
    ``end parallel``, ``do`` / ``end do``, ``workshare`` /
    ``end workshare``, with ``private(...)``, ``num_teams(...)`` and
    ``nowait`` clauses.  Trailing ``!`` comments are ignored; unknown
    clauses and directives are structured errors, never silent drops.

    ``errors="raise"`` (default) raises the first
    :class:`DirectiveError`; ``errors="collect"`` records every error on
    ``plan.errors`` (recovering line-by-line) and returns the
    best-effort plan — the mode ``repro lint`` uses to report all
    directive problems at once.
    """
    if errors not in ("raise", "collect"):
        raise ValueError(f"errors must be 'raise' or 'collect', got {errors!r}")
    p = _Parser()
    for lineno, raw in enumerate(source.splitlines(), start=1):
        m = _SENTINEL.match(raw)
        if not m:
            p.plain_line(raw)
            continue
        try:
            p.directive_line(m.group(1), lineno)
        except DirectiveError as err:
            if errors == "raise":
                raise
            p.plan.errors.append(err)
    tail = p.finish()
    if tail and errors == "raise":
        raise tail[0]
    p.plan.errors.extend(tail)
    if p.current is not None:
        # Best-effort recovery: keep the unterminated region's contents.
        p.plan.targets.append(p.current)
    return p.plan


#: The paper's Fig. 4 listing, verbatim (used by tests and the docs).
FIG4_SOURCE = """\
!$omp target !Just add this
!$omp parallel private(ie,v1,v2,ilev)
!$omp do
   do ie = 1, mesh%ne
     v1       = mesh%edt_v(1, ie)
     v2       = mesh%edt_v(2, ie)
      do ilev = 1, nlev
         tend_grad_ke_at_edge_full_level(ilev,ie) = &
         -edt_edpNr_edtTg(ie)*(kinetic_energy(ilev,v2) &
         -kinetic_energy(ilev,v1))/(rearth*edt_leng(ie))
      end do
   end do
!$omp end do nowait
!$omp end parallel
!$omp end target !and this, and enjoy CPEs
!$omp target parallel workshare !or for fortran arrayop
kinetic_energy(:,:) = 0
!$omp end target parallel workshare
"""
