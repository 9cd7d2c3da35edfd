"""Docs-integrity checks: the architecture/serialization/serving pages
under docs/ point into the real tree.

Documentation that names `src/repro/...` paths rots silently when a
refactor moves a module; this test (run in tier-1 and as its own CI
step) fails the build instead. Any path-shaped reference into src/,
tests/, benchmarks/, examples/, or docs/ appearing in docs/*.md,
README.md, or ROADMAP.md must exist on disk."""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).parent.parent

# Path-shaped tokens rooted at a tracked tree: `src/repro/serve/x.py`,
# `benchmarks/bench_restart.py`, `docs/serialization.md`, a directory
# reference like `src/repro/store/`, or a brace expansion like
# `docs/{architecture,serialization}.md`.
_PATH_RE = re.compile(
    r"\b(?:src|tests|benchmarks|examples|docs)/[\w\-./{},]*[\w/}]"
)

REQUIRED_PAGES = (
    "docs/analysis.md",
    "docs/architecture.md",
    "docs/fleet.md",
    "docs/records.md",
    "docs/serialization.md",
    "docs/serving.md",
)


def _expand_braces(token: str):
    """`a/{b,c}.md` -> [`a/b.md`, `a/c.md`] (one level is plenty)."""
    match = re.search(r"\{([^{}]*)\}", token)
    if not match:
        return [token]
    head, tail = token[: match.start()], token[match.end() :]
    return [head + part + tail for part in match.group(1).split(",")]


def _doc_files():
    # ROADMAP.md names modules/benchmarks just like the docs pages do,
    # and rotted roadmap pointers misdirect every future session.
    return sorted(REPO.glob("docs/*.md")) + [
        REPO / "README.md",
        REPO / "ROADMAP.md",
    ]


def test_required_docs_pages_exist():
    for page in REQUIRED_PAGES:
        assert (REPO / page).is_file(), f"missing documentation page {page}"


def test_docs_reference_only_existing_paths():
    missing = []
    for doc in _doc_files():
        for token in _PATH_RE.findall(doc.read_text()):
            for path in _expand_braces(token):
                # A reference may point at a file, a directory, or a
                # module prefix written without its .py suffix.
                candidate = REPO / path.rstrip("/")
                if candidate.exists():
                    continue
                if candidate.with_suffix(".py").exists():
                    continue
                missing.append(f"{doc.relative_to(REPO)}: {path}")
    assert not missing, "docs reference nonexistent paths:\n" + "\n".join(missing)


def test_docs_cover_the_pipeline_stages():
    """architecture.md is the top-to-bottom map: it must at least point
    at every stage package it claims to describe."""
    text = (REPO / "docs/architecture.md").read_text()
    for stage in (
        "src/repro/models",
        "src/repro/passes",
        "src/repro/vm",
        "src/repro/serve",
        "src/repro/store",
    ):
        assert stage in text, f"architecture.md does not mention {stage}"


@pytest.mark.parametrize(
    "page, config",
    [("docs/serving.md", "ServeConfig"), ("docs/fleet.md", "FleetConfig")],
)
def test_knob_tables_list_exactly_the_config_fields(page, config):
    """A page's `| knob | default | effect |` tables are the config's
    reference: a field without a row is undocumented, a row without a
    field documents a knob that no longer exists."""
    import dataclasses

    import repro.fleet
    import repro.serve

    cls = getattr(repro.serve, config, None) or getattr(repro.fleet, config)
    fields = {f.name for f in dataclasses.fields(cls)}
    rows, in_knob_table = [], False
    for line in (REPO / page).read_text().splitlines():
        if not line.startswith("|"):
            in_knob_table = False
        elif line.startswith("| knob |"):
            in_knob_table = True
        elif in_knob_table and not line.startswith("| ---"):
            rows.append(line.split("|")[1].strip().strip("`"))
    assert sorted(rows) == sorted(fields)
