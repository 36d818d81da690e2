"""Docs-vs-code sync checks for the engineering handbook.

The configuration reference (``docs/configuration.md``) promises to list
every ``EngineConfig`` field.  This test introspects the dataclass tree —
top-level fields plus every section field as a ``section.field`` token —
and fails when the docs and the code disagree in either direction, so the
reference cannot silently rot when a field is added, renamed or removed.
"""

from __future__ import annotations

import re
from pathlib import Path

from dataclasses import fields

from repro.core.config import EngineConfig, _SECTIONS

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = REPO_ROOT / "docs"
CONFIGURATION_MD = DOCS / "configuration.md"


def documented_tokens() -> set[str]:
    """Backticked tokens in the reference tables (`` `mode` ``, `` `cache.size` ``)."""
    text = CONFIGURATION_MD.read_text(encoding="utf-8")
    return set(re.findall(r"`([a-z_]+(?:\.[a-z_]+)?)`", text))


def code_tokens() -> set[str]:
    tokens = set()
    for field in fields(EngineConfig):
        if field.name in _SECTIONS:
            tokens.add(field.name)
            tokens.update(
                f"{field.name}.{section_field.name}"
                for section_field in fields(_SECTIONS[field.name])
            )
        else:
            tokens.add(field.name)
    return tokens


class TestConfigurationReference:
    def test_docs_exist(self):
        assert CONFIGURATION_MD.is_file(), "docs/configuration.md is missing"

    def test_every_config_field_is_documented(self):
        missing = code_tokens() - documented_tokens()
        assert not missing, (
            f"EngineConfig fields missing from docs/configuration.md: "
            f"{sorted(missing)} — add a table row with the backticked token"
        )

    def test_no_phantom_fields_documented(self):
        """Dotted tokens in the docs must exist in the dataclass tree (plain
        words appear in prose freely; only section.field tokens are load-
        bearing enough to verify)."""
        dotted = {token for token in documented_tokens() if "." in token}
        phantom = dotted - code_tokens()
        assert not phantom, (
            f"docs/configuration.md documents nonexistent config fields: "
            f"{sorted(phantom)} — the field was renamed or removed"
        )

    def test_accepted_choices_documented(self):
        """The validated choice tuples must appear verbatim in the docs."""
        from repro.core import config as config_module

        text = CONFIGURATION_MD.read_text(encoding="utf-8")
        for tuple_name in ("MODES", "_POLICIES", "_SHARD_BACKENDS"):
            for choice in getattr(config_module, tuple_name):
                assert f'"{choice}"' in text, (
                    f"accepted value {choice!r} ({tuple_name}) is not mentioned "
                    f"in docs/configuration.md"
                )


class TestPublicSurface:
    """The Public API section of the configuration reference mirrors
    ``repro.__all__`` exactly, in both directions."""

    def listed_names(self) -> set[str]:
        text = CONFIGURATION_MD.read_text(encoding="utf-8")
        match = re.search(r"## Public API\n(.*?)(?=\n## )", text, re.DOTALL)
        assert match, "docs/configuration.md has no '## Public API' section"
        return set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", match.group(1)))

    def test_every_export_is_documented(self):
        import repro

        missing = set(repro.__all__) - self.listed_names()
        assert not missing, (
            f"repro.__all__ names missing from the Public API section of "
            f"docs/configuration.md: {sorted(missing)}"
        )

    def test_no_phantom_exports_documented(self):
        import repro

        # the prose legitimately mentions the package and the list itself
        known = set(repro.__all__) | {"repro", "__all__"}
        phantom = self.listed_names() - known
        assert not phantom, (
            f"docs/configuration.md lists names that repro does not export: "
            f"{sorted(phantom)}"
        )


class TestErrorCodeTable:
    def test_every_emitted_code_is_in_the_service_error_table(self):
        """Every ``code="..."`` literal the service and persistence layers
        raise with has a row in docs/service.md's error table."""
        text = (DOCS / "service.md").read_text(encoding="utf-8")
        table = re.search(r"### Error codes\n(.*?)(?=\n### )", text, re.DOTALL).group(1)
        documented = set(re.findall(r"^\| `([a-z_]+)` \|", table, re.MULTILINE))
        emitted = set()
        for package in ("service", "persist"):
            for source in (REPO_ROOT / "src" / "repro" / package).glob("*.py"):
                emitted.update(
                    re.findall(r'code="([a-z_]+)"', source.read_text(encoding="utf-8"))
                )
        assert emitted, "no code= literals found: the scan is broken"
        missing = emitted - documented
        assert not missing, (
            f"error codes raised but missing from docs/service.md: {sorted(missing)}"
        )


class TestPackageVersion:
    def test_pyproject_takes_its_version_from_the_package(self):
        """One version, stated once: ``repro.__version__``."""
        import repro

        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert 'dynamic = ["version"]' in pyproject
        assert 'version = {attr = "repro.__version__"}' in pyproject
        assert not re.search(r'^version\s*=\s*"', pyproject, re.MULTILINE)
        assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)

    def test_the_current_major_has_upgrade_notes(self):
        """A major version bump ships its "Upgrading to N.0" section."""
        import repro

        major = repro.__version__.split(".")[0]
        text = CONFIGURATION_MD.read_text(encoding="utf-8")
        assert f"\n## Upgrading to {major}.0\n" in text


class TestNamedDocuments:
    def test_every_markdown_file_the_code_names_exists(self):
        """A ``*.md`` named in ``src/``, ``examples/`` or ``benchmarks/``
        (``docs/performance.md``, ``README.md``) is a path from the
        repository root to a file that exists."""
        missing = []
        for folder in ("src", "examples", "benchmarks"):
            for source in sorted((REPO_ROOT / folder).rglob("*")):
                if source.suffix not in (".py", ".c"):
                    continue
                text = source.read_text(encoding="utf-8")
                for name in sorted(set(re.findall(r"[\w./-]*\w\.md\b", text))):
                    if not (REPO_ROOT / name).is_file():
                        missing.append(f"{source.relative_to(REPO_ROOT)} names {name}")
        assert not missing, f"dangling document references: {missing}"


class TestHandbookStructure:
    PAGES = (
        "architecture.md",
        "performance.md",
        "configuration.md",
        "operations.md",
        "service.md",
    )

    def test_all_pages_exist(self):
        for page in self.PAGES:
            assert (DOCS / page).is_file(), f"docs/{page} is missing"

    def test_readme_links_every_page(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for page in self.PAGES:
            assert f"docs/{page}" in readme, f"README does not link docs/{page}"

    def test_internal_links_resolve(self):
        """Every relative markdown link in docs/ and README points at a file
        that exists (anchors are stripped; external URLs are ignored)."""
        sources = [REPO_ROOT / "README.md", *sorted(DOCS.glob("*.md"))]
        broken = []
        for source in sources:
            text = source.read_text(encoding="utf-8")
            for target in re.findall(r"\[[^\]]*\]\(([^)\s]+)\)", text):
                if target.startswith(("http://", "https://", "#", "mailto:")):
                    continue
                path = (source.parent / target.split("#", 1)[0]).resolve()
                if not path.exists():
                    broken.append(f"{source.relative_to(REPO_ROOT)} -> {target}")
        assert not broken, f"broken relative links: {broken}"
