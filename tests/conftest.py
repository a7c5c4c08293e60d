"""Every report that the CLI and acceptance tests build is also written
with the standard library, the oracle of ``report.report_json``."""

import json

import pytest

import npicheck.cli
import npicheck.report

ORACLE_MODULES = {"test_cli", "test_acceptance"}


def oracle_json(doc) -> str:
    """The bytes ``report_json`` must give."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.fixture(autouse=True)
def reports_match_the_oracle(request, monkeypatch):
    """Wrap ``full_report`` wherever these modules reach it, and check the
    writer on each document when it is built (a test may change it later)."""
    if request.module.__name__ not in ORACLE_MODULES:
        yield
        return
    original = npicheck.report.full_report
    mismatched = []

    def checked(*args, **kwargs):
        doc = original(*args, **kwargs)
        if npicheck.report.report_json(doc) != oracle_json(doc):
            mismatched.append(doc["input"]["text"])
        return doc

    for owner in (npicheck.report, npicheck.cli, request.module):
        if getattr(owner, "full_report", None) is original:
            monkeypatch.setattr(owner, "full_report", checked)
    yield
    assert not mismatched, f"report_json differs from json.dumps on {mismatched}"
