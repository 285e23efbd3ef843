import pytest

from bdstirling.errors import MalformedBFile, MalformedTemplate, UnknownSequence
from bdstirling.oeis import (
    SEQUENCES,
    OeisReport,
    compare,
    fetch_bfile,
    load_fixture,
    parse_bfile,
    triangle_terms,
)
from bdstirling.partitions import stirling


class TestBfileParsing:
    def test_plain_lines(self):
        assert parse_bfile("0 1\n1 1\n2 4\n") == [(0, 1), (1, 1), (2, 4)]

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\n0 1\n  \n# trailing\n1 7\n"
        assert parse_bfile(text) == [(0, 1), (1, 7)]

    def test_malformed_line_rejected(self):
        with pytest.raises(MalformedBFile, match=r"^b-file line 2 is not 'index value': '1 2 3'$"):
            parse_bfile("0 1\n1 2 3\n")
        with pytest.raises(MalformedBFile, match=r"^b-file line 1 holds non-integers: 'zero one'$"):
            parse_bfile("zero one\n")
        # still a ValueError, so the CLI's exit code for it is unchanged
        assert issubclass(MalformedBFile, ValueError)

    def test_negative_values_allowed(self):
        assert parse_bfile("5 -3\n") == [(5, -3)]


class TestTriangleLinearization:
    @pytest.mark.parametrize("seq,kind", [("A039755", "B"), ("A039760", "D")])
    def test_flat_index_is_row_major(self, seq, kind):
        terms = triangle_terms(seq, rows=5)
        for n in range(5):
            for r in range(n + 1):
                assert terms[n * (n + 1) // 2 + r] == stirling(kind, n, r)


class TestFixtures:
    @pytest.mark.parametrize("seq", sorted(SEQUENCES))
    def test_packaged_fixture_matches_computation(self, seq):
        reference = load_fixture(seq)
        report = compare(seq, reference)
        assert report.ok
        assert report.checked == 28  # rows 0..6 linearized
        assert report.first_mismatch is None

    def test_explicit_path(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("0 1\n1 1\n2 1\n3 1\n4 4\n")
        reference = load_fixture("A039755", path=p)
        assert compare("A039755", reference).ok

    def test_unknown_sequence(self):
        with pytest.raises(
            UnknownSequence, match=r"^unknown sequence 'A000001'; known: A039755, A039760$"
        ):
            load_fixture("A000001")
        assert issubclass(UnknownSequence, ValueError)


class TestComparison:
    def test_mismatch_reports_first_bad_index(self):
        reference = [(0, 1), (1, 1), (2, 1), (3, 999)]
        report = compare("A039755", reference)
        assert not report.ok
        assert report.first_mismatch == (3, 1, 999)

    def test_no_overlap_is_not_ok(self):
        report = compare("A039755", [])
        assert report.checked == 0 and not report.ok

    def test_partial_overlap(self):
        report = compare("A039755", parse_bfile("0 1\n1 1\n2 1\n"), rows=7)
        assert report.ok and report.checked == 3

    def test_indices_beyond_generated_rows_are_ignored(self):
        reference = [(0, 1), (10**6, 12345)]
        report = compare("A039755", reference, rows=3)
        assert report.ok and report.checked == 1

    def test_report_dataclass(self):
        r = OeisReport("A039755", 5, None)
        assert r.ok
        assert not OeisReport("A039755", 5, (1, 2, 3)).ok


class TestFetch:
    def test_env_template_with_file_url(self, tmp_path, monkeypatch):
        p = tmp_path / "b039755.txt"
        p.write_text("0 1\n1 1\n2 1\n3 1\n4 4\n")
        monkeypatch.setenv(
            "BDSTIRLING_OEIS_URL", f"file://{tmp_path}/b{{num}}.txt"
        )
        reference = fetch_bfile("A039755")
        assert compare("A039755", reference).ok

    def test_fetch_failure_is_oserror(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "BDSTIRLING_OEIS_URL", f"file://{tmp_path}/missing_b{{num}}.txt"
        )
        with pytest.raises(OSError):
            fetch_bfile("A039755")

    def test_malformed_template(self, monkeypatch):
        monkeypatch.setenv("BDSTIRLING_OEIS_URL", "file:///tmp/{x}.txt")
        with pytest.raises(
            MalformedTemplate,
            match=r"^BDSTIRLING_OEIS_URL 'file:///tmp/\{x\}.txt' takes only \{seq\} and \{num\}: KeyError\('x'\)$",
        ):
            fetch_bfile("A039755")
        # still a TypeError, so the CLI's exit code for it is unchanged
        assert issubclass(MalformedTemplate, TypeError)
