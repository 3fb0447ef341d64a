"""Tests for the deterministic SVG emitter."""

import xml.etree.ElementTree as ET

import pytest

from logfirm.svg import RankUnsupported, emit_point_grid


def parse(doc: str):
    return ET.fromstring(doc)


class TestPointGrid:
    def test_valid_xml_and_counts(self):
        members = {(a, b) for a in range(4) for b in range(4)
                   if (a + b) % 2 == 0}
        doc = emit_point_grid(3, members)
        root = parse(doc)
        circles = [e for e in root.iter() if e.tag.endswith("circle")]
        filled = [c for c in circles if c.get("fill") == "black"]
        hollow = [c for c in circles if c.get("fill") == "white"]
        assert len(filled) == 8
        assert len(hollow) == 8

    def test_deterministic(self):
        members = {(0, 0), (2, 1)}
        assert emit_point_grid(4, members) == emit_point_grid(4, members)

    def test_header_documents_convention(self):
        doc = emit_point_grid(1, {(0, 0)})
        assert "filled circles: members" in doc

    def test_rank_checked(self):
        with pytest.raises(RankUnsupported):
            emit_point_grid(2, {(1, 2, 3)})
