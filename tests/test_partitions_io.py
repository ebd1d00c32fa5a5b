import pytest

from plspines import io as pio
from plspines.core import from_facets
from plspines.partitions import discrete, one_vs_rest, vertex_partition
from helpers import run_cli


class TestPartitions:
    def test_validation(self, sphere2):
        with pytest.raises(ValueError):
            vertex_partition(sphere2, [["v0"], ["v0", "v1"], ["v2", "v3"]])
        with pytest.raises(ValueError):
            vertex_partition(sphere2, [["v0", "v1"]])
        with pytest.raises(ValueError):
            vertex_partition(sphere2, [list(sphere2.vertices), []])

    def test_vertex_listed_twice_in_a_class(self, sphere2, tmp_path):
        # a repeat would vanish in the class's set and certify as given
        with pytest.raises(ValueError, match=r"listed twice in one class: \['v0'\]"):
            vertex_partition(sphere2, [["v0", "v0", "v1"], ["v2", "v3"]])
        with pytest.raises(ValueError, match="listed twice"):
            pio.parse_partition("v0 v1\nv2 v3 v2\n", sphere2)
        path = tmp_path / "p.txt"
        path.write_text("a a\nb c d\n")
        for spec in ("a,a|b,c,d", str(path)):
            code, out, err = run_cli(["verify-spine", "--name", "S2_tetra", "--partition", spec])
            assert (code, out) == (1, "")
            assert err == "error: vertices listed twice in one class: ['a']\n"

    def test_canonical_order(self, sphere2):
        p = vertex_partition(sphere2, [["v2", "v3"], ["v1", "v0"]])
        assert p.canonical_key() == (("v0", "v1"), ("v2", "v3"))

    def test_classes_meeting(self, sphere2):
        p = one_vs_rest(sphere2)
        assert p.classes_meeting(("v0", "v1")) == 2
        assert p.classes_meeting(("v1", "v2")) == 1

    def test_equality(self, sphere2):
        a = vertex_partition(sphere2, [["v0", "v1"], ["v2", "v3"]])
        b = vertex_partition(sphere2, [["v3", "v2"], ["v0", "v1"]])
        assert a == b
        assert hash(a) == hash(b)


class TestIO:
    def test_roundtrip_complex(self, torus7):
        text = pio.format_complex(torus7)
        assert pio.parse_complex(text) == torus7

    def test_roundtrip_combined(self, sphere2):
        p = discrete(sphere2)
        text = pio.format_combined(sphere2, p, comments=["hello"])
        cx, part = pio.parse_combined(text)
        assert cx == sphere2
        assert part == p

    def test_comments_and_blanks_ignored(self):
        text = "# note\n\ndim 1\na b # inline\n\nb c\na c\n"
        cx = pio.parse_complex(text)
        assert cx.f_vector() == (3, 3)

    def test_header_mismatch(self):
        with pytest.raises(ValueError, match="dim"):
            pio.parse_complex("dim 2\na b\n")

    def test_bad_header(self):
        with pytest.raises(ValueError):
            pio.parse_complex("a b\n")

    def test_partition_roundtrip(self, sphere2):
        p = vertex_partition(sphere2, [["v0", "v1"], ["v2", "v3"]])
        assert pio.parse_partition(pio.format_partition(p), sphere2) == p

    def test_derived_output_reparses(self, sphere2):
        # subdivided complexes round-trip through the text format
        from plspines.core import derived

        d = derived(sphere2).complex
        assert pio.parse_complex(pio.format_complex(d)) == d

    def test_colliding_labels_rejected_by_derived(self):
        from plspines.core import derived

        cx = from_facets([["a,b"], ["a", "b"]])
        with pytest.raises(ValueError, match="collide"):
            derived(cx)
