import pytest

from bioshares import corpus_paths, write_pgm_file

from helpers import filled


def make_tree(root, layout):
    for rel in layout:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if rel.endswith(".pgm"):
            write_pgm_file(filled(2, 2, 1), path)
        else:
            path.write_bytes(b"placeholder")


class TestCorpusPaths:
    def test_nested_pgm_tree(self, tmp_path):
        make_tree(tmp_path, ["s2/2.pgm", "s1/1.pgm", "s1/10.pgm", "s1/readme.txt"])
        rels = [p.relative_to(tmp_path).as_posix() for p in corpus_paths(tmp_path, "orl-pgm")]
        assert rels == ["s1/1.pgm", "s1/10.pgm", "s2/2.pgm"]

    def test_nested_bmp_tree(self, tmp_path):
        make_tree(tmp_path, ["a/x.bmp", "b/y.BMP", "a/z.pgm"])
        rels = [p.relative_to(tmp_path).as_posix() for p in corpus_paths(tmp_path, "iitd-bmp")]
        assert rels == ["a/x.bmp", "b/y.BMP"]

    def test_flat_ignores_subdirectories(self, tmp_path):
        make_tree(tmp_path, ["one.pgm", "two.bmp", "sub/three.pgm", "notes.txt"])
        rels = [p.name for p in corpus_paths(tmp_path, "flat")]
        assert rels == ["one.pgm", "two.bmp"]

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="dataset kind"):
            corpus_paths(tmp_path, "zip")

    def test_missing_root(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            corpus_paths(tmp_path / "absent", "flat")
