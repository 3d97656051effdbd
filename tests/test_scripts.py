"""The every-map script, run in process."""

import importlib.util
import pathlib

from bgg import verma

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "complex_maps.py"


def _script():
    spec = importlib.util.spec_from_file_location("complex_maps", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_map_has_a_line_of_maximal_vectors(capsys):
    """n = 3 and 4: 12 and 30 maps, k = 0 included, every one of
    dimension 1, by map order; the times and peak RSS go to stderr
    only."""
    assert _script().main(["--n", "3", "4"]) == 0
    out, err = capsys.readouterr()
    assert out == (
        "n = 3: 12 maps\n"
        "  order 1: 6 maps, dim 1: 6\n"
        "  order 2: 2 maps, dim 1: 2\n"
        "  order 3: 4 maps, dim 1: 4\n"
        "n = 4: 30 maps\n"
        "  order 1: 20 maps, dim 1: 20\n"
        "  order 2: 6 maps, dim 1: 6\n"
        "  order 3: 4 maps, dim 1: 4\n"
    )
    assert err.count(" s, peak RSS ") == 2 and err.count(" MB\n") == 2


def test_a_dimension_other_than_one_exits_2(monkeypatch, capsys):
    """With every kernel read as 2 the script reports it and exits 2."""
    monkeypatch.setattr(verma.GeneralizedVerma, "maximal_vector_dimension", lambda self, mu: 2)
    assert _script().main(["--n", "3"]) == 2
    assert "order 1: 6 maps, dim 2: 6" in capsys.readouterr().out


def test_a_rank_below_3_is_refused(capsys):
    assert _script().main(["--n", "4", "2"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: the complexes need n >= 3\n"
