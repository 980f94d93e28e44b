"""Tests for the ELPA baseline (strong-scaling model)."""

import pytest

from repro.baselines import ElpaModel, ElpaVariant


class TestElpaModel:
    def setup_method(self):
        self.m1 = ElpaModel(ElpaVariant.ELPA1)
        self.m2 = ElpaModel(ElpaVariant.ELPA2)
        self.N, self.nev = 115_459, 1200  # the Fig. 3b problem

    def _speedup(self, model, nodes_from, nodes_to):
        """Modeled strong-scaling speedup between two node counts."""
        return (model.time_to_solution(self.N, self.nev, nodes_from)
                / model.time_to_solution(self.N, self.nev, nodes_to))

    def test_time_decreases_with_nodes(self):
        t = [self.m2.time_to_solution(self.N, self.nev, n) for n in (4, 16, 64, 144)]
        assert t == sorted(t, reverse=True)

    def test_paper_speedups(self):
        """Fig. 3b: ELPA1-GPU 6.7x, ELPA2-GPU 5.9x speedup from 4 to 144
        nodes (accept 25% bands — it is a shape model)."""
        s1 = self._speedup(self.m1, 4, 144)
        s2 = self._speedup(self.m2, 4, 144)
        assert 5.0 < s1 < 8.5
        assert 4.4 < s2 < 7.4

    def test_paper_absolute_time_144_nodes(self):
        """ELPA2-GPU computes the 1200 pairs of the 115k problem in ~98 s
        on 144 nodes."""
        t = self.m2.time_to_solution(self.N, self.nev, 144)
        assert 65 < t < 135

    def test_scaling_saturates(self):
        """Strong scaling flattens: going 144 -> 576 nodes gains far less
        than the 4x node increase."""
        s = self._speedup(self.m2, 144, 576)
        assert s < 2.5

    def test_elpa2_beats_elpa1_at_scale(self):
        t1 = self.m1.time_to_solution(self.N, self.nev, 144)
        t2 = self.m2.time_to_solution(self.N, self.nev, 144)
        assert t2 < t1 * 1.5  # comparable; ELPA2's two-stage wins on bulk

    def test_bulk_flops_variant_difference(self):
        # ELPA2 back-transforms twice
        f1 = self.m1.bulk_flops(1000, 100)
        f2 = self.m2.bulk_flops(1000, 100)
        assert f2 > f1

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            self.m2.time_to_solution(1000, 10, 0)
