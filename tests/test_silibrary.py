"""Tests for the calibrated H.264 SI library (Table 1)."""

import pytest

from repro import sup
from repro.calibration import (
    AVG_ATOM_SLICES,
    AC_SLICES,
    RECONFIG_CYCLES_PER_ATOM,
)
from repro.h264.silibrary import (
    HOT_SPOT_ORDER,
    HOT_SPOT_SIS,
    SOFTWARE_LATENCIES,
    paper_si_label,
)

#: The exact Table 1 rows: SI -> (atom types, molecules).
TABLE1 = {
    "SAD": (1, 3),
    "SATD": (4, 20),
    "DCT": (3, 12),
    "HT2x2": (1, 2),
    "HT4x4": (2, 7),
    "MC": (3, 11),
    "IPredHDC": (2, 4),
    "IPredVDC": (1, 3),
    "LF_BS4": (2, 5),
}


class TestTable1:
    def test_all_nine_sis_present(self, h264_library):
        assert set(h264_library.si_names) == set(TABLE1)

    @pytest.mark.parametrize("si_name", sorted(TABLE1))
    def test_atom_type_count_matches_paper(self, h264_library, si_name):
        si = h264_library.get(si_name)
        assert si.num_atom_types == TABLE1[si_name][0]

    @pytest.mark.parametrize("si_name", sorted(TABLE1))
    def test_molecule_count_matches_paper(self, h264_library, si_name):
        si = h264_library.get(si_name)
        assert si.num_molecules == TABLE1[si_name][1]

    def test_paper_labels(self):
        assert paper_si_label("DCT") == "(I)DCT"
        assert paper_si_label("MC") == "MC 4"
        assert paper_si_label("SAD") == "SAD"


class TestHotSpots:
    def test_hot_spot_order(self):
        assert HOT_SPOT_ORDER == ("ME", "EE", "LF")

    def test_hot_spots_partition_the_sis(self):
        assigned = [si for sis in HOT_SPOT_SIS.values() for si in sis]
        assert sorted(assigned) == sorted(TABLE1)

    def test_hot_spots_are_atom_disjoint(self, h264_library):
        """ME, EE and LF use disjoint atom sets, so every hot-spot entry
        reconfigures — the churn regime of the paper's Figure 8."""
        atom_sets = {}
        for hot_spot, sis in HOT_SPOT_SIS.items():
            atoms = set()
            for si_name in sis:
                atoms.update(h264_library.get(si_name).atom_types)
            atom_sets[hot_spot] = atoms
        assert not atom_sets["ME"] & atom_sets["EE"]
        assert not atom_sets["EE"] & atom_sets["LF"]
        assert not atom_sets["ME"] & atom_sets["LF"]

    def test_ee_shares_atoms_internally(self, h264_library):
        """Within EE, sharing makes scheduling non-trivial (CLIP3 serves
        MC and IPredHDC; DCHAD both Hadamard SIs)."""
        mc = set(h264_library.get("MC").atom_types)
        hdc = set(h264_library.get("IPredHDC").atom_types)
        ht2 = set(h264_library.get("HT2x2").atom_types)
        ht4 = set(h264_library.get("HT4x4").atom_types)
        assert mc & hdc
        assert ht2 & ht4


class TestLatencyLadders:
    @pytest.mark.parametrize("si_name", sorted(TABLE1))
    def test_every_molecule_faster_than_software(
        self, h264_library, si_name
    ):
        si = h264_library.get(si_name)
        for impl in si.molecules:
            assert impl.latency < SOFTWARE_LATENCIES[si_name]

    @pytest.mark.parametrize("si_name", sorted(TABLE1))
    def test_biggest_molecule_is_fastest(self, h264_library, si_name):
        si = h264_library.get(si_name)
        biggest = max(si.molecules, key=lambda m: m.determinant)
        assert si.fastest.latency == biggest.latency

    def test_first_rung_speedup_band(self, h264_library):
        """Smallest molecule gains roughly 3-15x over software."""
        for si in h264_library:
            smallest = min(
                si.molecules, key=lambda m: (m.determinant, m.latency)
            )
            ratio = si.software_latency / smallest.latency
            assert 2.0 < ratio < 20.0, si.name

    def test_top_rung_speedup_band(self, h264_library):
        """Largest molecule gains roughly 10-60x over software."""
        for si in h264_library:
            ratio = si.software_latency / si.fastest.latency
            assert 9.0 < ratio < 90.0, si.name

    def test_library_contains_nonpareto_molecules(self, h264_library):
        """At least one SI has an m4-style molecule: larger determinant
        but slower than some other molecule (the eq.-4 cleaning case)."""
        found = False
        for si in h264_library:
            for a in si.molecules:
                for b in si.molecules:
                    if (
                        a.determinant > b.determinant
                        and a.latency > b.latency
                        and not b.atoms <= a.atoms
                    ):
                        found = True
        assert found


class TestPhysicalCalibration:
    def test_average_atom_slices(self, h264_registry):
        slices = [t.slices for t in h264_registry]
        assert sum(slices) / len(slices) == pytest.approx(
            AVG_ATOM_SLICES
        )

    def test_every_atom_fits_one_ac(self, h264_registry):
        assert all(t.slices <= AC_SLICES for t in h264_registry)

    def test_average_reconfig_time_near_paper(self, h264_registry):
        avg = h264_registry.average_reconfig_cycles()
        assert abs(avg - RECONFIG_CYCLES_PER_ATOM) < (
            0.02 * RECONFIG_CYCLES_PER_ATOM
        )

    def test_supremum_of_everything_exceeds_max_acs(self, h264_library):
        """The total atom demand exceeds 24 ACs, so the fabric keeps
        rotating (the R in RISPP)."""
        everything = sup(
            [impl.atoms for si in h264_library for impl in si.molecules],
            h264_library.space,
        )
        assert everything.determinant > 24


class TestBuiltOncePerProcess:
    def test_repeated_calls_share_objects(self):
        from repro.h264.silibrary import build_atom_registry, build_si_library

        registry = build_atom_registry()
        assert build_atom_registry() is registry
        library = build_si_library()
        assert build_si_library() is library
        assert build_si_library(registry) is library
        assert library.space is registry.space

    def test_other_registries_get_their_own_library(self):
        from repro.fabric.atom import AtomRegistry
        from repro.h264.silibrary import build_atom_registry, build_si_library

        shared = build_atom_registry()
        fresh = AtomRegistry(iter(shared))
        library = build_si_library(fresh)
        assert library is not build_si_library()
        assert library.space is fresh.space
        assert library.si_names == build_si_library().si_names

    def test_execute_cell_results_unchanged(self):
        from repro.core.schedulers import get_scheduler
        from repro.exec.runner import execute_cell
        from repro.exec.spec import SweepCell, WorkloadSpec
        from repro.fabric.atom import AtomRegistry
        from repro.h264.silibrary import build_atom_registry, build_si_library
        from repro.sim.rispp import RisppSimulator

        cell = SweepCell(
            system="RISPP", scheduler="HEF", num_acs=6,
            workload=WorkloadSpec(frames=1),
        )
        first = execute_cell(cell)
        assert execute_cell(cell) == first
        # The same simulation on privately built objects.
        shared = build_atom_registry()
        registry = AtomRegistry(iter(shared))
        library = build_si_library(registry)
        private = RisppSimulator(
            library, registry, get_scheduler("HEF"), 6
        ).run(cell.workload.build())
        assert private == first
