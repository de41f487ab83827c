"""Mutation audit: every listed mutant must fail the tests named as its killers.

A mutant is one textual edit of a file in src/: a reversed profile index,
a swapped constant, a dropped guard.  The audit copies src/, tests/ and
pyproject.toml to a temporary directory, runs every killer there once
unmutated (they must pass), then applies one mutant at a time to a fresh
copy and runs pytest on that mutant's killers only.  A mutant is killed
when pytest reports a failing test and survives when they all pass.  The
repository itself is never edited.  Each mutant costs one pytest run, so
the audit is kept out of the Tier-1 suite:

    python scripts/mutation_audit.py                  # every mutant
    python scripts/mutation_audit.py wills-reversed master-phi-reversed

Exit status: 0 when every mutant is killed; 1 when one survives, when the
unmutated killers fail, or when pytest cannot run them; 2 for an unknown
mutant name.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str           # relative to the repository root
    search: str         # occurs exactly once in path
    replace: str
    killers: tuple      # pytest node ids, relative to the repository root


_STEINER = "src/conevol/steiner.py"
_NOT_PALINDROMIC = "tests/test_steiner.py::test_expansion_cdfs_on_profiles_that_are_not_palindromic"
_SPECIAL = "src/conevol/special.py"
_LINALG = "src/conevol/linalg.py"
_CLI = "src/conevol/cli.py"
_PIVOTING = "tests/test_linalg.py::test_block_pivoting_matches_brute_force"
_TRIDIAGONAL = "tests/test_sampling.py::test_tridiagonal_psd_matches_full_rows"
_SAMPLING = "src/conevol/sampling.py"
_UNIT_REFERENCE = "tests/test_sampling.py::test_map_chunks_matches_whole_chunk_reference"
_ROWS_BY_CHUNK = "tests/test_sampling.py::test_rows_do_not_depend_on_chunk_size"
_LAGUERRE = ("tests/test_special.py::test_gauss_laguerre_gamma_moments",
             "tests/test_special.py::test_gauss_laguerre_is_exact_to_degree_2n_minus_1",
             "tests/test_special.py::test_gauss_laguerre_400_nodes_matches_mpmath",
             "tests/test_steiner.py::test_master_phi_orthant8_moments_to_rounding")

MUTANTS = (
    Mutant("gaussian-steiner-unreversed", _STEINER,
           "chi_square_cdf_family(profile.d, lam)[::-1], profile.v",
           "chi_square_cdf_family(profile.d, lam), profile.v",
           (_NOT_PALINDROMIC,
            "tests/test_steiner.py::test_gaussian_steiner_cdf_subspace_closed_form")),
    Mutant("spherical-steiner-reversed", _STEINER,
           "beta_cdf_family(profile.d, lam), profile.v",
           "beta_cdf_family(profile.d, lam)[::-1], profile.v",
           (_NOT_PALINDROMIC,
            "tests/test_steiner.py::test_expansion_cdfs_match_scalar_mixture_sums")),
    Mutant("master-phi-reversed", _STEINER,
           "total += profile.v[k] * value",
           "total += profile.v[d - k] * value",
           ("tests/test_steiner.py::test_master_phi_on_profiles_that_are_not_palindromic",)),
    Mutant("chi-bar-squared-reversed", _STEINER,
           "chi_square_cdf_family(self.profile.d, lam), self.profile.v",
           "chi_square_cdf_family(self.profile.d, lam)[::-1], self.profile.v",
           (_NOT_PALINDROMIC,
            "tests/test_steiner.py::test_chi_bar_squared_cdf_is_polar_expansion")),
    Mutant("wills-reversed", _STEINER,
           "np.dot(powers, profile.v)",
           "np.dot(powers, profile.v[::-1])",
           ("tests/test_steiner.py::test_wills_functional_on_profiles_that_are_not_palindromic",)),
    Mutant("circular-polar-test-cos", "src/conevol/cones.py",
           "np.where(x1 <= -nrm * sa, 0.0",
           "np.where(x1 <= -nrm * ca, 0.0",
           ("tests/test_cones.py::test_norms_block_matches_rowwise_projection",)),
    Mutant("circular-chi-square-dof-d", "src/conevol/cones.py",
           "out.fill(cone.d - 1)",
           "out.fill(cone.d)",
           ("tests/test_profiles.py::test_estimates_match_exact_circular_profiles",)),
    Mutant("orthant-chi-square-dofs-swapped", "src/conevol/cones.py",
           "out[:, 0], out[:, 1] = k, cone.d - k",
           "out[:, 0], out[:, 1] = cone.d - k, k",
           ("tests/test_sampling.py::test_orthant_norms_given_face_dimension",)),
    Mutant("subspace-chi-square-dofs-swapped", "src/conevol/cones.py",
           "out[:, 0], out[:, 1] = k, ambient_dim(cone) - k",
           "out[:, 0], out[:, 1] = ambient_dim(cone) - k, k",
           ("tests/test_sampling.py::test_moments_match_exact_profiles_over_seeds",)),
    Mutant("psd-tridiagonal-missing-half", "src/conevol/cones.py",
           "np.sqrt(z[rows] / 2)",
           "np.sqrt(z[rows])",
           (_TRIDIAGONAL,)),
    Mutant("psd-tridiagonal-dofs-off-by-one", "src/conevol/cones.py",
           "np.arange(cone.n - 1, 0, -1)",
           "np.arange(cone.n, 1, -1)",
           (_TRIDIAGONAL,)),
    Mutant("psd-norms-residual-halved", "src/conevol/cones.py",
           "neg = vals - pos",
           "neg = 0.5 * (vals - pos)",
           (_TRIDIAGONAL,)),
    Mutant("chi-square-stream-key-collides", _SAMPLING,
           "(1 << 64), spawn_key=(unit, 0))",
           "(1 << 64), spawn_key=(unit, 1))",
           ("tests/test_sampling.py::test_chi_square_streams_are_no_gaussian_streams",)),
    Mutant("unit-key-from-chunk-index", _SAMPLING,
           "unit_rng(config.seed, unit) if width",
           "unit_rng(config.seed, unit * UNIT_ROWS // config.chunk_size) if width",
           (_UNIT_REFERENCE, _ROWS_BY_CHUNK)),
    Mutant("unit-drops-first-block", _SAMPLING,
           "for r0 in range(0, count, step)])",
           "for r0 in range(0, count, step)][count > step:])",
           (_UNIT_REFERENCE,)),
    Mutant("chunk-index-restarts-per-unit", _SAMPLING,
           "first = unit * UNIT_ROWS // size",
           "first = 0 * unit",
           (_UNIT_REFERENCE,)),
    Mutant("face-path-drops-subspace-dimension", _SAMPLING,
           "sum(chi_square_dofs(cone, X, fill=False)[1],",
           "sum((f for f in chi_square_dofs(cone, X, fill=False)[1] if np.ndim(f)),",
           ("tests/test_sampling.py::test_face_estimate_equals_the_estimate_from_a_summary",)),
    # keeps every bit but projects: only the test that forbids projection sees it
    Mutant("face-route-projects", _SAMPLING,
           "direct = faces_only and faces_from_dofs(cone)",
           "direct = False",
           ("tests/test_sampling.py::test_face_estimate_draws_no_chi_square_and_projects_nothing",)),
    Mutant("pivoting-dual-test-flipped", _LINALG,
           "y < -tol[:, None]",
           "y > tol[:, None]",
           (_PIVOTING,)),
    Mutant("pivoting-inactive-rhs-kept", _LINALG,
           "rhs = np.where(passive, c, 0.0)[..., None]",
           "rhs = c[..., None]",
           (_PIVOTING,)),
    Mutant("intrinsic-variance-scale-inverted", "src/conevol/profiles.py",
           "(d + 2) / d",
           "d / (d + 2)",
           ("tests/test_profiles.py::test_intrinsic_variance_orthant",
            "tests/test_profiles.py::test_moment_estimators_match_psd3_closed_form",
            "tests/test_profiles.py::test_moment_estimators_on_a_product_that_is_not_palindromic")),
    Mutant("biorthogonal-stderr-floor-dropped", "src/conevol/profiles.py",
           "np.maximum(stderr, floor)",
           "stderr",
           ("tests/test_profiles.py::test_biorthogonal_stderr_covers_evaluation_round_off",)),
    Mutant("legendre-recurrence-factor-shifted", "src/conevol/profiles.py",
           "nxt *= 2 * j + 1",
           "nxt *= 2 * j - 1",
           ("tests/test_profiles.py::test_biorthogonal_estimator_matches_the_legvander_reference",)),
    Mutant("binomial-tail-starts-past-k", _SPECIAL,
           "np.arange(k, n + 1)",
           "np.arange(k + 1, n + 1)",
           ("tests/test_special.py::test_binomial_tail_matches_exact_sums",)),
    Mutant("laguerre-ratio-unsquared", _SPECIAL,
           "t = t / (r * r) + 1.0",
           "t = t / r + 1.0",
           _LAGUERRE),
    Mutant("laguerre-bidiagonal-diagonal-shifted", _SPECIAL,
           "np.diag(np.sqrt(i + alpha + 1.0))",
           "np.diag(np.sqrt(i + alpha))",
           _LAGUERRE),
    Mutant("check-rule-loosened", _CLI,
           "4.0 * se + 0.01",
           "4.0 * se + 1.0",
           ("tests/test_cli.py::test_checks_exit_4_on_a_wrong_profile",)),
    Mutant("estimate-route-polyhedral-to-mixture", _CLI,
           "estimate_profile_face if supports_face_dim(cone)",
           "estimate_profile_mixture if supports_face_dim(cone)",
           ("tests/test_cli.py::test_check_artifacts_are_pinned",)),
)


def _apply(mutant, root):
    """Apply mutant to the tree at root; its search text must occur once."""
    path = Path(root) / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.search)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.search!r} occurs {count} times "
                         f"in {mutant.path}, not once")
    path.write_text(text.replace(mutant.search, mutant.replace), encoding="utf-8")


def _pytest(killers, mutant=None):
    """pytest's exit code for killers in a fresh copy, mutated if asked."""
    with tempfile.TemporaryDirectory(prefix="conevol-mutant-") as tmp:
        root = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, root / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", root)
        if mutant is not None:
            _apply(mutant, root)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *killers],
            cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    mutants = [by_name[n] for n in args.names] or list(MUTANTS)
    killers = sorted({k for m in mutants for k in m.killers})
    code = _pytest(killers)
    if code != 0:
        print(f"unmutated killers do not pass (pytest exit {code})")
        return 1
    bad = 0
    for m in mutants:
        code = _pytest(m.killers, m)
        verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exit {code}")
        print(f"{m.name:36} {verdict}")
        bad += code != 1
    print(f"{len(mutants) - bad}/{len(mutants)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
