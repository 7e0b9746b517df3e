"""The mutation catalogue: small breaks of `src/` that the suite must catch.

Each entry names a file under `src/simcol/`, a snippet that occurs exactly
once in it, the snippet's replacement, and the pytest selection (run from
the repository root) that must fail once the replacement is made.
`scripts/mutants.py` applies each entry to a copy of `src/` and runs its
selection against the copy; `tests/test_mutants.py` checks that every
snippet still occurs exactly once, so a change that rewrites a snippet's
code has to update or delete its entry.
"""

from typing import NamedTuple


class Mutant(NamedTuple):
    id: str
    file: str  # relative to src/simcol
    snippet: str
    replacement: str
    select: tuple[str, ...]  # pytest arguments


DYN = "tests/test_dynamics.py"
CLI = "tests/test_cli.py"
# step 1 of the matcher: the big component is offered to each branch
STEP1 = ("    anchor = pick_anchor([size[i] for i in y_ids], weights)\n"
         "    for j, yi in enumerate(y_ids):\n"
         "        take = _choose(anchor == j, least(rem[big_x], rem[yi]), 0)\n"
         "        if some(take > 0):\n"
         "            emit(big_x, yi, take)\n")

MUTANTS = (
    # the proposal loop: acceptance, the uniform's words, the draw's width
    Mutant("accept-ge-python", "dynamics.py",
           "if q < 0.0 or (q < 1.0 and uniform() > q):",
           "if q < 0.0 or (q < 1.0 and uniform() >= q):",
           (f"{DYN}::TestRunChainFallback::test_uniform_on_the_cut_accepts",)),
    Mutant("accept-ge-c", "_chain.c",
           "if (q < 0.0 || (q < 1.0 && uniform(mt, index) > q)) {",
           "if (q < 0.0 || (q < 1.0 && uniform(mt, index) >= q)) {",
           (f"{DYN}::TestRunChain::test_uniform_on_the_cut_accepts",)),
    Mutant("uniform-words-swapped-c", "_chain.c",
           "return (a * 67108864.0 + b)",
           "return (b * 67108864.0 + a)",
           (f"{DYN}::TestRunChain::test_seeded_trajectories_pinned",)),
    Mutant("draw-width-c", "_chain.c",
           "r = mt_word(mt, index) >> (32 - bits);",
           "r = mt_word(mt, index) >> (31 - bits);",
           (f"{DYN}::TestRunChain::test_seeded_trajectories_pinned",)),
    Mutant("draw-width-python", "dynamics.py",
           "mbits, kbits = m.bit_length(), k.bit_length()",
           "mbits, kbits = m.bit_length() + 1, k.bit_length()",
           (f"{DYN}::TestRunChainFallback::test_seeded_trajectories_pinned",)),
    Mutant("units-largest-denominator", "dynamics.py",
           "den = math.lcm(*(q.denominator for q in self.accept))",
           "den = max(q.denominator for q in self.accept)",
           (f"{DYN}::TestFlipParams",)),
    Mutant("glauber-takes-any-schedule", "dynamics.py",
           "if fp is not None and fp != cls.glauber():",
           "if False:",
           (f"{CLI}::TestSample::test_fp_with_glauber_is_usage_error",)),
    # the native loader
    Mutant("one-native-call", "_native.py",
           "n = min(steps, _CALL_STEPS)",
           "n = steps",
           (f"{DYN}::TestNativeLoop::test_bounded_calls_make_one_walk",)),
    Mutant("write-back-on-success-only", "_native.py",
           "    finally:\n        rng.setstate(",
           "    except BaseException:\n        raise\n    if True:\n        rng.setstate(",
           (f"{DYN}::TestNativeLoop::test_an_interrupt_between_calls_keeps_the_walk_so_far",)),
    Mutant("cache-others-can-write", "_native.py",
           "if st.st_uid != os.getuid() or st.st_mode & 0o022:",
           "if st.st_uid != os.getuid():",
           (f"{DYN}::TestNativeBuild",)),
    # the matcher, the coupling and the certificate
    Mutant("anchor-tie-prefers-lighter", "matching.py",
           "wins = (s > top) | ((s == top) & (w > heavy))",
           "wins = (s > top) | ((s == top) & (w < heavy))",
           ("tests/test_matching.py",)),
    Mutant("step1-mask-inverted", "matching.py",
           "take = _choose(anchor == j, least(rem[big_x], rem[yi]), 0)",
           "take = _choose(anchor != j, least(rem[big_x], rem[yi]), 0)",
           ("tests/test_matching.py",)),
    Mutant("clamped-read-before-offers", "matching.py",
           "    clamped = 0\n" + STEP1 + "    clamped = clamped + (rem[big_x] > 0)\n",
           "    clamped = 0 + (rem[big_x] > 0)\n" + STEP1,
           ("tests/test_matching.py", "tests/test_certify.py::TestClampPath")),
    Mutant("northwest-corner-pairs-nothing", "matching.py",
           "emit(i, j, take)",
           "pass",
           ("tests/test_matching.py",)),
    Mutant("split-is-xstar-only", "coupling.py",
           "split = {pair.xstar, pair.ystar}",
           "split = {pair.xstar}",
           ("tests/test_coupling.py::TestLocalDrift",)),
    Mutant("pair-sampler-admits-no-edges", "coupling.py",
           "if not G.m:",
           "if False:",
           (f"{CLI}::TestDrift::test_no_edges_is_usage_error",)),
    Mutant("premise-assert-removed", "coupling.py",
           "assert all(mv.colors & split for mv in (*used_x, *used_y)), \\",
           "assert True or all(mv.colors & split for mv in (*used_x, *used_y)), \\",
           ("tests/test_coupling.py::TestLocalDrift::"
            "test_consumed_move_off_the_split_colors_is_caught",)),
    Mutant("lemma-w2dc2-understated", "certify.py",
           "2: 8 * p3})",
           "2: 7 * p3})",
           ("tests/test_acceptance.py::test_criterion_03_rate_maxima_enumeration",)),
    Mutant("weight1-threshold-understated", "certify.py",
           '"weight1": 2 + 4 * max(',
           '"weight1": 2 + 3 * max(',
           ("tests/test_acceptance.py::test_criterion_01_threshold_identities",
            "tests/test_certify.py::TestThreshold::test_both_branch_thresholds_coincide")),
    Mutant("lemma-w1dc2-understated", "certify.py",
           "{1: Fraction(3, 4) + 2 * p3,",
           "{1: Fraction(3, 4) + p3,",
           ("tests/test_acceptance.py::test_criterion_03_rate_maxima_enumeration",)),
    Mutant("lemma-dc1-understated", "certify.py",
           "{1: p1 + p2 - 2 * p3}",
           "{1: p1 + p2 - 3 * p3}",
           ("tests/test_acceptance.py::test_criterion_03_rate_maxima_enumeration",)),
    # instance generation and the sparse kernel
    Mutant("shuffle-redraw-ge", "graphs.py",
           "while j > i:",
           "while j >= i:",
           ("tests/test_graphs.py",)),
    Mutant("e1-filter-skipped", "graphs.py",
           "if code in in_e1:\n            continue",
           "if False:\n            continue",
           ("tests/test_graphs.py",)),
    Mutant("duplicate-edge-accepted", "graphs.py",
           "if e in edges:",
           "if False:",
           ("tests/test_graphs.py::TestInstanceFormat",)),
    Mutant("coo-repeats-kept-once", "sparse.py",
           "data = np.add.reduceat(vals[order], starts) if len(starts) else vals[:0]",
           "data = vals[order][starts]",
           ("tests/test_sparse.py",)),
    Mutant("dot-sums-in-reverse", "sparse.py",
           "np.add.reduce(terms, axis=0, initial=0)",
           "np.add.reduce(terms[::-1], axis=0, initial=0)",
           ("tests/test_sparse.py",)),
    # the oracle's kernel, its symmetry check and its caps
    Mutant("place-values-unsigned", "oracle.py",
           "signed = powers[:, None] * np.where(digits == a, 1, -1)",
           "signed = powers[:, None]",
           ("tests/test_oracle.py::TestTransitionMatrix",)),
    Mutant("commutes-always", "oracle.py",
           "return bool((moved[at] == rows * size + cols).all() and (data[at] == data).all())",
           "return True",
           ("tests/test_oracle.py::TestColorOrbits",)),
    Mutant("symmetry-reads-the-mask-only", "oracle.py",
           "assert (proper[perm] == proper).all() and _commutes(Q, pos[perm[proper_states]]), \\",
           "assert (proper[perm] == proper).all(), \\",
           ("tests/test_oracle.py::TestColorOrbits::test_asymmetric_kernel_is_refused",)),
    Mutant("sweep-scale-one-power-ahead", "oracle.py",
           "scale = 1  # den**t",
           "scale = P.den  # den**t",
           ("tests/test_oracle.py::TestMixing::test_rational_sweep_compares_with_the_exact_eps",)),
    Mutant("sweep-price-drops-fixed-cost", "oracle.py",
           "(scale.bit_length() + RATIONAL_PRODUCT_BITS)",
           "scale.bit_length()",
           ("tests/test_oracle.py::TestMixing",)),
    Mutant("entry-cap-reads-states", "oracle.py",
           "if n * r > TMIX_ENTRY_CAP:",
           "if n > TMIX_ENTRY_CAP:",
           ("tests/test_oracle.py::TestMixing",)),
    Mutant("sweep-cap-ge", "oracle.py",
           "if cost > RATIONAL_SWEEP_CAP:",
           "if cost >= RATIONAL_SWEEP_CAP:",
           ("tests/test_oracle.py::TestMixing",)),
    # the package and the command line: imports, exit codes, refusals
    Mutant("package-loads-a-submodule", "__init__.py",
           '__version__ = "0.1.0"',
           'from . import dynamics  # noqa: F401\n__version__ = "0.1.0"',
           ("tests/test_api.py::test_import_simcol_loads_no_submodule",)),
    Mutant("cap-exits-as-bound", "cli.py",
           "return EXIT_CAP",
           "return EXIT_BOUND",
           (CLI,)),
    Mutant("oserror-narrowed", "cli.py",
           "except (ValueError, OSError) as exc:",
           "except (ValueError, FileNotFoundError) as exc:",
           (f"{CLI}::test_a_directory_given_as_a_file_is_usage_error",)),
    Mutant("drift-warning-disabled", "cli.py",
           "if summary.bound_margin is None:",
           "if False:",
           (f"{CLI}::TestDrift::test_warns_when_no_pair_is_judged",)),
    Mutant("start-file-k-unchecked", "cli.py",
           "if file_k != k:",
           "if False:",
           (f"{CLI}::TestSample::test_start_file_refusals",)),
)
