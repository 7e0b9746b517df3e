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
    Mutant("split-is-xstar-only", "coupling.py",
           "split = {pair.xstar, pair.ystar}",
           "split = {pair.xstar}",
           ("tests/test_coupling.py::TestLocalDrift",)),
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
           ("tests/test_certify.py::TestThreshold::test_both_branch_thresholds_coincide",)),
    # instance generation and the sparse kernel
    Mutant("shuffle-redraw-ge", "graphs.py",
           "while j > i:",
           "while j >= i:",
           ("tests/test_graphs.py",)),
    Mutant("e1-filter-skipped", "graphs.py",
           "if code in in_e1:\n            continue",
           "if False:\n            continue",
           ("tests/test_graphs.py",)),
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
)
