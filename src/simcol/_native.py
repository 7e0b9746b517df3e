"""The native body of `dynamics.run_chain`, `coupling.sample_adjacent_pairs`
and `graphs.random_graph_pair`, built on first use.

`_chain.c` is compiled by the system C compiler (``cc -O2 -shared
-fPIC``) into a per-user cache, ``$XDG_CACHE_HOME/simcol`` or
``~/.cache/simcol``, with ``simcol-<uid>`` in the temp dir as the
fallback, and loaded through ctypes, once per process.  The library's
name carries the crc32 of the source, the compiler and the machine; a
cached library is loaded only when the source copy beside it equals
`_chain.c` byte for byte, and no directory that group or others can
write is used.  A build goes to temporary names that are then renamed
into place, so concurrent first uses never load a half-written file.

One library holds the chain loop, `chain_loop`, the pair sampler,
`pair_sampler`, and the generator's shuffle and greedy fill,
`generator`.  Each is None where no compiler is found or the build
fails; `run_chain` then runs its Python loop, `sample_adjacent_pairs`
its Python loop and `random_graph_pair` its Python body, which make the
same walk, the same pairs and the same graphs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import shutil
import subprocess
import tempfile
import zlib
from array import array

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_chain.c")
# proposals per native call, 0.13-0.32 s at 13-31M proposals per second: a
# Ctrl-C is seen between calls, and no step count outgrows the C int64
_CALL_STEPS = 1 << 22


def _cache_dirs():
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    yield os.path.join(base, "simcol")
    yield os.path.join(tempfile.gettempdir(), f"simcol-{os.getuid()}")


def _library(source: bytes, compiler: str, directory: str, name: str) -> str | None:
    """Path of library `name` built from source in directory, building it
    if need be; None if directory is not this user's alone (another owner,
    or writable by group or others) or the build fails."""
    stem = os.path.join(directory, name)
    try:
        os.makedirs(directory, mode=0o700, exist_ok=True)
        st = os.stat(directory)
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None
        with open(stem + ".c", "rb") as f:
            if f.read() == source and os.path.isfile(stem + ".so"):
                return stem + ".so"
    except OSError:
        pass
    temps = []
    try:
        for suffix in (".c", ".so"):
            fd, path = tempfile.mkstemp(suffix=suffix, dir=directory)
            os.close(fd)
            temps.append(path)
        c_file, so_file = temps
        with open(c_file, "wb") as f:
            f.write(source)
        done = subprocess.run([compiler, "-O2", "-shared", "-fPIC", "-o", so_file, c_file],
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        if done.returncode:
            return None
        # the library first: a source copy that matches vouches for it
        os.replace(so_file, stem + ".so")
        os.replace(c_file, stem + ".c")
        return stem + ".so"
    except OSError:
        return None
    finally:
        for path in temps:
            if os.path.exists(path):
                os.remove(path)


def _load():
    """`_chain.c` as a ctypes library with its functions typed, built if
    need be, or None."""
    compiler = shutil.which("cc")
    if os.name != "posix" or compiler is None or array("i").itemsize != 4 \
            or array("I").itemsize != 4:
        return None
    with open(SOURCE, "rb") as f:
        source = f.read()
    st = os.stat(compiler)
    tag = f"{os.path.realpath(compiler)} {st.st_size} {st.st_mtime_ns} " \
          f"{os.uname().machine} {ctypes.sizeof(ctypes.c_void_p)}"
    name = f"chain-{zlib.crc32(source + tag.encode()):08x}"
    for directory in _cache_dirs():
        path = _library(source, compiler, directory, name)
        if path is None:
            continue
        try:
            lib = ctypes.CDLL(path)
            _declare(lib)
        except (OSError, AttributeError):
            continue
        return lib
    return None


def _declare(lib) -> None:
    """Set the argument and result types of lib's functions."""
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    for symbol, argtypes, restype in (
            ("simcol_run_chain", [i32, ptr, ptr, ptr, i32, i64, i32, ptr, ptr, ptr, ptr, ptr],
             ctypes.c_int),
            ("simcol_sample_pairs",
             [i32, ptr, ptr, ptr, i32, i32, ptr, i64, i64, i32, ptr, ptr, ptr, ptr, ptr],
             ctypes.c_int),
            ("simcol_shuffled_candidates", [i32, ptr, ptr, ptr], None),
            ("simcol_greedy_fill", [i32, ptr, i64, i32, ptr, i64, ptr], i64)):
        fn = getattr(lib, symbol)
        fn.argtypes, fn.restype = argtypes, restype


# loaded once per process; the build tests call _load for a fresh build
_loaded = functools.cache(_load)


def chain_loop():
    """`simcol_run_chain` of `_chain.c` as a ctypes function, or None."""
    lib = _loaded()
    return None if lib is None else lib.simcol_run_chain


def pair_sampler():
    """`sample_pairs` on `_chain.c`'s `simcol_sample_pairs`, or None."""
    lib = _loaded()
    return None if lib is None else functools.partial(sample_pairs, lib.simcol_sample_pairs)


def generator():
    """(shuffled_candidates, greedy_fill) on `_chain.c`'s functions, the
    primitives `random_graph_pair` builds a pair from, or None."""
    lib = _loaded()
    if lib is None:
        return None
    return (functools.partial(shuffled_candidates, lib.simcol_shuffled_candidates),
            functools.partial(greedy_fill, lib.simcol_greedy_fill))


@contextlib.contextmanager
def _mt_state(rng):
    """rng's MT19937 state as arrays (624 words, index) for native code to
    advance in place, handed back to rng however the block ends.  rng must
    be a plain `random.Random`, whose getstate() and setstate() these are."""
    version, internal, gauss = rng.getstate()
    mt, index = array("I", internal[:-1]), array("i", internal[-1:])
    try:
        yield mt, index
    finally:
        rng.setstate((version, (*mt, index[0]), gauss))


def _address(a: array) -> int:
    return a.buffer_info()[0]


def shuffled_candidates(shuffle, n: int, rng) -> array:
    """The candidate codes u*(n+1) + v of `graphs.random_graph_pair`, in
    the order rng's shuffle leaves them; n must be below 2**16, so that
    there are fewer than 2**31 of them."""
    codes = array("q", [0]) * (n * (n - 1) // 2)
    with _mt_state(rng) as (mt, index):
        shuffle(n, _address(codes), _address(mt), _address(index))
    return codes


def greedy_fill(fill, n: int, codes: array, delta: int, deg: array, limit: int) -> list[int]:
    """The codes the greedy scan of codes takes, in scan order; see
    `graphs.random_graph_pair`.  deg is an int32 array of n + 1 entries."""
    out = array("q", [0]) * limit
    taken = fill(n, _address(codes), len(codes), delta, _address(deg), limit, _address(out))
    return out[:taken].tolist()


def run(loop, G, assign: list[int], k: int, steps: int, locality: int,
        cut: tuple[float, ...], rng) -> tuple[list[int], int]:
    """Advance assign in place through loop; (flips by size, rejected).

    rng must be a plain `random.Random`: its MT19937 state goes in through
    `getstate()` and comes back through `setstate()`.  The steps go in
    calls of at most _CALL_STEPS on the same buffers, and assign and rng
    are written back however the calls end, so an exception between two
    calls (a Ctrl-C) leaves both at the walk done so far.
    """
    indptr, indices = G.csr
    colors = array("i", assign)
    cuts = array("d", cut)
    counts, rejected = array("q", bytes(8 * (locality + 1))), array("q", [0])
    try:
        with _mt_state(rng) as (mt, index):
            at = [_address(a) for a in (indptr, indices, colors, cuts, mt, index,
                                        counts, rejected)]
            while steps:
                n = min(steps, _CALL_STEPS)
                if loop(G.m, at[0], at[1], at[2], k, n, locality, *at[3:]):
                    raise MemoryError("the native chain loop could not allocate its work arrays")
                steps -= n
    finally:
        assign[:] = colors.tolist()
    return counts.tolist(), rejected[0]


def sample_pairs(sampler, G, start: list[int], k: int, locality: int,
                 cut: tuple[float, ...], burn_in: int, count: int,
                 rng) -> tuple[array, array, array]:
    """count adjacent pairs through sampler, from a walk at start of
    burn_in proposals and G.m * k more before each pair; (colorings,
    vstars, colors).

    Pair p is the coloring colorings[p*m:(p + 1)*m] and its copy with
    vertex vstars[p] recolored colors[p]; see
    `coupling.sample_adjacent_pairs`.  rng is as in `run`.  The proposals
    go in calls of at most _CALL_STEPS, each taking as many pairs as fit,
    and rng is written back however the calls end.
    """
    m = G.m
    gap = m * k
    indptr, indices = G.csr
    assign, cuts = array("i", start), array("d", cut)
    colorings = array("i", bytes(4 * m * count))
    vstars, colors = array("i", bytes(4 * count)), array("i", bytes(4 * count))
    lead, done = burn_in + gap, 0
    with _mt_state(rng) as (mt, index):
        at = [_address(a) for a in (indptr, indices, assign, cuts, mt, index)]
        while done < count:
            if lead > _CALL_STEPS:  # the walk before the next pair, in whole calls
                steps, take = _CALL_STEPS, 0
            else:  # the rest of it, that pair and as many more as fit
                steps, take = lead, min(count - done, 1 + (_CALL_STEPS - lead) // gap)
            status = sampler(m, at[0], at[1], at[2], k, locality, at[3], steps, gap, take,
                             at[4], at[5], _address(colorings) + 4 * m * done,
                             _address(vstars) + 4 * done, _address(colors) + 4 * done)
            if status == -1:
                raise MemoryError("the native pair sampler could not allocate its work arrays")
            if status:
                raise AssertionError("k >= 4*delta - 2 leaves every vertex a color "
                                     "no neighbor holds")
            lead = gap if take else lead - steps
            done += take
    return colorings, vstars, colors
