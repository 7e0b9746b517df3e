"""The native body of `dynamics.run_chain` and `graphs.random_graph_pair`,
built on first use.

`_chain.c` is compiled by the system C compiler (``cc -O2 -shared
-fPIC``) into a per-user cache, ``$XDG_CACHE_HOME/simcol`` or
``~/.cache/simcol``, with ``simcol-<uid>`` in the temp dir as the
fallback, and loaded through ctypes.  The library's name carries the
crc32 of the source, the compiler and the machine; a cached library is
loaded only when the source copy beside it equals `_chain.c` byte for
byte, and no directory that group or others can write is used.  A
build goes to temporary names that are then renamed into place,
so concurrent first uses never load a half-written file.

One library holds the chain loop, `chain_loop`, and the generator's
shuffle and greedy fill, `generator`.  Both are None where no compiler
is found or the build fails; `run_chain` then runs its Python loop, and
`random_graph_pair` its Python body, which make the same walk and the
same pairs.
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
# proposals per native call, 0.2-0.3 s at 14-22M proposals per second: a
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
    """`_chain.c` as a ctypes library, built if need be, or None."""
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
            for symbol in ("simcol_run_chain", "simcol_shuffled_candidates",
                           "simcol_greedy_fill"):
                getattr(lib, symbol)
        except (OSError, AttributeError):
            continue
        return lib
    return None


@functools.cache
def chain_loop():
    """`simcol_run_chain` of `_chain.c` as a ctypes function, or None."""
    lib = _load()
    if lib is None:
        return None
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    fn = lib.simcol_run_chain
    fn.argtypes = [i32, ptr, ptr, ptr, i32, i64, i32, ptr, ptr, ptr, ptr, ptr]
    fn.restype = ctypes.c_int
    return fn


@functools.cache
def generator():
    """(shuffled_candidates, greedy_fill) on `_chain.c`'s functions, the
    primitives `random_graph_pair` builds a pair from, or None."""
    lib = _load()
    if lib is None:
        return None
    i32, i64, ptr = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p
    shuffle, fill = lib.simcol_shuffled_candidates, lib.simcol_greedy_fill
    shuffle.argtypes = [i32, ptr, ptr, ptr]
    shuffle.restype = None
    fill.argtypes = [i32, ptr, i64, i32, ptr, i64, ptr]
    fill.restype = i64
    return functools.partial(shuffled_candidates, shuffle), functools.partial(greedy_fill, fill)


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
