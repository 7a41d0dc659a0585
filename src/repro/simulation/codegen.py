"""Per-circuit C code generation: straight-line compiled sweeps.

The generic kernels in :mod:`repro.simulation._native` interpret the lowered
:class:`~repro.circuits.program.CircuitProgram` tables at run time: every
gate of every sweep pays an opcode dispatch and a CSR gather through pointer
chasing.  This module removes that last interpreter layer by emitting a C
translation unit *for one specific program* — every gate becomes a literal
expression over its fan-in row slots::

    V[123*NW + w] = ~(V[41*NW + w] & V[87*NW + w]) & M[w];

with the level schedule unrolled into straight-line functions, constants
folded away (constant cells are materialised at reset and never re-swept)
and all gather indices baked into the instruction stream.  The generated
code is **width-independent**: row offsets are scaled by the runtime word
count ``NW``, and inverted outputs are masked with the caller's per-word
lane mask ``M``, so one shared object serves every ensemble width of its
circuit — which is what lets the object be cached under the program's
content key.

Two entry points are emitted per program:

* ``cg_zd_sweep(V, NW, M)`` — the full zero-delay combinational sweep, one
  fused ``w``-loop per level chunk (gates within a level are independent,
  so their expressions share one loop over the lane words);
* ``cg_ed_eval(V, NW, ids, n, M, out)`` — evaluate an arbitrary gate subset
  (the event-driven engine's active frontier) into ``out`` without touching
  the net rows, via a per-gate function-pointer table.

Compilation and caching ride the shared machinery of
:func:`repro.simulation._native.compile_and_load`: with
``REPRO_PROGRAM_CACHE`` set, the object lands next to the pickled program as
``{program.key}.cg{CODEGEN_VERSION}.k*.{source_digest}.so`` (atomic rename,
corrupt/stale objects silently recompiled), so sharded workers and batch
subprocesses ``dlopen`` the cached object instead of re-invoking the
compiler.  ``REPRO_NATIVE=0`` and compiler-less environments make
:func:`load_program_kernel` return ``None`` and every consumer falls back
to the grouped-numpy path — the generated kernels are a pure performance
layer, bit-identical to the portable sweeps (pinned by the engine matrix).
"""

from __future__ import annotations

import ctypes
import os
import threading

import numpy as np

from repro.simulation import _native

__all__ = [
    "CODEGEN_VERSION",
    "bind_sweep",
    "clear_codegen_memo",
    "ensure_program_kernel",
    "generate_source",
    "load_program_kernel",
    "program_kernel_path",
]

#: Bumped whenever the generated code's ABI or semantics change; the version
#: is part of the cached object's file name, so stale objects simply miss.
CODEGEN_VERSION = 1

#: Gates per fused zero-delay loop body.  Levels wider than this split into
#: several functions, bounding the optimizer's per-function work so compile
#: time stays linear in circuit size.
_ZD_CHUNK = 256

_MEMO: dict[str, ctypes.CDLL | None] = {}
_MEMO_LOCK = threading.Lock()

_OP_CHAR = {_native.OP_AND: "&", _native.OP_OR: "|", _native.OP_XOR: "^"}

_PREAMBLE = """\
#include <stdint.h>

typedef uint64_t (*cg_word_fn)(const uint64_t *, int64_t, const uint64_t *, int64_t);

static uint64_t cg_word_zero(const uint64_t *V, int64_t NW, const uint64_t *M,
                             int64_t w)
{
    (void)V; (void)NW; (void)M; (void)w;
    return 0;
}
"""


def _gate_expr(program, gate_index: int, lane: str) -> str:
    """The C expression for one gate's output at lane-word index *lane*."""
    lo = int(program.in_ptr[gate_index])
    hi = int(program.in_ptr[gate_index + 1])
    rows = program.in_rows[lo:hi]
    op = _OP_CHAR[int(program.gate_op[gate_index])]
    terms = f" {op} ".join(f"V[{int(row)}*NW+{lane}]" for row in rows)
    if not program.gate_invert[gate_index]:
        return terms
    if len(rows) == 1:
        return f"~{terms} & M[{lane}]"
    return f"~({terms}) & M[{lane}]"


def generate_source(program) -> str:
    """Emit the full C translation unit specializing *program*'s sweeps."""
    parts = [_PREAMBLE]

    # Zero-delay sweep: one fused w-loop per level chunk.  Gates sharing a
    # level never feed each other (level = 1 + deepest fan-in level), so
    # their statements are independent within one w iteration.
    chunk_names: list[str] = []
    for level_pos, level_gates in enumerate(program.levels_all):
        for chunk_pos in range(0, level_gates.size, _ZD_CHUNK):
            chunk = level_gates[chunk_pos : chunk_pos + _ZD_CHUNK]
            name = f"cg_zd_l{level_pos}_c{chunk_pos // _ZD_CHUNK}"
            chunk_names.append(name)
            lines = [
                f"static void {name}(uint64_t *restrict V, const int64_t NW,",
                f"{' ' * (len(name) + 13)}const uint64_t *restrict M)",
                "{",
                "    for (int64_t w = 0; w < NW; w++) {",
            ]
            for gate_index in chunk:
                out_row = int(program.gate_out[gate_index])
                lines.append(
                    f"        V[{out_row}*NW+w] = {_gate_expr(program, int(gate_index), 'w')};"
                )
            lines.extend(["    }", "}", ""])
            parts.append("\n".join(lines))

    sweep_calls = "\n".join(f"    {name}(V, NW, M);" for name in chunk_names)
    parts.append(
        "void cg_zd_sweep(uint64_t *V, int64_t NW, const uint64_t *M)\n"
        "{\n" + sweep_calls + ("\n" if sweep_calls else "") + "}\n"
    )

    # Event-driven eval: one single-expression function per gate returning
    # its value at one lane-word index, plus a function-pointer table
    # indexed by gate id.  Keeping the per-word loop in the *drivers* (and
    # out of the per-gate bodies) keeps compile time linear in circuit size
    # — per-gate loop bodies made the optimizer's cost blow up 6x on s5378.
    # Constant cells (never scheduled, but the generic kernel zero-fills them
    # defensively) map to ``cg_word_zero``.
    num_gates = len(program.gate_out)
    table: list[str] = []
    for gate_index in range(num_gates):
        if not program.non_const[gate_index]:
            table.append("cg_word_zero")
            continue
        table.append(f"cg_w{gate_index}")
        expr = _gate_expr(program, gate_index, "w")
        parts.append(
            f"static uint64_t cg_w{gate_index}(const uint64_t *V, int64_t NW,\n"
            "        const uint64_t *M, int64_t w)\n"
            "{\n"
            "    (void)M;\n"
            f"    return {expr};\n"
            "}\n"
        )

    parts.append(
        "static const cg_word_fn CG_GATES[] = {\n    "
        + ",\n    ".join(table)
        + "\n};\n"
        "\n"
        "void cg_ed_eval(const uint64_t *V, int64_t NW, const int64_t *ids,\n"
        "                int64_t n, const uint64_t *M, uint64_t *out)\n"
        "{\n"
        "    for (int64_t i = 0; i < n; i++) {\n"
        "        const cg_word_fn fn = CG_GATES[ids[i]];\n"
        "        uint64_t *dst = out + i * NW;\n"
        "        for (int64_t w = 0; w < NW; w++)\n"
        "            dst[w] = fn(V, NW, M, w);\n"
        "    }\n"
        "}\n"
    )
    return "\n".join(parts)


def _configure(library: ctypes.CDLL) -> ctypes.CDLL | None:
    """Attach argtypes; None when the object lacks the expected symbols."""
    for symbol in ("cg_zd_sweep", "cg_ed_eval"):
        if not hasattr(library, symbol):
            return None
    uint64_p = np.ctypeslib.ndpointer(dtype=np.uint64, flags="C_CONTIGUOUS")
    int64_p = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
    library.cg_zd_sweep.restype = None
    library.cg_zd_sweep.argtypes = [uint64_p, ctypes.c_int64, uint64_p]
    library.cg_ed_eval.restype = None
    library.cg_ed_eval.argtypes = [
        uint64_p,  # values
        ctypes.c_int64,  # num_words
        int64_p,  # gate_ids
        ctypes.c_int64,  # num_active
        uint64_p,  # lane mask
        uint64_p,  # out
    ]
    return library


def _cache_tag(program) -> str:
    return f"{program.key}.cg{CODEGEN_VERSION}"


def program_kernel_path(program) -> str | None:
    """Cache-file path the program's compiled object would use, or ``None``.

    ``None`` when no cache directory is configured; the path may not exist
    yet (``ensure_program_kernel`` builds it).
    """
    directory = _native._kernel_cache_dir()
    if directory is None:
        return None
    digest = _native.source_digest(generate_source(program))
    return os.path.join(
        directory,
        f"{_cache_tag(program)}.k{_native.KERNEL_CACHE_VERSION}.{digest}.so",
    )


def load_program_kernel(program) -> ctypes.CDLL | None:
    """The compiled per-program kernel, or ``None`` when unavailable.

    Memoized in-process by the program's content key (a failed compile is
    remembered too, so one broken environment does not retry the compiler
    per engine).  ``REPRO_NATIVE=0`` disables code generation exactly like
    the generic kernels.
    """
    if not _native.native_enabled():
        return None
    key = program.key
    with _MEMO_LOCK:
        if key in _MEMO:
            return _MEMO[key]
    source = generate_source(program)
    # -O1: measured identical sweep throughput to -O2 on these straight-line
    # bitwise bodies, at roughly half the compile time (per-function RTL
    # expansion dominates and scales with circuit size).
    library = _native.compile_and_load(source, _cache_tag(program), optimize="-O1")
    if library is not None:
        library = _configure(library)
    with _MEMO_LOCK:
        library = _MEMO.setdefault(key, library)
    return library


def clear_codegen_memo() -> None:
    """Drop the in-process kernel memo (testing support; disk cache untouched)."""
    with _MEMO_LOCK:
        _MEMO.clear()


def ensure_program_kernel(program) -> dict:
    """Pre-build the program's kernel and report the cache state.

    The ``repro compile --codegen`` payload: whether code generation is
    enabled at all, the cache path (``None`` without ``REPRO_PROGRAM_CACHE``),
    the object's size, and whether this call hit the disk cache (``None``
    when nothing could be built).  Operators use it to warm caches before
    serving.
    """
    source = generate_source(program)
    path = program_kernel_path(program)
    hit = path is not None and os.path.exists(path)
    library = load_program_kernel(program)
    return {
        "enabled": _native.native_enabled() and library is not None,
        "path": path,
        "cache_hit": hit if library is not None else None,
        "size_bytes": (
            os.path.getsize(path) if path is not None and os.path.exists(path) else None
        ),
        "source_bytes": len(source),
        "source_digest": _native.source_digest(source),
        "functions": 2,
    }


_SWEEP_PROTOTYPE = ctypes.CFUNCTYPE(
    None,
    ctypes.c_void_p,  # values
    ctypes.c_int64,  # num_words
    ctypes.c_void_p,  # lane mask
)


def bind_sweep(kernel: ctypes.CDLL, flat: np.ndarray, num_words: int, mask: np.ndarray):
    """Bind ``cg_zd_sweep`` to fixed buffers and return a 0-arg call.

    Same contract as :func:`repro.simulation._native.bind_sweep`: the caller
    guarantees the arrays outlive the closure and are never reallocated, so
    the raw data pointers are captured once and the per-sweep ctypes
    marshalling cost stays off the hot path.
    """
    sweep = _SWEEP_PROTOTYPE(("cg_zd_sweep", kernel))
    arguments = (flat.ctypes.data, num_words, mask.ctypes.data)

    def call() -> None:
        sweep(*arguments)

    return call
