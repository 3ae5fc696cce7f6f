"""Reference final states: each workload's config run at a small dt.

A reference is the workload's own config text at the rung
``dt = t_end / 2**reference_k`` (8x finer than the rung the current scheme
accepts), run to ``t_end`` with no diagnostics context and no snapshots.
References for the default seed are stored in ``refdata/`` with their
provenance; any other seed is generated on first use and cached under
``.work/`` (ignored by git).

Generate or refresh references::

    python3 perfbench/reference.py --workload direct_128 --seed 1 --store
    python3 perfbench/reference.py --workload all --store
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import subprocess
import sys
from pathlib import Path

import bootstrap

STORE_DIR = bootstrap.BENCH_DIR / "refdata"
CACHE_DIR = bootstrap.WORK_DIR / "refcache"


def _stem(name: str, seed: int) -> str:
    return f"{name}-seed{seed}"


def git_commit(root: Path = bootstrap.ROOT) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path = bootstrap.ROOT) -> str:
    """SHA-256 over the chns sources, to tell which program made a file."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "chns").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def generate(w, seed: int) -> dict:
    """Run the workload's config at the reference rung; returns the final fields."""
    from chns import config, solver

    dt = w.dt(w.reference_k)
    cfg = config.parse_config_text(w.ini(dt, seed, directory=""),
                                   source=f"{w.name}:reference")
    grid = config.build_grid(cfg)
    data = config.build_wall_data(cfg, grid)
    phi0 = config.build_initial_phi(cfg, grid)
    u0 = config.build_initial_u(cfg, grid, data)
    sim = solver.Simulation(grid, config.build_solver_config(cfg), data, phi0, u0)
    sim.run()
    st = sim.state
    return {"phi": st.phi.values, "ux": st.u.ux, "uy": st.u.uy, "t": st.t, "dt": dt}


def write(w, seed: int, out_dir: Path) -> Path:
    import numpy as np
    import scipy

    ref = generate(w, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{_stem(w.name, seed)}.npz"
    np.savez(path, phi=ref["phi"], ux=ref["ux"], uy=ref["uy"])
    provenance = {
        "workload": w.name, "seed": seed, "dt": ref["dt"],
        "reference_k": w.reference_k, "t_end": ref["t"],
        "commit": git_commit(), "chns_source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    path.with_suffix(".json").write_text(json.dumps(provenance, indent=2) + "\n")
    return path


def load(w, seed: int) -> dict:
    """Stored or cached reference; generates and caches a missing one.

    Generation runs in a child process, so the benchmark process's own peak
    memory and warm state do not depend on whether the reference was cached.
    """
    import numpy as np

    stem = _stem(w.name, seed)
    for d in (STORE_DIR, CACHE_DIR):
        if (d / f"{stem}.npz").is_file():
            path = d / f"{stem}.npz"
            break
    else:
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                        w.name, "--seed", str(seed)], check=True, timeout=150)
        path = CACHE_DIR / f"{stem}.npz"
    with np.load(path) as z:
        return {k: z[k] for k in ("phi", "ux", "uy")}


def main(argv=None) -> int:
    bootstrap.prepare()
    from workloads import DEFAULT_SEED, SMOKE_WORKLOADS, WORKLOADS

    known = {**WORKLOADS, **SMOKE_WORKLOADS}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*known, "all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="initial-noise seed (default: the stored default seed)")
    ap.add_argument("--store", action="store_true",
                    help="write to refdata/ (committed) instead of the cache")
    args = ap.parse_args(argv)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        path = write(known[name], seed, STORE_DIR if args.store else CACHE_DIR)
        print(f"wrote {path.relative_to(bootstrap.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
