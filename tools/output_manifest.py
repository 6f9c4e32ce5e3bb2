"""Run a fixed manifest of rchlab commands and print one SHA-256 per file.

Usage::

    python tools/output_manifest.py OUTDIR

Every command runs in-process through ``rchlab.cli.main`` from the ``src``
directory next to this script, with OUTDIR as the working directory and
relative output paths, so no written byte depends on where OUTDIR lies.
Each command's stdout and exit status go to ``<name>.stdout``.  The script
then prints ``<sha256>  <path>`` for every file under OUTDIR in sorted
order, and a last line with the SHA-256 of that listing.  Two source trees
produce the same outputs exactly when their listings are equal.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from rchlab.cli import main  # noqa: E402

MANIFEST = {
    "nonuniform-super": ["nonuniform-super", "--n-min", "4", "--n-max", "7",
                         "--steps", "8"],
    "nonuniform-critical": ["nonuniform-critical", "--p", "1", "--n-min", "4",
                            "--n-max", "7", "--steps", "8"],
    "decomp-rates": ["decomp-rates", "--n-min", "4", "--n-max", "7",
                     "--steps", "8"],
    "critical-expansion": ["critical-expansion", "--n-min", "5", "--n-max", "6",
                           "--steps", "8"],
    "continuity": ["continuity", "--N", "2048", "--steps", "16"],
    "picard": ["picard", "--steps", "50", "--m-max", "5"],
    "picard-dt": ["picard", "--steps", "50", "--m-max", "5", "--dt", "0.01"],
    "certify-p1": ["data", "--certify", "--p", "1", "--r", "1", "--n-min", "5",
                   "--n-max", "8"],
    "certify-p2": ["data", "--certify", "--p", "2", "--r", "1", "--n-min", "5",
                   "--n-max", "8"],
    "solve": ["solve", "--init", "smoke", "--tend", "0.3", "--dt", "0.01",
              "--snapshot-every", "5", "--besov", "2,2,2", "--besov", "1.5,2,1",
              "--besov", "2,1,inf", "--besov", "3,1,1"],
    "lagrangian": ["lagrangian", "--init", "smoke", "--tend", "0.5",
                   "--cross-check"],
}


def run_manifest(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    home = Path.cwd()
    os.chdir(outdir)
    try:
        for name, argv in MANIFEST.items():
            if argv[0] != "data":  # `data --certify` prints its table
                argv = argv + ["--out", name]
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink):
                code = main(argv)
            Path(f"{name}.stdout").write_text(f"{sink.getvalue()}exit {code}\n")
    finally:
        os.chdir(home)


def listing(outdir: Path) -> list[str]:
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  "
            f"{path.relative_to(outdir).as_posix()}"
            for path in sorted(outdir.rglob("*")) if path.is_file()]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    out = Path(sys.argv[1])
    run_manifest(out)
    lines = listing(out)
    print("\n".join(lines))
    print(f"{hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}  "
          f"({len(lines)} files)")
