"""Print the bit-identity hashes of al-seq, al-pipe and bp.

Each run is a seeded 2-epoch ``fit`` on the benchmark's blobs:
perfbench's ``make_inputs(wl, 1)``, the first init and shuffle seed, the
workload's rate, batch 128 and ``lr_drops=()``, with a temporary
``out_dir``. Per run it prints three sha256 hashes: of the parameter
bytes after the run (``nn.param_items`` over ``model.named_layers()``,
in order), of the metrics rows (``metrics.record_row`` of every record,
cells joined by "," and rows ended by a newline, as in metrics.csv),
and of the ``checkpoint.bin`` file the run wrote. A change that keeps
the training bits, the seeded metrics and the checkpoint format must
print the hashes that ROADMAP.md quotes, whose prefixes ``EXPECTED``
holds; a change that alters them edits the table and says so. Each
run's ``checkpoint.bin`` is also read back with ``checkpoint.load`` and
saved again with its header's seed, epoch and extra, which must give the
same bytes. Exits 1 when a hash does not start with its ``EXPECTED``
prefix, when a checkpoint does not round-trip, or when the al-seq and
al-pipe parameters or ``checkpoint.bin`` bytes differ (the checkpoint
holds no mode, so the two runs write the same file).

    PYTHONPATH=src python3 tools/param_hashes.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import assoclearn as al  # noqa: E402
from assoclearn import checkpoint  # noqa: E402
from assoclearn.metrics import record_row  # noqa: E402
from assoclearn.nn import param_items  # noqa: E402
from workloads import (  # noqa: E402
    BATCH_SIZE, CLASSES, PLAN, WORKLOADS, build_model, make_inputs)

EPOCHS = 2
RUNS = (("al-seq", "deskmlp-seq"), ("al-pipe", "deskmlp-pipe"),
        ("bp", "deskmlp-bp"))
KINDS = ("params", "metrics", "checkpoint")
# Per mode, the (params, metrics, checkpoint) hash prefixes ROADMAP.md quotes.
EXPECTED = {
    "al-seq": ("e989df2a", "aafc7b6a", "20aada29"),
    "al-pipe": ("e989df2a", "094405be", "20aada29"),
    "bp": ("e71d1b28", "d474074a", "06237c4a"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def round_trips(path: Path) -> bool:
    """Whether loading the checkpoint at path and saving the model again
    with its header's seed, epoch and extra gives the same bytes."""
    model, header = checkpoint.load(path)
    again = path.with_name("resaved.bin")
    checkpoint.save(again, model, header["seed"], header["epoch"],
                    header.get("extra"))
    return again.read_bytes() == path.read_bytes()


def run_hashes(name: str) -> tuple[tuple[str, str, str], bool]:
    """(parameter, metrics-rows, checkpoint) hashes of the workload's
    seeded run, and whether its checkpoint round-trips."""
    wl = WORKLOADS[name]
    inputs = make_inputs(wl, 1)
    model = build_model(al, wl, inputs.init_seeds[0])
    with tempfile.TemporaryDirectory() as out_dir:
        result = al.fit(
            model, al.Dataset(inputs.train_X, inputs.train_y, CLASSES),
            al.Dataset(inputs.test_X, inputs.test_y, CLASSES),
            mode=wl.mode, epochs=EPOCHS, batch_size=BATCH_SIZE,
            rng=al.make_rng(inputs.shuffle_seeds[0]),
            seed=inputs.init_seeds[0], lr=wl.lr, lr_drops=(),
            out_dir=out_dir)
        ckpt_path = Path(result.checkpoint_path)
        ckpt_bytes = ckpt_path.read_bytes()
        round_trip = round_trips(ckpt_path)
    items = param_items(model.named_layers())
    n_components = len(al.get_plan(PLAN).components)
    rows = "".join(",".join(record_row(rec, n_components)) + "\n"
                   for rec in result.records)
    return (_sha256(b"".join(a.tobytes() for _, a in items)),
            _sha256(rows.encode()), _sha256(ckpt_bytes)), round_trip


def main() -> int:
    runs = {mode: run_hashes(name) for mode, name in RUNS}
    hashes = {mode: values for mode, (values, _) in runs.items()}
    for mode, values in hashes.items():
        print(f"{mode:8s} " + "  ".join(f"{kind} {value}" for kind, value
                                        in zip(KINDS, values)))
    status = 0
    for mode, values in hashes.items():
        for kind, value, prefix in zip(KINDS, values, EXPECTED[mode]):
            if not value.startswith(prefix):
                print(f"{mode} {kind} hash {value[:8]}, expected {prefix}",
                      file=sys.stderr)
                status = 1
    for mode, (_, round_trip) in runs.items():
        if not round_trip:
            print(f"{mode} checkpoint.bin does not round-trip through "
                  f"checkpoint.load and checkpoint.save", file=sys.stderr)
            status = 1
    for i, what in ((0, "parameters"), (2, "checkpoint.bin bytes")):
        if hashes["al-seq"][i] != hashes["al-pipe"][i]:
            print(f"al-seq and al-pipe {what} differ", file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
