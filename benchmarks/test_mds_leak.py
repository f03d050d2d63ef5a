"""Section 7.4: leaking kernel memory with an MDS gadget + P3.

Reproduction target (shape): the paper leaks 4096 bytes of randomized
kernel data on a Zen 2 EPYC 7252 at a median 84 B/s with 100 % accuracy
in 8 of 10 reboots (2 gave no signal).  We assert perfect accuracy on
the signalling runs and report the simulated bandwidth; the byte count
and run count are reduced by default (REPRO_FULL=1 for paper scale).
"""

from statistics import median

from repro.core import leak_kernel_memory
from repro.kernel import Machine
from repro.pipeline import ZEN2

from _harness import emit, run_once, scale

RUNS = scale(3, 10)
N_BYTES = scale(256, 4096)


def render(record):
    signalling = [row for row in record["rows"] if row["signal"]]
    lines = [f"§7.4 — MDS-gadget leak of {record['n_bytes']} bytes, "
             f"{len(record['rows'])} runs (fresh boot each)",
             f"runs with signal: {len(signalling)}/{len(record['rows'])} "
             f"(paper: 8/10)"]
    for i, row in enumerate(record["rows"]):
        lines.append(f"  run {i}: accuracy {row['accuracy'] * 100:6.2f}%  "
                     f"bandwidth {row['bytes_per_second']:10.1f} B/s "
                     f"(simulated)  no-signal bytes: "
                     f"{row['no_signal_bytes']}")
    if signalling:
        lines.append(f"median bandwidth over signalling runs: "
                     f"{record['median_bytes_per_second']:.1f}"
                     f" B/s (paper: 84 B/s on hardware)")
    return lines


def test_mds_gadget_kernel_leak(benchmark):
    def experiment():
        rows = []
        for attempt in range(RUNS):
            machine = Machine(ZEN2, kaslr_seed=4000 + attempt,
                              rng_seed=attempt)
            rows.append(leak_kernel_memory(
                machine, machine.kaslr.image_base,
                machine.kaslr.physmap_base, n_bytes=N_BYTES).to_dict())
        return rows

    rows = run_once(benchmark, experiment)
    rates = [row["bytes_per_second"] for row in rows if row["signal"]]
    record = emit("mds_leak", {
        "n_bytes": N_BYTES, "rows": rows,
        "median_bytes_per_second": median(rates) if rates else None},
        render)

    signalling = [row for row in record["rows"] if row["signal"]]
    assert signalling, "no run produced any signal"
    for row in signalling:
        assert row["accuracy"] == 1.0   # paper: perfect accuracy
