"""Section 9.3: Phantom's effect on the exploitable-gadget population.

The paper, building on Kasper's Linux-kernel census, estimates that
counting single-load (MDS-style) gadgets — which P3 turns into full
disclosure gadgets — grows the Spectre-exploitable population about
4x, from 183 to 722.

We cannot scan Linux here; instead the corpus generator implants
gadget classes at Kasper's relative frequencies into a synthetic
kernel-function corpus, and the scanner (taint analysis over CFG paths
behind conditional branches) must (a) recover the implanted ground
truth exactly and (b) measure the ~4x amplification.  A hardened build
(lfence behind every bounds check) must scan clean.
"""

from repro.analysis import generate_corpus, scan_corpus

from _harness import emit, run_once, scale

TOTAL_FUNCTIONS = scale(400, 2422)   # full scale: Kasper's corpus size


CENSUS = ("spectre_v1", "mds_single_load", "phantom_exploitable",
          "amplification")


def render(record):
    census, hardened = record["census"], record["hardened"]
    return [
        f"§9.3 — gadget census over {record['functions']} synthetic "
        f"kernel functions",
        f"conventional Spectre gadgets (double load): "
        f"{census['spectre_v1']}",
        f"MDS-style gadgets (single load):            "
        f"{census['mds_single_load']}",
        f"exploitable with Phantom P3:                "
        f"{census['phantom_exploitable']}",
        f"amplification: {census['amplification']:.2f}x "
        f"(paper, from Kasper: 722/183 = 3.95x)",
        f"lfence-hardened build: {hardened['spectre_v1']} v1, "
        f"{hardened['mds_single_load']} single-load gadgets",
    ]


def test_gadget_census_amplification(benchmark):
    def experiment():
        record = {"functions": TOTAL_FUNCTIONS}
        for key, hardened in (("census", False), ("hardened", True)):
            corpus = generate_corpus(total=TOTAL_FUNCTIONS, seed=42,
                                     hardened=hardened)
            summary = scan_corpus(corpus.image, corpus.entries)
            record[key] = {name: getattr(summary, name) for name in CENSUS}
            if not hardened:
                record["implanted"] = {
                    kind: corpus.count(kind)
                    for kind in ("v1_double_load", "mds_single_load")}
        return record

    record = emit("gadget_census", run_once(benchmark, experiment), render)
    census = record["census"]

    # Scanner recovers the implanted ground truth exactly.
    assert census["spectre_v1"] == record["implanted"]["v1_double_load"]
    assert census["mds_single_load"] \
        == record["implanted"]["mds_single_load"]
    # The paper's shape: ~4x more gadgets once P3 counts.  The ratio is
    # a binomial estimate: at reduced corpus size its sampling noise is
    # wider, at paper scale it concentrates near Kasper's 3.95.
    low, high = (3.4, 4.6) if TOTAL_FUNCTIONS >= 2000 else (2.5, 6.0)
    assert low < census["amplification"] < high
    # The §8.2 mitigation wipes the census.
    assert record["hardened"]["phantom_exploitable"] == 0
