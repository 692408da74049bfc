"""The reproduction suite analyzes each distinct presentation once.

The product rows (``pipeline-products``, ``realization-products`` and
``restriction-sphere-product``) read one shared report per (p, n, k)
instance, so a whole ``run_suite`` makes one ``analyze_polytope`` call per
distinct presentation and seed.
"""

from delzant import reproduce


def test_one_analysis_per_distinct_presentation(monkeypatch):
    calls = []
    analyze = reproduce.analyze_polytope

    def counting(poly, **options):
        calls.append((poly, tuple(sorted(options.items()))))
        return analyze(poly, **options)

    monkeypatch.setattr(reproduce, "analyze_polytope", counting)
    reproduce._product_report.cache_clear()
    rows = reproduce.run_suite()
    assert len(rows) == len(reproduce.ALL_CHECKS)
    # 153 product instances, 64 redundant ones and 4 seeded oracle runs;
    # the three product rows asked for 312 reports between them
    assert len(set(calls)) == len(calls) == 221
