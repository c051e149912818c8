from bench_pairs import verdict

PARENT = [0.40, 0.39, 0.41, 0.38, 0.40, 0.42, 0.39, 0.40, 0.41, 0.40]


def test_verdict_on_fixed_pairs():
    faster = [p - 0.15 for p in PARENT]
    assert verdict(PARENT, faster, "lower", 0.25) == "gain"
    # the same numbers where higher is better
    assert verdict(PARENT, faster, "higher", 0.25) == "regression"
    assert verdict(faster, PARENT, "higher", 0.25) == "gain"
    # 8 of 10 wins is too few, however large the gap
    assert verdict(PARENT, faster[:8] + PARENT[8:], "lower", 0.25) == "no regression"
    # 10 wins by less than the parent's quartile distance (0.0075)
    assert verdict(PARENT, [p - 0.005 for p in PARENT], "lower", 0.25) == "no regression"
    # ties count for neither side
    assert verdict(PARENT, PARENT, "lower", 0.25) == "no regression"
    assert verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25) == "no regression"
    assert verdict(PARENT, [p * 1.3 for p in PARENT], "lower", 0.25) == "regression"
    # a spread wider than the bound leaves a small move unresolved ...
    wide = [0.2, 0.6, 0.3, 0.5, 0.4, 0.4, 0.25, 0.55, 0.35, 0.45]
    assert verdict(wide, [w * 1.05 for w in wide], "lower", 0.25) == "unresolved"
    # ... unless every change run is better than every parent run
    split = [0.30, 0.30, 0.30, 0.31, 0.31, 0.50, 0.50, 0.50, 0.50, 0.50]
    assert verdict(split, [0.29] * 10, "lower", 0.25) == "no regression"
    assert verdict(split, [0.29] * 9 + [0.31], "lower", 0.25) == "unresolved"
