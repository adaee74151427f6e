"""Differential tests of the KKR bijection against the plain scan algorithm.

scan_phi and scan_phi_inv below are the straightforward versions of kkr_phi
and kkr_phi_inv: every singularity test re-sums min(j, k) over all strings,
and phi^{-1} emits its letters 1 one at a time.  They serve as the oracle
for the library's bucketed versions, which must return the same values and
raise on the same inputs.  Tied candidates are distinct objects here, so the
oracle takes an rng that breaks ties at random; the library has no choice to
make.  scan_is_highest checks the whole count vector after every letter.
old_solve_ivp is the composition solve_ivp replaced: phi, evolve_rc, and
phi^{-1} of a configuration rebuilt with L raised by the padding.
"""

import random
from itertools import product

import pytest

from boxball import kkr
from boxball.bbs import capacity
from boxball.crystal import rank_of
from boxball.kkr import (
    RiggedConfiguration,
    _letters,
    evolve_rc,
    highest_paths,
    is_highest,
    kkr_phi,
    kkr_phi_inv,
    solve_ivp,
)


def old_solve_ivp(word, l, t):
    letters = _letters(word)
    rank = rank_of(letters)
    balls = len(letters) - letters.count(1)
    rc = evolve_rc(kkr_phi(word, rank), l, steps=t)
    pad = t * capacity(l, balls) + balls + 2
    return kkr_phi_inv(kkr.trusted(RiggedConfiguration, L=rc.L + pad, rank=rank, strings=rc.strings))


def scan_is_highest(word, rank=None):
    letters = _letters(word)
    n1 = max(rank + 1 if rank is not None else 0, max(letters, default=1))
    counts = [0] * n1
    for a in letters:
        counts[a - 1] += 1
        if any(counts[i] < counts[i + 1] for i in range(len(counts) - 1)):
            return False
    return True


def scan_phi(word, rank=None, check=True, rng=None):
    letters = _letters(word)
    if rank is None:
        rank = max(max(letters, default=2), 2) - 1
    if check and not scan_is_highest(letters, rank):
        raise ValueError("path is not highest")
    blocks = [[] for _ in range(rank)]

    def vacancy(L, a, j):
        qm = L if a == 1 else sum(min(j, s[0]) for s in blocks[a - 2])
        q = sum(min(j, s[0]) for s in blocks[a - 1])
        qp = 0 if a == rank else sum(min(j, s[0]) for s in blocks[a])
        return qm - 2 * q + qp

    L = 0
    for d in letters:
        L += 1
        if d == 1:
            continue
        chosen = []
        bound = None
        for c in range(d - 1, 0, -1):
            cands = [
                s
                for s in blocks[c - 1]
                if (bound is None or s[0] <= bound) and s[1] == vacancy(L - 1, c, s[0])
            ]
            if cands:
                best_len = max(s[0] for s in cands)
                pool = [s for s in cands if s[0] == best_len]
                s = rng.choice(pool) if rng else pool[0]
                chosen.append((c, s))
                bound = s[0]
            else:
                chosen.append((c, None))
                bound = 0
        for c, s in chosen:
            if s is None:
                blocks[c - 1].append([1, 0])
            else:
                s[0] += 1
        for c, s in chosen:
            t = blocks[c - 1][-1] if s is None else s
            t[1] = vacancy(L, c, t[0])
    return RiggedConfiguration.make(L, rank, [[tuple(s) for s in b] for b in blocks])


def scan_phi_inv(rc, rng=None):
    rank = rc.rank
    blocks = [[list(s) for s in rc.color(a)] for a in range(1, rank + 1)]

    def vacancy(L, a, j):
        qm = L if a == 1 else sum(min(j, s[0]) for s in blocks[a - 2])
        q = sum(min(j, s[0]) for s in blocks[a - 1])
        qp = 0 if a == rank else sum(min(j, s[0]) for s in blocks[a])
        return qm - 2 * q + qp

    out = []
    L = rc.L
    while L > 0:
        chosen = []
        bound = 1
        d = rank + 1
        for c in range(1, rank + 1):
            cands = [s for s in blocks[c - 1] if s[0] >= bound and s[1] == vacancy(L, c, s[0])]
            if not cands:
                d = c
                break
            best_len = min(s[0] for s in cands)
            pool = [s for s in cands if s[0] == best_len]
            s = rng.choice(pool) if rng else pool[0]
            chosen.append((c, s))
            bound = s[0]
        out.append(d)
        L -= 1
        if d == 1:
            continue
        emptied = []
        for c, s in chosen:
            s[0] -= 1
            if s[0] == 0:
                emptied.append((c, s))
        for c, s in emptied:
            blocks[c - 1].remove(s)
        for c, s in chosen:
            if s[0] > 0:
                s[1] = vacancy(L, c, s[0])
    if any(blocks):
        raise ValueError("strings left over; invalid rigged configuration")
    return "".join(str(a) for a in reversed(out))


def outcome(fn, *args, **kwargs):
    """The value fn returns, or the type and message of the exception it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_phi(word, rank, seed, check=True):
    fast = outcome(kkr_phi, word, rank, check=check)
    for rng in (None, random.Random(seed)):
        assert fast == outcome(scan_phi, word, rank, check=check, rng=rng), (word, seed)
    return fast


def assert_same_phi_inv(rc, seed):
    fast = outcome(kkr_phi_inv, rc)
    for rng in (None, random.Random(seed)):
        assert fast == outcome(scan_phi_inv, rc, rng=rng), (rc, seed)
    return fast


def random_highest_word(rng, L, rank, balls):
    """A random highest path of length L with `balls` letters above 1, each
    drawn among the letters that keep every prefix dominant."""
    while True:
        ball_at = set(rng.sample(range(L), balls))
        counts = [0] * (rank + 2)
        word = []
        for i in range(L):
            a = 1
            if i in ball_at:
                allowed = [b for b in range(2, rank + 2) if counts[b] < counts[b - 1]]
                if not allowed:
                    break
                a = rng.choice(allowed)
            counts[a] += 1
            word.append(str(a))
        else:
            return "".join(word)


def test_agrees_on_every_small_highest_path():
    seed = 0
    for rank in (1, 2, 3):
        for L in range(1, 10):
            for word in highest_paths(L, rank):
                seed += 1
                rc = assert_same_phi(word, rank, seed)
                assert_same_phi_inv(rc, seed)


def test_agrees_on_random_non_highest_words():
    rng = random.Random(41)
    non_highest = 0
    for seed in range(400):
        n = rng.randint(1, 3)
        word = "".join(str(rng.randint(1, n + 1)) for _ in range(rng.randint(1, 30)))
        non_highest += not is_highest(word, n)
        rc = assert_same_phi(word, n, seed, check=False)
        assert_same_phi_inv(rc, seed)
    assert non_highest > 300


def test_agrees_on_evolved_configurations():
    rng = random.Random(42)
    invalid = raised = 0
    seed = 0
    for rank in (1, 2, 3):
        for L in (6, 9, 12):
            words = list(highest_paths(L, rank))
            for word in rng.sample(words, min(len(words), 15)):
                rc = kkr_phi(word, rank)
                for l in (1, 2, None):
                    for t in (1, 3, 8):
                        seed += 1
                        evolved = evolve_rc(rc, l, t)
                        invalid += not evolved.is_valid()
                        assert_same_phi_inv(evolved, seed)
                        raised += isinstance(outcome(kkr_phi_inv, evolved), tuple)
    assert invalid > 100 and raised > 10


def test_agrees_on_random_highest_paths_at_realistic_size():
    # one oracle run per call (ties broken at random) and one evolved image per
    # path, so that each (rank, l, t) occurs twice, to keep the scans affordable
    rng = random.Random(43)
    flows = [(l, t) for l in (1, 3, None) for t in (1, 5)]
    invalid = raised = 0
    for k in range(36):
        rank, flow = 1 + k % 3, flows[k // 3 % 6]
        L = rng.randint(100, 200)
        word = random_highest_word(rng, L, rank, round(rng.uniform(0.35, 0.45) * L))
        rc = kkr_phi(word, rank)
        assert scan_phi(word, rank, rng=rng) == rc, word
        assert kkr_phi_inv(rc) == scan_phi_inv(rc, rng=rng) == word
        evolved = evolve_rc(rc, *flow)
        fast = outcome(kkr_phi_inv, evolved)
        assert fast == outcome(scan_phi_inv, evolved, rng=rng), (word, flow)
        invalid += not evolved.is_valid()
        raised += isinstance(fast, tuple)
    assert invalid > 10 and raised > 10


def test_solve_ivp_is_the_composition_it_replaced():
    # solve_ivp hands phi's shape through T_l to phi^{-1}; the padded words
    # must be the ones of the rebuilt configuration, byte for byte
    paths = 0
    for L in range(8):
        for word in highest_paths(L, 3):
            paths += 1
            for l, t in product((0, 1, 2, 3, None), (0, 1, 3)):
                assert solve_ivp(word, l, t) == old_solve_ivp(word, l, t), (word, l, t)
    assert paths == 1 + 1 + 2 + 4 + 10 + 25 + 70 + 196


@pytest.mark.parametrize(
    "word, l, t",
    [
        ("21", -1, -1),  # a word that is not highest, before a bad l or t
        ("1132", 1.5, 1),
        ("12x", -1, 1),  # a character that is no letter, before anything else
        ((1, 0, 2), -1, 1),  # a letter below 1
        ((1, 2.0), 1, 1),
        ((1, True), 1, 1),
        ("1122", -1, -1),  # a bad capacity before a bad step count
        ("1122", 1.5, 1),
        ("1122", True, 1),
        ("1122", 1, -1),
        ("1122", None, 1.0),
        ("1122", 2, False),
    ],
)
def test_solve_ivp_raises_what_the_composition_raised(word, l, t):
    raised = outcome(old_solve_ivp, word, l, t)
    assert raised[0] is ValueError
    assert outcome(solve_ivp, word, l, t) == raised


def test_choice_independence():
    # the oracle breaks ties between distinct but equal strings at random;
    # every draw must give the library's answer
    rng = random.Random(33)
    words = ["1212121212", "1122331122", "11112221322433"]
    words += rng.sample([w for w in highest_paths(8, 2)], 12)
    for word in words:
        n = max(max(int(c) for c in word) - 1, 1)
        base = kkr_phi(word, n)
        for _ in range(5):
            assert scan_phi(word, n, rng=rng) == base
            assert scan_phi_inv(base, rng=rng) == kkr_phi_inv(base) == word


def test_is_highest_matches_full_count_check():
    for rank in (1, 2, 3):
        for L in range(9):
            for letters in product(range(1, rank + 2), repeat=L):
                assert is_highest(letters, rank) == scan_is_highest(letters, rank), letters


def spy_on_buckets(monkeypatch) -> set:
    """Record where _Shape.move creates and deletes a length bucket in its
    color's lens: ("created" or "deleted", "front", "middle", "end" or "alone")."""
    seen = set()
    move = kkr._Shape.move

    def spy(shape, a, *args):
        before = list(shape.lens[a])
        move(shape, a, *args)
        after = shape.lens[a]
        for kind, old, new in (("created", before, after), ("deleted", after, before)):
            for k in set(new) - set(old):
                t = new.index(k)
                where = "alone" if len(new) == 1 else "front" if t == 0 else "end" if t == len(new) - 1 else "middle"
                seen.add((kind, where))

    monkeypatch.setattr(kkr._Shape, "move", spy)
    return seen


BUCKET_EVENTS = {(kind, where) for kind in ("created", "deleted") for where in ("front", "middle", "end")}


def with_rigging(rc, a, s, r):
    """rc with rigging r on string s of color a."""
    blocks = [list(rc.color(b)) for b in range(1, rc.rank + 1)]
    blocks[a - 1][s] = (blocks[a - 1][s][0], r)
    return RiggedConfiguration.make(rc.L, rc.rank, blocks)


def above_and_below(rc) -> bool:
    """Some length holds a rigging above its vacancy and one at or below it,
    so a singular string there is found only by the bisect fallback."""
    return any(
        max(rs) > rc.vacancy(a, j) >= min(rs)
        for a in range(1, rc.rank + 1)
        for j in {j for j, _ in rc.color(a)}
        for rs in [[r for k, r in rc.color(a) if k == j]]
    )


def test_agrees_on_every_small_word_and_lifted_configuration(monkeypatch):
    # every word up to a small length, highest or not, and every highest
    # image with one rigging lifted above its vacancy
    seen = spy_on_buckets(monkeypatch)
    seed = fallback = 0
    for rank, max_L in ((1, 8), (2, 6), (3, 5)):
        for L in range(1, max_L + 1):
            for letters in product(range(1, rank + 2), repeat=L):
                seed += 1
                rc = assert_same_phi(letters, rank, seed, check=False)
                assert_same_phi_inv(rc, seed)
                # phi leaves no rigging above its vacancy (every prefix is one
                # of these words too), so its pick loop reads top riggings only
                assert all(
                    r <= rc.vacancy(a, j) for a in range(1, rank + 1) for j, r in rc.color(a)
                ), letters
                if not is_highest(letters, rank):
                    continue
                for a in range(1, rank + 1):
                    for s, (j, _) in enumerate(rc.color(a)):
                        up = with_rigging(rc, a, s, rc.vacancy(a, j) + 1)
                        fallback += above_and_below(up)
                        assert_same_phi_inv(up, seed)
    assert fallback > 250
    assert BUCKET_EVENTS <= seen, seen


def test_agrees_on_random_lifted_configurations(monkeypatch):
    # random highest paths, or their evolved images, with several riggings
    # moved near their vacancies, most of them above
    seen = spy_on_buckets(monkeypatch)
    rng = random.Random(44)
    fallback = raised = 0
    for seed in range(300):
        rank = 1 + seed % 3
        L = rng.randint(12, 40)
        rc = kkr_phi(random_highest_word(rng, L, rank, round(0.4 * L)), rank)
        if rng.random() < 0.5:
            rc = evolve_rc(rc, rng.choice((1, 2, None)), rng.randint(1, 4))
        for _ in range(rng.randint(1, 3)):
            a = rng.randint(1, rank)
            if rc.color(a):
                s = rng.randrange(len(rc.color(a)))
                j = rc.color(a)[s][0]
                rc = with_rigging(rc, a, s, rc.vacancy(a, j) + rng.randint(-1, 3))
        fallback += above_and_below(rc)
        raised += isinstance(assert_same_phi_inv(rc, seed), tuple)
    assert fallback > 150 and 30 < raised < 270
    assert BUCKET_EVENTS <= seen, seen
