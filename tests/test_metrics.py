import functools
import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    loop_parse_trials,
    random_trials,
    sweep_eer,
    sweep_min_dcf,
    three_sort_operating_points,
)
from stride_lab import metrics
from stride_lab.metrics import (
    DegenerateScoresError,
    ScoreFileError,
    TrialScoreSet,
    compute_eer,
    compute_min_dcf,
    operating_points,
)


def scored(target_scores, nontarget_scores):
    """A set of the given target scores, then the given non-target scores."""
    targets = np.asarray(target_scores, dtype=float)
    nontargets = np.asarray(nontarget_scores, dtype=float)
    is_target = np.repeat([True, False], [targets.size, nontargets.size])
    return TrialScoreSet._from_arrays(np.concatenate([targets, nontargets]), is_target)


class TestTrialScoreSet:
    def test_requires_both_classes(self):
        with pytest.raises(ValueError):
            TrialScoreSet(trials=((0.5, True), (0.7, True)))

    @pytest.mark.parametrize("pairs, index", [
        ([(0.5, "nontarget"), (0.1, True)], 0),
        ([("0.5", True), (0.1, False)], 0),
        ([(0.5, True), (b"0.1", False)], 1),
        ([(0.5, True), (True, False)], 1),
        ([(0.5, True), (0.1, 0)], 1),
        ([(0.5, True), (0.1, np.float64(0.0))], 1),
        ([(0.5, True), (0.1, False, 2)], 1),
        ([(0.5, True), 0.1], 1),
    ])
    def test_pairs_are_type_strict(self, pairs, index):
        with pytest.raises(ValueError, match=rf"^trial {index}: expected \(real score, bool\)"):
            TrialScoreSet(pairs)

    def test_pairs_take_python_and_numpy_reals_and_bools(self):
        trials = TrialScoreSet([(np.float32(0.5), np.bool_(True)), (1, False),
                                (Fraction(1, 4), True), (np.int64(-2), np.False_)])
        assert trials.scores.tolist() == [0.5, 1.0, 0.25, -2.0]
        assert trials.is_target.tolist() == [True, False, True, False]

    def test_from_text_parses_labels_and_comments(self):
        text = """
        # development trials
        target 0.91
        nontarget 0.10  # easy impostor
        target 0.85
        nontarget 0.20
        """
        trials = TrialScoreSet.from_text(text)
        assert len(trials.trials) == 4
        assert sorted(trials.target_scores) == [0.85, 0.91]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("text", ["", "\n \t\n", "# header\n# no trials\n"])
    def test_no_trials_found_warns_nothing(self, text):
        with pytest.raises(ScoreFileError, match="^line 0: no trials found$"):
            TrialScoreSet.from_text(text)

    def test_from_text_reports_line_numbers(self):
        with pytest.raises(ScoreFileError) as err:
            TrialScoreSet.from_text("target 0.9\nbogus-line\n")
        assert err.value.lineno == 2

    def test_rejects_bad_label(self):
        with pytest.raises(ScoreFileError):
            TrialScoreSet.from_text("positive 0.9\nnontarget 0.1\n")

    def test_rejects_non_numeric_score(self):
        with pytest.raises(ScoreFileError):
            TrialScoreSet.from_text("target high\nnontarget 0.1\n")

    def test_first_bad_line_is_reported(self):
        # The score on line 3 fails only after the loop that checks labels,
        # yet it must win over the bad label on line 5.
        text = "target 0.9\nnontarget 0.1\ntarget 0.x\n# fine\npositive 0.3\n"
        with pytest.raises(ScoreFileError) as err:
            TrialScoreSet.from_text(text)
        assert err.value.lineno == 3
        assert str(err.value) == "line 3: unparseable score '0.x'"

    def test_score_arrays_are_fresh_copies(self):
        trials = scored([0.9, 0.8], [0.1])
        trials.target_scores[0] = -1.0
        trials.nontarget_scores[0] = 5.0
        assert list(trials.target_scores) == [0.9, 0.8]
        assert list(trials.nontarget_scores) == [0.1]

    def test_trials_is_a_read_only_view_of_python_pairs(self):
        trials = TrialScoreSet.from_text("nontarget -2\ntarget 1.5\ntarget 0.25\n")
        view = trials.trials
        assert list(view) == [(-2.0, False), (1.5, True), (0.25, True)]
        assert all(type(s) is float and type(t) is bool for s, t in view)
        assert view[1] == (1.5, True) and type(view[-1][0]) is float
        with pytest.raises(TypeError):
            view[0] = (0.0, True)
        with pytest.raises(AttributeError):
            trials.trials = ()

    def test_trials_len_builds_no_pairs(self):
        half = np.linspace(-1.0, 1.0, 50_000)
        trials = scored(half, half)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            n = len(trials.trials)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert n == 100_000
        assert peak < 4096  # a list of the pairs alone would take about 800 KB

    def test_arrays_and_operating_points_are_read_only_and_cached(self):
        trials = TrialScoreSet.from_text("target 0.9\nnontarget 0.1\ntarget 0.1\n")
        assert trials.scores.dtype == np.float64 and trials.is_target.dtype == bool
        points = operating_points(trials)
        for array in (trials.scores, trials.is_target, *points):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        again = operating_points(trials)
        assert again is points
        assert all(a is b for a, b in zip(again, points))
        with pytest.raises(AttributeError):
            trials.scores = np.zeros(3)

    def test_split_pair_fails_on_its_first_line(self):
        # Two tokens per line on average, and every even token a label:
        # only the label at the start of line 2 is missing.
        with pytest.raises(ScoreFileError) as err:
            TrialScoreSet.from_text("target 0.5 target\n0.6\n")
        assert str(err.value) == "line 1: expected 'label score', got 'target 0.5 target'"


class TestComputeEer:
    def test_perfectly_separated(self):
        trials = scored([1.0, 0.9], [0.1, 0.0])
        eer, _ = compute_eer(trials)
        assert eer == 0.0

    def test_perfectly_inverted(self):
        trials = scored([0.1, 0.0], [1.0, 0.9])
        eer, _ = compute_eer(trials)
        assert eer == 1.0

    def test_degenerate_scores_rejected(self):
        trials = scored([0.5], [0.5])
        with pytest.raises(DegenerateScoresError):
            compute_eer(trials)

    def test_matches_sweep_oracle_on_random_sets(self):
        rng = np.random.default_rng(101)
        for _ in range(200):
            scores, labels = random_trials(rng)
            trials = TrialScoreSet(trials=tuple(zip(scores, labels)))
            eer, thr = compute_eer(trials)
            ref_eer, ref_thr = sweep_eer(scores, labels)
            assert eer == pytest.approx(ref_eer, abs=1e-9)
            assert thr == pytest.approx(ref_thr, abs=1e-9)

    def test_half_for_interleaved(self):
        # Same score multiset in both classes: chance behavior.
        trials = scored([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        eer, _ = compute_eer(trials)
        assert 0.0 < eer <= 1.0


class TestComputeMinDcf:
    def test_perfectly_separated_is_zero(self):
        trials = scored([1.0, 0.9], [0.1, 0.0])
        dcf, _ = compute_min_dcf(trials)
        assert dcf == 0.0

    def test_zero_discrimination_is_one(self):
        # Identical score distributions: rejecting everything is optimal.
        scores = [0.1, 0.4, 0.7, 0.9]
        trials = scored(scores, scores)
        dcf, _ = compute_min_dcf(trials, p_target=0.01)
        assert dcf == pytest.approx(1.0, abs=1e-12)

    def test_matches_sweep_oracle_on_random_sets(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            scores, labels = random_trials(rng)
            trials = TrialScoreSet(trials=tuple(zip(scores, labels)))
            dcf, thr = compute_min_dcf(trials)
            ref_dcf, ref_thr = sweep_min_dcf(scores, labels)
            assert dcf == pytest.approx(ref_dcf, abs=1e-9)
            assert thr == pytest.approx(ref_thr, abs=1e-9)

    def test_validates_parameters(self):
        trials = scored([1.0], [0.0])
        with pytest.raises(ValueError):
            compute_min_dcf(trials, p_target=0.0)
        with pytest.raises(ValueError):
            compute_min_dcf(trials, c_fa=0.0)

    @pytest.mark.parametrize(
        "c_fa, c_miss",
        [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)],
    )
    def test_rejects_non_finite_costs(self, c_fa, c_miss):
        trials = scored([1.0], [0.0])
        with pytest.raises(ValueError, match="finite and positive"):
            compute_min_dcf(trials, c_fa=c_fa, c_miss=c_miss)

    def test_degenerate_scores_rejected(self):
        trials = scored([0.5, 0.5], [0.5])
        with pytest.raises(DegenerateScoresError):
            compute_min_dcf(trials)


@st.composite
def trial_sets(draw):
    n_target = draw(st.integers(1, 25))
    n_nontarget = draw(st.integers(1, 25))
    finite = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)
    targets = draw(st.lists(finite, min_size=n_target, max_size=n_target))
    nontargets = draw(st.lists(finite, min_size=n_nontarget, max_size=n_nontarget))
    if len(set(targets + nontargets)) < 2:
        nontargets[0] = nontargets[0] + 1.0
    return targets, nontargets


class TestMonotoneInvariance:
    @given(data=trial_sets(), which=st.integers(0, 2))
    @settings(max_examples=150, deadline=None)
    def test_eer_and_dcf_invariant(self, data, which):
        targets, nontargets = data
        transform = [
            lambda v: 2.0 * v + 3.0,
            lambda v: math.atan(v),
            lambda v: v ** 3 + 0.25 * v,
        ][which]
        # Strict monotonicity must survive float rounding on the realized
        # score values, otherwise the transform merges operating points.
        ordered = sorted(set(targets) | set(nontargets))
        mapped_values = [transform(v) for v in ordered]
        assume(all(b > a for a, b in zip(mapped_values, mapped_values[1:])))
        base = scored(targets, nontargets)
        mapped = scored(
            [transform(v) for v in targets], [transform(v) for v in nontargets]
        )
        eer_a, _ = compute_eer(base)
        eer_b, _ = compute_eer(mapped)
        assert eer_a == pytest.approx(eer_b, abs=1e-12)
        dcf_a, _ = compute_min_dcf(base)
        dcf_b, _ = compute_min_dcf(mapped)
        assert dcf_a == pytest.approx(dcf_b, abs=1e-12)


# Score-file fragments: valid lines, label/score pairs that may be
# mis-cased, bogus or unusual to float(), and lone tokens (comments, blanks,
# labels or scores without their partner).
_LABEL_TOKENS = ("target", "nontarget", "Target", "NONTARGET", "positive")
_SCORE_TOKENS = (
    "0.5", "-1.25", "7", "nan", "-inf", "inf", "1e400", "1_0", "0x10", "\u0663", "high",
)
_OTHER_TOKENS = (
    "#", "# note", "", "target 0.5 extra", "target 0.5 # note",
    # Indented lines, whitespace-only lines, and a pair split across two
    # lines with a label where the break should be.
    "  target 0.5", "\t nontarget -1", " \t ", "target 0.5 target\n0.6",
    # A NUL that numpy's string fields would drop, and a comment ended by a
    # lone carriage return, which numpy's comment runs past.
    "target\x00 0.5", "target 0.5 # note\r",
)
# Line breaks for str.splitlines (all but \u2028 and \u2029 are also
# whitespace to str.split). A noise fragment may also end in a plain space,
# which joins it to the next fragment on one line.
_LINE_BREAKS = (
    "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
)
# A quarter of valid lines end in a comment, which must keep a text that
# is otherwise as a scorer writes it off the split as it stands.
_valid_lines = st.builds(
    "{} {}{}".format,
    st.sampled_from(("target", "nontarget")),
    st.one_of(
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.floats(-10, 10).map("{:.3f}".format),
    ),
    st.sampled_from(("", "", "", " # note")),
)
_noise = st.one_of(
    st.builds("{} {}".format, st.sampled_from(_LABEL_TOKENS), st.sampled_from(_SCORE_TOKENS)),
    st.sampled_from(_LABEL_TOKENS + _SCORE_TOKENS + _OTHER_TOKENS),
)


@st.composite
def score_texts(draw):
    """Valid lines with up to three noise fragments spliced in. About half
    the texts break lines with newlines alone, as a scorer writes them, so
    that they reach the parser's split of a text as it stands."""
    breaks = draw(st.one_of(st.just(("\n",)), st.just(_LINE_BREAKS)))
    parts = draw(st.lists(st.tuples(_valid_lines, st.sampled_from(breaks)), max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(parts)))
        parts.insert(at, (draw(_noise), draw(st.sampled_from(breaks + (" ",)))))
    return "".join(fragment + sep for fragment, sep in parts)


def _parse_outcome(parse):
    """(result, None) on success, else (None, (type, lineno, message))."""
    try:
        return parse(), None
    except ValueError as exc:
        return None, (type(exc), getattr(exc, "lineno", None), str(exc))


def _exact(trials):
    """Trials with float bits and types made explicit (-0.0 != 0.0, 1 != True)."""
    return [(s.hex(), type(s), t, type(t)) for s, t in trials]


class TestParserDifferential:
    # A comment after a pair in a text that is otherwise as a scorer writes
    # it: the strategy draws one only when every separator is "\n".
    @example(text="target 0.5 # note\nnontarget 0.1\n")
    @given(text=score_texts())
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_parser(self, text):
        want, want_error = _parse_outcome(lambda: TrialScoreSet(trials=loop_parse_trials(text)))
        got, got_error = _parse_outcome(lambda: TrialScoreSet.from_text(text))
        assert got_error == want_error
        if got_error is not None:
            return
        assert _exact(got.trials) == _exact(want.trials)
        np.testing.assert_array_equal(got.target_scores, [s for s, t in want.trials if t])
        np.testing.assert_array_equal(got.nontarget_scores, [s for s, t in want.trials if not t])


@functools.cache
def _canonical_text(n=37_720):
    """A VoxCeleb1-O-sized score file as a scorer writes it: ``label score``
    and a newline per trial, nothing else."""
    rng = np.random.default_rng(20231206)
    half = n // 2
    scores = np.concatenate([rng.normal(2.0, 1.0, half), rng.normal(0.0, 1.0, half)])
    labels = ["target"] * half + ["nontarget"] * half
    return "".join(f"{labels[i]} {scores[i]:.4f}\n" for i in rng.permutation(2 * half))


def _mid_file(text, new):
    """``text`` with the newline nearest past its middle replaced by ``new``."""
    mid = text.index("\n", len(text) // 2)
    return text[:mid] + new + text[mid + 1:]


# Each edit of the canonical file: the parse must not depend on whether the
# text is split as it stands or line by line.
_CANONICAL_EDITS = {
    "canonical": lambda t: t,
    "crlf": lambda t: t.replace("\n", "\r\n"),
    **{f"break-{ord(b):#x}-mid-file": (lambda t, b=b: _mid_file(t, b))
       for b in _LINE_BREAKS if b != "\r\n"},
    "leading-space": lambda t: " " + t,
    "blank-line": lambda t: _mid_file(t, "\n\n"),
    "whitespace-only-last-line": lambda t: t + " \t",
    "comment-line": lambda t: _mid_file(t, "\n# second half\n"),
    "trailing-comment": lambda t: _mid_file(t, "  # easy impostor\n"),
    "no-final-newline": lambda t: t[:-1],
    "empty": lambda t: "",
    "nbsp-between-fields": lambda t: t.replace(" ", "\xa0", 1),
    "extra-field-mid-file": lambda t: _mid_file(t, " 1\n"),
    "bad-score-mid-file": lambda t: _mid_file(t, "\ntarget 0.x\n"),
    "nul-after-label": lambda t: _mid_file(t, "\ntarget\x00 0.5\n"),
    "comment-then-lone-cr": lambda t: _mid_file(t, " # note\r"),
    "long-label": lambda t: _mid_file(t, "\nnontargetxx 0.5\n"),
    "underscore-score": lambda t: _mid_file(t, "\ntarget 1_0\n"),
    "tabs-between-fields": lambda t: t.replace(" ", "\t"),
    "unit-separator-between-fields": lambda t: t.replace(" ", "\x1f"),
    "comment-only": lambda t: "# header\n# no trials\n",
    "overflowing-score-mid-file": lambda t: _mid_file(t, "\ntarget 1e400\n"),
}


class TestCanonicalFiles:
    @pytest.mark.parametrize("edit", _CANONICAL_EDITS.values(), ids=_CANONICAL_EDITS)
    def test_matches_loop_parser(self, edit):
        text = edit(_canonical_text())
        want, want_error = _parse_outcome(lambda: loop_parse_trials(text))
        got, got_error = _parse_outcome(lambda: TrialScoreSet.from_text(text))
        assert got_error == want_error
        if got_error is not None:
            return
        assert got.scores.tobytes() == np.array([s for s, _ in want]).tobytes()
        assert got.is_target.tolist() == [t for _, t in want]


@st.composite
def tied_trial_sets(draw):
    """Target and non-target score lists with heavy ties: scores rounded to
    0-2 decimals (so -0.0 next to 0.0), down to one trial per class, and
    sometimes every trial tied but one."""
    n_target = draw(st.integers(1, 30))
    n_nontarget = draw(st.integers(1, 30))
    decimals = draw(st.integers(0, 2))
    value = st.floats(-3, 3).map(lambda v: round(v, decimals))
    n = n_target + n_nontarget
    if draw(st.booleans()):
        scores = [draw(value)] * n
        scores[draw(st.integers(0, n - 1))] = draw(value)
    else:
        scores = draw(st.lists(value, min_size=n, max_size=n))
    return scores[:n_target], scores[n_target:]


class TestOneSortOperatingPoints:
    @given(data=tied_trial_sets())
    @settings(max_examples=300, deadline=None)
    def test_equals_three_sort_reference(self, data):
        targets, nontargets = data
        trials = scored(targets, nontargets)
        reference = scored(targets, nontargets)
        try:
            want_points = three_sort_operating_points(reference)
        except DegenerateScoresError:
            with pytest.raises(DegenerateScoresError):
                operating_points(trials)
            return
        with mock.patch.object(metrics, "operating_points", three_sort_operating_points):
            want = (compute_eer(reference), compute_min_dcf(reference),
                    compute_min_dcf(reference, p_target=0.3, c_fa=2.0, c_miss=0.5))
        got = (compute_eer(trials), compute_min_dcf(trials),
               compute_min_dcf(trials, p_target=0.3, c_fa=2.0, c_miss=0.5))
        assert got == want
        for got_array, want_array in zip(operating_points(trials), want_points):
            assert got_array.tolist() == want_array.tolist()
