"""Detection metrics over labeled trial scores: EER and minimum DCF.

A trial is accepted when its score is greater than or equal to the decision
threshold. Every achievable operating point corresponds to a threshold at
one of the unique score values (plus the reject-everything point), so both
metrics sweep exactly that candidate set:

* EER interpolates linearly between the two adjacent operating points where
  the false-accept and false-reject rates cross;
* minDCF is the minimum of the normalized detection cost over the candidate
  thresholds, since the cost is piecewise constant between them.

Both metrics depend only on the ordering of scores, so they are invariant
under any strictly increasing transform of all scores.

A ``TrialScoreSet`` stores two read-only arrays, ``scores`` (float64) and
``is_target`` (bool). Its ``trials`` is a read-only sequence view of
``(float, bool)`` pairs over them, so no pair is built unless one is read.
``operating_points`` sorts a set once and caches its read-only result on
the set, so EER and minDCF of one set share one sweep.

A score file is parsed without an object per line: the comment-stripped,
non-blank lines are joined and split into tokens once, and the structure
is checked by counts (two tokens per line, a label at the start of every
line, a label at every even token). When any check fails, the text is
scanned line by line and the ``ScoreFileError`` names the first bad line
and its number; a line is checked for field count, label, score syntax
and finiteness, in that order.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from operator import itemgetter
from pathlib import Path
from typing import NoReturn

import numpy as np

__all__ = [
    "DegenerateScoresError",
    "ScoreFileError",
    "TrialScoreSet",
    "compute_eer",
    "compute_min_dcf",
    "operating_points",
]


class DegenerateScoresError(ValueError):
    """All scores identical: no threshold separates anything."""


class ScoreFileError(ValueError):
    """A trial-score file line could not be parsed."""

    def __init__(self, lineno: int, message: str):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


_LABELS = ("target", "nontarget")


class _TrialPairs(Sequence):
    """Read-only ``(score, is_target)`` pairs over a set's two arrays.

    ``len`` is O(1); items are Python ``(float, bool)`` pairs, built as they
    are read. Compares, hashes and prints as the tuple of its pairs.
    """

    __slots__ = ("_scores", "_is_target")

    def __init__(self, scores: np.ndarray, is_target: np.ndarray):
        self._scores = scores
        self._is_target = is_target

    def __len__(self) -> int:
        return self._scores.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(zip(self._scores[index].tolist(), self._is_target[index].tolist()))
        return float(self._scores[index]), bool(self._is_target[index])

    def __iter__(self):
        return zip(self._scores.tolist(), self._is_target.tolist())

    def __eq__(self, other):
        if isinstance(other, (tuple, _TrialPairs)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


class TrialScoreSet:
    """Labeled similarity scores; at least one target and one non-target.

    Built from ``(score, is_target)`` pairs, from two score lists, or from a
    score file. Holds only the read-only ``scores`` and ``is_target`` arrays
    (plus the cached operating points). Equality, hashing and ``repr`` go by
    the trial sequence, as for a tuple of pairs: ``-0.0`` equals ``0.0``.
    """

    __slots__ = ("scores", "is_target", "_points")

    def __init__(self, trials: Iterable[tuple[float, bool]]):
        pairs = tuple(trials)
        self._set(np.fromiter(map(itemgetter(0), pairs), dtype=float, count=len(pairs)),
                  np.fromiter(map(itemgetter(1), pairs), dtype=bool, count=len(pairs)))

    def _set(self, scores: np.ndarray, is_target: np.ndarray) -> None:
        """Check and freeze two arrays this set now owns."""
        targets = int(np.count_nonzero(is_target))
        nontargets = is_target.size - targets
        if targets < 1 or nontargets < 1:
            raise ValueError(
                f"need at least one target and one non-target trial "
                f"(got {targets} / {nontargets})"
            )
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        scores.flags.writeable = False
        is_target.flags.writeable = False
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "is_target", is_target)
        object.__setattr__(self, "_points", None)

    @classmethod
    def _from_arrays(cls, scores: np.ndarray, is_target: np.ndarray) -> "TrialScoreSet":
        trials = cls.__new__(cls)
        trials._set(scores, is_target)
        return trials

    def __setattr__(self, name, value):
        raise AttributeError(f"TrialScoreSet is immutable; cannot set {name!r}")

    @property
    def trials(self) -> _TrialPairs:
        return _TrialPairs(self.scores, self.is_target)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return bool(np.array_equal(self.scores, other.scores)
                    and np.array_equal(self.is_target, other.is_target))

    def __hash__(self) -> int:
        # Adding 0.0 maps -0.0 to 0.0, so equal sets hash equal.
        return hash(((self.scores + 0.0).tobytes(), self.is_target.tobytes()))

    def __repr__(self) -> str:
        return f"TrialScoreSet(trials={self.trials!r})"

    @classmethod
    def from_scores(cls, target_scores, nontarget_scores) -> "TrialScoreSet":
        targets = np.fromiter(map(float, target_scores), dtype=float)
        nontargets = np.fromiter(map(float, nontarget_scores), dtype=float)
        is_target = np.repeat([True, False], [targets.size, nontargets.size])
        return cls._from_arrays(np.concatenate([targets, nontargets]), is_target)

    @classmethod
    def from_text(cls, text: str) -> "TrialScoreSet":
        """Parse ``label score`` lines; ``#`` starts a comment.

        The non-blank lines, comments stripped and left-stripped, are joined
        and split once. Each line then holds exactly ``label score`` if and
        only if: there are two tokens per line, every line starts with a
        label, every even token is a label and every odd token a float (no
        float starts like a label, so a label at the start of a line sits at
        an even token, and every line but the last has an even token count).
        On any failure the text is scanned again to raise the
        ``ScoreFileError`` of the first bad line.
        """
        lines = text.splitlines()
        if "#" in text:
            lines = [line.split("#", 1)[0] if "#" in line else line for line in lines]
        lines = [line for line in map(str.lstrip, lines) if line]
        n = len(lines)
        joined = "\n".join(lines)
        del lines
        starts = (joined.startswith(_LABELS) + joined.count("\ntarget")
                  + joined.count("\nnontarget"))
        tokens = joined.split()
        del joined
        if starts != n or len(tokens) != 2 * n:
            _raise_first_bad_line(text)
        labels = tokens[0::2]
        values = tokens[1::2]
        del tokens
        if not set(labels).issubset(_LABELS):
            _raise_first_bad_line(text)
        # Only the two labels are left, and "target" is the shorter one.
        is_target = np.fromiter(map(len, labels), dtype=np.int8, count=n) == len("target")
        del labels
        try:
            scores = np.fromiter(map(float, values), dtype=float, count=n)
        except ValueError:
            _raise_first_bad_line(text)
        if not np.isfinite(scores).all():
            _raise_first_bad_line(text)
        if not n:
            raise ScoreFileError(0, "no trials found")
        return cls._from_arrays(scores, is_target)

    @classmethod
    def from_file(cls, path: str | Path) -> "TrialScoreSet":
        return cls.from_text(Path(path).read_text())

    @property
    def target_scores(self) -> np.ndarray:
        return self.scores[self.is_target]

    @property
    def nontarget_scores(self) -> np.ndarray:
        return self.scores[~self.is_target]


def _raise_first_bad_line(text: str) -> NoReturn:
    """Raise the ``ScoreFileError`` for the first bad line of ``text``.

    Checks each line in order: field count, label, score syntax, finiteness.
    Called only once ``from_text`` has seen that some line is bad.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2:
            raise ScoreFileError(lineno, f"expected 'label score', got {raw.strip()!r}")
        label, score_text = fields
        if label not in _LABELS:
            raise ScoreFileError(lineno, f"label must be target or nontarget, got {label!r}")
        try:
            score = float(score_text)
        except ValueError:
            raise ScoreFileError(lineno, f"unparseable score {score_text!r}") from None
        if not math.isfinite(score):
            raise ScoreFileError(lineno, f"score must be finite, got {score_text}")
    raise AssertionError("no bad line found in a score text that failed to parse")


def operating_points(trials: TrialScoreSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(thresholds, false-accept rates, false-reject rates), read-only.

    One point per unique score (accept iff score >= threshold) plus a final
    reject-everything point. Computed from one sort on the first call and
    cached on ``trials``; later calls return the same arrays. Raises when no
    threshold can change a decision.
    """
    if trials._points is not None:
        return trials._points
    order = np.argsort(trials.scores)
    ranked = trials.scores[order]
    is_target = trials.is_target[order]
    # Index of the first trial at each unique score: every trial before it
    # scores lower, so is rejected at that threshold.
    first = np.flatnonzero(np.concatenate([[True], ranked[1:] != ranked[:-1]]))
    if first.size < 2:
        raise DegenerateScoresError("all trial scores are identical")
    targets_below = (np.cumsum(is_target) - is_target)[first]
    n_target = int(np.count_nonzero(is_target))
    unique = ranked[first]
    # Reject-everything surrogate threshold: reported as the max score.
    thresholds = np.concatenate([unique, unique[-1:]])
    frr = np.empty(first.size + 1)
    far = np.empty(first.size + 1)
    frr[:-1] = targets_below / n_target
    far[:-1] = 1.0 - (first - targets_below) / (is_target.size - n_target)
    frr[-1] = 1.0
    far[-1] = 0.0
    for array in (thresholds, far, frr):
        array.flags.writeable = False
    points = thresholds, far, frr
    object.__setattr__(trials, "_points", points)
    return points


def compute_eer(trials: TrialScoreSet) -> tuple[float, float]:
    """(equal error rate as a fraction, threshold where it occurs)."""
    thresholds, far, frr = operating_points(trials)
    diff = far - frr
    cross = int(np.argmax(diff <= 0))
    if cross == 0:
        return float(frr[0]), float(thresholds[0])
    d_prev, d_next = diff[cross - 1], diff[cross]
    t = d_prev / (d_prev - d_next)
    eer = frr[cross - 1] + t * (frr[cross] - frr[cross - 1])
    threshold = thresholds[cross - 1] + t * (thresholds[cross] - thresholds[cross - 1])
    return float(eer), float(threshold)


def compute_min_dcf(
    trials: TrialScoreSet,
    p_target: float = 0.01,
    c_fa: float = 1.0,
    c_miss: float = 1.0,
) -> tuple[float, float]:
    """(minimum normalized detection cost, threshold attaining it)."""
    if not 0.0 < p_target < 1.0:
        raise ValueError(f"p_target must lie in (0, 1), got {p_target}")
    if not all(math.isfinite(c) and c > 0 for c in (c_fa, c_miss)):
        raise ValueError(f"costs must be finite and positive, got c_fa={c_fa}, c_miss={c_miss}")
    thresholds, far, frr = operating_points(trials)
    costs = c_miss * frr * p_target + c_fa * far * (1.0 - p_target)
    floor = min(c_miss * p_target, c_fa * (1.0 - p_target))
    normalized = costs / floor
    best = int(np.argmin(normalized))
    return float(normalized[best]), float(thresholds[best])
