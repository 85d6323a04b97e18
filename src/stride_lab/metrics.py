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

A score file is parsed in one pass: each line is split and its field count
and label checked, then all scores are converted and checked for finiteness
together. When any line is bad, the ``ScoreFileError`` names the first bad
line and its number; a line is checked for field count, label, score syntax
and finiteness, in that order. A ``TrialScoreSet`` builds its score and
label arrays once; EER and minDCF read those cached arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class TrialScoreSet:
    """Labeled similarity scores; at least one target and one non-target.

    Equality and hashing use ``trials`` only; the score and label arrays
    the metrics read are built once, at construction.
    """

    trials: tuple[tuple[float, bool], ...]
    _scores: np.ndarray = field(init=False, repr=False, compare=False)
    _is_target: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.trials)
        is_target = np.fromiter(map(itemgetter(1), self.trials), dtype=bool, count=n)
        targets = int(np.count_nonzero(is_target))
        nontargets = n - targets
        if targets < 1 or nontargets < 1:
            raise ValueError(
                f"need at least one target and one non-target trial "
                f"(got {targets} / {nontargets})"
            )
        scores = np.fromiter(map(itemgetter(0), self.trials), dtype=float, count=n)
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        scores.flags.writeable = False
        is_target.flags.writeable = False
        object.__setattr__(self, "_scores", scores)
        object.__setattr__(self, "_is_target", is_target)

    @classmethod
    def from_scores(cls, target_scores, nontarget_scores) -> "TrialScoreSet":
        trials = [(float(s), True) for s in target_scores]
        trials += [(float(s), False) for s in nontarget_scores]
        return cls(trials=tuple(trials))

    @classmethod
    def from_text(cls, text: str) -> "TrialScoreSet":
        """Parse ``label score`` lines; ``#`` starts a comment.

        One pass splits the lines and checks field counts and labels; the
        score strings are then converted and checked for finiteness all at
        once. On any bad line the text is scanned again to raise the
        ``ScoreFileError`` of the first one.
        """
        labels = []
        scores = []
        for raw in text.splitlines():
            fields = raw.split("#", 1)[0].split()
            if not fields:
                continue
            if len(fields) != 2 or fields[0] not in _LABELS:
                _raise_first_bad_line(text)
            labels.append(fields[0] == "target")
            scores.append(fields[1])
        try:
            values = list(map(float, scores))
        except ValueError:
            _raise_first_bad_line(text)
        del scores
        if not np.isfinite(values).all():
            _raise_first_bad_line(text)
        if not values:
            raise ScoreFileError(0, "no trials found")
        return cls(trials=tuple(zip(values, labels)))

    @classmethod
    def from_file(cls, path: str | Path) -> "TrialScoreSet":
        return cls.from_text(Path(path).read_text())

    @property
    def target_scores(self) -> np.ndarray:
        return self._scores[self._is_target]

    @property
    def nontarget_scores(self) -> np.ndarray:
        return self._scores[~self._is_target]


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
    """(thresholds, false-accept rates, false-reject rates).

    One point per unique score (accept iff score >= threshold) plus a final
    reject-everything point. Raises when no threshold can change a decision.
    """
    targets = np.sort(trials.target_scores)
    nontargets = np.sort(trials.nontarget_scores)
    unique = np.unique(np.concatenate([targets, nontargets]))
    if unique.size < 2:
        raise DegenerateScoresError("all trial scores are identical")
    # Reject-everything surrogate threshold: reported as the max score.
    thresholds = np.concatenate([unique, unique[-1:]])
    frr = np.empty(unique.size + 1)
    far = np.empty(unique.size + 1)
    frr[:-1] = np.searchsorted(targets, unique, side="left") / targets.size
    far[:-1] = 1.0 - np.searchsorted(nontargets, unique, side="left") / nontargets.size
    frr[-1] = 1.0
    far[-1] = 0.0
    return thresholds, far, frr


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
