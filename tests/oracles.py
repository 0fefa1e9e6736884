"""Independent brute-force reference implementations used only by tests.

These are written from the signal definitions, deliberately in a
different style from the package code (explicit loops, no shared
helpers), so they can serve as oracles.
"""

from __future__ import annotations

import json
import math
import re
import unicodedata
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import blake2b
from pathlib import Path

import numpy as np

from qselect.corpus import _synth_text, apportion, check_encodable, numbered_lines
from qselect.errors import MatrixError, ValidationError, is_finite_number
from qselect.importance import HashedBagModel, fit_bag_model, hash_corpus, importance_scores
from qselect.matrix import (
    ScoreMatrix,
    _file_sha256,
    impute_missing,
    rank_normalize,
    store_path,
)
from qselect.registry import PRRC_NAMES, SIGNAL_NAMES, canonical_order
from qselect.selection import WeightVector
from qselect.signals import compute_signals
from qselect.tokens import tokenize


def ref_words(text):
    return unicodedata.normalize("NFC", text).lower().split()


def ref_frac_no_alph_words(text):
    words = ref_words(text)
    if len(words) == 0:
        return 0.0
    bad = 0
    for w in words:
        has_alpha = False
        for ch in w:
            if ch.isalpha():
                has_alpha = True
                break
        if not has_alpha:
            bad += 1
    return bad / len(words)


def ref_mean_word_length(text):
    words = ref_words(text)
    if not words:
        return 0.0
    total = 0
    for w in words:
        total += len(w)
    return total / len(words)


def ref_frac_unique_words(text):
    words = ref_words(text)
    if not words:
        return 0.0
    distinct = set()
    for w in words:
        distinct.add(w)
    return len(distinct) / len(words)


def ref_unigram_entropy(text):
    words = ref_words(text)
    if not words:
        return 0.0
    tally: dict[str, int] = {}
    for w in words:
        tally[w] = tally.get(w, 0) + 1
    total = len(words)
    terms = []
    for count in tally.values():
        x = count / total
        terms.append(-x * math.log(x))
    return math.fsum(terms)


def ref_word_count(text):
    return len(ref_words(text))


def ref_terminal_punct_fraction(text):
    if text == "":
        return 0.0
    lines = text.split("\n")
    hits = 0
    for line in lines:
        if len(line) > 0 and line[-1] in '.!?"':
            hits += 1
    return hits / len(lines)


def ref_numerical_chars_fraction(text):
    if text == "":
        return 0.0
    lines = text.split("\n")
    ratios = []
    for line in lines:
        norm = unicodedata.normalize("NFC", line).lower()
        if len(norm) == 0:
            ratios.append(0.0)
            continue
        digits = 0
        for ch in norm:
            if ch.isdigit():
                digits += 1
        ratios.append(digits / len(norm))
    return math.fsum(ratios) / len(lines)


def ref_uppercase_fraction(text):
    if text == "":
        return 0.0
    lines = text.split("\n")
    ratios = []
    for line in lines:
        if len(line) == 0:
            ratios.append(0.0)
            continue
        upper = 0
        for ch in line:
            if ch.isupper():
                upper += 1
        ratios.append(upper / len(line))
    return math.fsum(ratios) / len(lines)


def ref_num_sentences(text):
    return len(re.findall(r"\b[^.!?]+[.!?]*", text))


def ref_top_ngram_fraction(text, n):
    words = ref_words(text)
    if len(words) < n:
        return 0.0
    total_chars = 0
    for w in words:
        total_chars += len(w)
    if total_chars == 0:
        return 0.0
    grams = []
    for i in range(len(words) - n + 1):
        grams.append(tuple(words[i : i + n]))
    distinct = []
    for g in grams:
        if g not in distinct:
            distinct.append(g)
    best_count = 0
    best = None
    for g in distinct:
        count = 0
        for h in grams:
            if h == g:
                count += 1
        if count > best_count:
            best_count = count
            best = g
    gram_chars = 0
    for w in best:
        gram_chars += len(w)
    frac = best_count * gram_chars / total_chars
    if frac > 1.0:
        frac = 1.0
    return frac


def ref_all_signals(text):
    return {
        "doc_frac_no_alph_words": ref_frac_no_alph_words(text),
        "doc_mean_word_length": ref_mean_word_length(text),
        "doc_frac_unique_words": ref_frac_unique_words(text),
        "doc_unigram_entropy": ref_unigram_entropy(text),
        "doc_word_count": float(ref_word_count(text)),
        "lines_ending_with_terminal_punctution_mark": ref_terminal_punct_fraction(text),
        "lines_numerical_chars_fraction": ref_numerical_chars_fraction(text),
        "lines_uppercase_letter_fraction": ref_uppercase_fraction(text),
        "doc_num_sentences": float(ref_num_sentences(text)),
        "doc_frac_chars_top_2gram": ref_top_ngram_fraction(text, 2),
        "doc_frac_chars_top_3gram": ref_top_ngram_fraction(text, 3),
    }


def ref_unhashed_log_ratio(text, p_texts, q_texts, smoothing, vocab_size):
    """Exact (no hashing) {1,2}-gram log ratio with additive smoothing over
    ``vocab_size`` cells, mirroring a collision-free hashed model."""

    def grams(t):
        words = ref_words(t)
        out = list(words)
        for i in range(len(words) - 1):
            out.append((words[i], words[i + 1]))
        return out

    def counts(texts):
        tally: dict[object, int] = {}
        for t in texts:
            for g in grams(t):
                tally[g] = tally.get(g, 0) + 1
        return tally

    p_counts = counts(p_texts)
    q_counts = counts(q_texts)
    p_total = sum(p_counts.values())
    q_total = sum(q_counts.values())
    p_denom = p_total + smoothing * vocab_size
    q_denom = q_total + smoothing * vocab_size
    score = 0.0
    for g in grams(text):
        p_prob = (p_counts.get(g, 0) + smoothing) / p_denom
        q_prob = (q_counts.get(g, 0) + smoothing) / q_denom
        score += math.log(p_prob) - math.log(q_prob)
    return score


# --- Annotation kernels: per-feature hashing and per-word signal loops ---
#
# These are the bag-model fit, importance score and word, line and n-gram
# signals that ``qselect.importance`` and ``qselect.signals`` used before
# each corpus was hashed in one pass and the signals counted with C-level
# builtins. The package must give the same counts and the same float bits.


def ref_hash_bucket(feature, seed, bucket_count):
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = blake2b(feature.encode("utf-8"), digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little") % bucket_count


def ref_features(text):
    words = ref_words(text)
    feats = list(words)
    feats.extend(words[i] + "\x1f" + words[i + 1] for i in range(len(words) - 1))
    return feats


def ref_fit_bag_model(texts, bucket_count, seed, smoothing=1.0):
    """Bag model counted one feature at a time (an empty corpus raises)."""
    counts = np.zeros(bucket_count, dtype=np.int64)
    bucket_cache = {}
    n_docs = 0
    for text in texts:
        n_docs += 1
        for feat in ref_features(text):
            bucket = bucket_cache.get(feat)
            if bucket is None:
                bucket = ref_hash_bucket(feat, seed, bucket_count)
                if len(bucket_cache) < 1_000_000:
                    bucket_cache[feat] = bucket
            counts[bucket] += 1
    if n_docs == 0:
        raise ValidationError("cannot fit a bag model on an empty corpus")
    total = int(counts.sum())
    return HashedBagModel(np.log((counts + smoothing) / (total + smoothing * bucket_count)), seed)


def ref_importance_score(text, p, q):
    feats = ref_features(text)
    if not feats:
        return 0.0
    buckets = np.fromiter(
        (ref_hash_bucket(f, p.seed, len(p.log_probs)) for f in feats),
        dtype=np.int64,
        count=len(feats),
    )
    delta = p.log_probs[buckets] - q.log_probs[buckets]
    return float(delta.sum())


def ref_word_signals(text):
    words = ref_words(text)
    n = len(words)
    if n == 0:
        return {
            "doc_frac_no_alph_words": 0.0,
            "doc_mean_word_length": 0.0,
            "doc_frac_unique_words": 0.0,
            "doc_unigram_entropy": 0.0,
            "doc_word_count": 0.0,
        }
    no_alph = sum(1 for w in words if not any(c.isalpha() for c in w))
    total_chars = sum(len(w) for w in words)
    counts = Counter(words)
    entropy = -math.fsum((c / n) * math.log(c / n) for c in counts.values())
    return {
        "doc_frac_no_alph_words": no_alph / n,
        "doc_mean_word_length": total_chars / n,
        "doc_frac_unique_words": len(counts) / n,
        "doc_unigram_entropy": entropy,
        "doc_word_count": float(n),
    }


def _ref_line_ratio(line, predicate):
    if not line:
        return 0.0
    return sum(1 for c in line if predicate(c)) / len(line)


def ref_line_signals(text):
    lines = text.split("\n") if text else []
    if not lines:
        return {
            "lines_ending_with_terminal_punctution_mark": 0.0,
            "lines_numerical_chars_fraction": 0.0,
            "lines_uppercase_letter_fraction": 0.0,
        }
    n = len(lines)
    terminal = sum(1 for line in lines if line.endswith((".", "!", "?", '"'))) / n
    numerical = (
        math.fsum(
            _ref_line_ratio(unicodedata.normalize("NFC", line).lower(), str.isdigit)
            for line in lines
        )
        / n
    )
    uppercase = math.fsum(_ref_line_ratio(line, str.isupper) for line in lines) / n
    return {
        "lines_ending_with_terminal_punctution_mark": terminal,
        "lines_numerical_chars_fraction": numerical,
        "lines_uppercase_letter_fraction": uppercase,
    }


def ref_top_ngram_fraction_of_words(words, n):
    """Top n-gram character fraction of a word list, by a dict tally."""
    if len(words) < n:
        return 0.0
    total_chars = sum(len(w) for w in words)
    if total_chars == 0:
        return 0.0
    counts = {}
    for i in range(len(words) - n + 1):
        gram = tuple(words[i : i + n])
        counts[gram] = counts.get(gram, 0) + 1
    best_gram, best_count = None, 0
    for gram, count in counts.items():
        if count > best_count:
            best_gram, best_count = gram, count
    assert best_gram is not None
    gram_chars = sum(len(w) for w in best_gram)
    return min(1.0, best_count * gram_chars / total_chars)


def ref_rank_unit(column):
    """Average-tie ranks scaled to [0, 1], by explicit comparison counting."""
    n = len(column)
    if n == 1:
        return [0.5]
    out = []
    for x in column:
        less = 0
        equal = 0
        for yv in column:
            if yv < x:
                less += 1
            elif yv == x:
                equal += 1
        rank = less + (equal + 1) / 2  # average rank, 1-based
        out.append((rank - 1) / (n - 1))
    return out


def ref_pearson(xs, ys):
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (yv - my) for x, yv in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((yv - my) ** 2 for yv in ys)
    if vx == 0 or vy == 0:
        return float("nan")
    return cov / math.sqrt(vx * vy)


def ref_spearman(xs, ys):
    def avg_ranks(vals):
        out = []
        for x in vals:
            less = 0
            equal = 0
            for yv in vals:
                if yv < x:
                    less += 1
                elif yv == x:
                    equal += 1
            out.append(less + (equal + 1) / 2)
        return out

    return ref_pearson(avg_ranks(xs), avg_ranks(ys))


def ref_dot(values, weights):
    """Exact dot product via rationals, returned as float."""
    acc = Fraction(0)
    for v, w in zip(values, weights):
        acc += Fraction(v) * Fraction(w)
    return float(acc)


def ref_landscape_points(mean, components, projections, predict_rows, grid):
    """The PCA landscape one point at a time: pc1 outer, pc2 inner.

    ``mean`` and ``components`` are numpy rows, so each weight row is
    ``mean + a * components[0] + b * components[1]`` evaluated in that order,
    as the package does for the whole lattice at once.
    """
    import numpy as np

    pc1 = np.linspace(projections[:, 0].min(), projections[:, 0].max(), grid)
    pc2 = np.linspace(projections[:, 1].min(), projections[:, 1].max(), grid)
    points = []
    for a in pc1:
        for b in pc2:
            w = mean + a * components[0] + b * components[1]
            points.append((float(a), float(b), float(predict_rows(w[None, :])[0])))
    return points


def ref_search_optimal(model, settings, seed):
    """The whole-matrix sweep: draw every candidate in one Dirichlet call,
    predict them all at once, and average the first ``top_k`` of a stable
    sort of the predictions. Returns (w_star values, predicted loss at w_star).

    This is the sweep ``qselect.optimizer.search_optimal`` ran before it
    streamed the candidates a block at a time; it must give the same bits.
    """
    m, n = len(model.score_names), settings.candidates
    if m == 1:
        candidates = np.ones((n, 1))
    else:
        rng = np.random.default_rng(seed)
        candidates = rng.dirichlet(np.full(m, settings.concentration), size=n)
    preds = model.booster.predict(candidates)
    best = np.argsort(preds, kind="stable")[: settings.top_k]
    mean = candidates[best].mean(axis=0)
    values = mean / mean.sum()
    return values, model.predict(WeightVector(model.score_names, values))


# --- Gradient-boosted trees: the per-feature search and active-mask predict ---
#
# These are the split search, tree growth and prediction that ``qselect.gbt``
# used before it presorted each tree's rows and walked a fixed depth. The
# package must build the same trees and give the same predictions bit for bit.

_REF_MIN_GAIN = 1e-12


class RefTree:
    """A tree as flat arrays, with ``feature`` -1 marking a leaf."""

    def __init__(self, feature, threshold, left, right, value):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value


def ref_tree_predict(tree, X):
    import numpy as np

    node = np.zeros(X.shape[0], dtype=np.int64)
    while True:
        feat = tree.feature[node]
        active = feat >= 0
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        sub_nodes = node[idx]
        x = X[idx, feat[idx]]
        go_left = x <= tree.threshold[sub_nodes]
        node[idx] = np.where(go_left, tree.left[sub_nodes], tree.right[sub_nodes])
    return tree.value[node]


def ref_best_split(X, y, min_leaf):
    """Find the (feature, threshold) split maximizing SSE reduction, one feature at a time."""
    import numpy as np

    n = y.size
    total_sum = y.sum()
    total_sq = float(y @ y)
    total_sse = total_sq - total_sum * total_sum / n

    best_gain = _REF_MIN_GAIN
    best = None
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xo = X[order, j]
        yo = y[order]
        csum = np.cumsum(yo)
        csq = np.cumsum(yo * yo)
        # Split after position i: left = order[:i+1], right = order[i+1:].
        left_n = np.arange(1, n)
        valid = (xo[:-1] < xo[1:]) & (left_n >= min_leaf) & (n - left_n >= min_leaf)
        if not valid.any():
            continue
        left_sse = csq[:-1] - csum[:-1] ** 2 / left_n
        right_sum = total_sum - csum[:-1]
        right_sse = (total_sq - csq[:-1]) - right_sum**2 / (n - left_n)
        gain = np.where(valid, total_sse - left_sse - right_sse, -np.inf)
        i = int(np.argmax(gain))
        if gain[i] > best_gain:
            best_gain = float(gain[i])
            best = (j, float(xo[i]), order[: i + 1])
    return best


def ref_grow_tree(X, y, max_depth, min_leaf):
    import numpy as np

    feature = []
    threshold = []
    left = []
    right = []
    value = []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def grow(idx, depth):
        node = new_node()
        y_node = y[idx]
        value[node] = float(y_node.mean())
        if depth >= max_depth or idx.size < 2 * min_leaf or np.ptp(y_node) == 0.0:
            return node
        split = ref_best_split(X[idx], y_node, min_leaf)
        if split is None:
            return node
        j, thr, left_local = split
        mask = np.zeros(idx.size, dtype=bool)
        mask[left_local] = True
        feature[node] = j
        threshold[node] = thr
        left[node] = grow(idx[mask], depth + 1)
        right[node] = grow(idx[~mask], depth + 1)
        return node

    grow(np.arange(X.shape[0]), 0)
    return RefTree(
        np.asarray(feature, dtype=np.int64),
        np.asarray(threshold),
        np.asarray(left, dtype=np.int64),
        np.asarray(right, dtype=np.int64),
        np.asarray(value),
    )


# The per-document score-dict path that annotate and synth took before
# scores were parsed flat into one matrix: each record a Document with a
# scores dict, a merged copy of every document, and a second matrix built
# from those copies for the store. Its parsing, scoring and writing steps
# are kept verbatim as the byte-level spec; logging and the coverage
# threshold are left out.


@dataclass(frozen=True)
class RefDocument:
    id: str
    text: str
    domain: str
    token_estimate: int
    scores: dict[str, float] | None = None

    def with_scores(self, scores):
        return RefDocument(self.id, self.text, self.domain, self.token_estimate, dict(scores))


def _ref_parse_record(obj, schema):
    if not isinstance(obj, dict):
        raise ValueError("line is not a JSON object")
    doc_id = obj.get("id")
    if not isinstance(doc_id, str) or not doc_id:
        raise ValueError("missing or empty 'id'")
    text = obj.get("text")
    if not isinstance(text, str):
        raise ValueError("missing 'text'")
    domain = obj.get("domain")
    if domain not in schema.domains:
        raise ValueError(f"unknown domain {domain!r}")
    scores = obj.get("scores")
    if scores is not None:
        if not isinstance(scores, dict):
            raise ValueError("'scores' is not an object")
        for name, value in scores.items():
            if not is_finite_number(value):
                raise ValueError(f"score {name!r} = {value!r} is not a finite number")
        scores = {name: float(value) for name, value in scores.items()}
    return RefDocument(doc_id, text, domain, schema.estimate_tokens(text), scores)


def ref_load_corpus(path, schema):
    """The valid records of a JSONL corpus as RefDocuments, in file order."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                docs.append(_ref_parse_record(json.loads(line), schema))
            except (json.JSONDecodeError, ValueError):
                continue
    return docs


def ref_write_corpus(docs, path):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record = {"id": doc.id, "text": doc.text, "domain": doc.domain}
            if doc.scores is not None:
                record["scores"] = doc.scores
            fh.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def ref_from_documents(docs, score_names):
    names = list(score_names)
    raw = np.empty((len(docs), len(names)))
    for i, doc in enumerate(docs):
        scores = doc.scores or {}
        raw[i] = [scores.get(name, math.nan) for name in names]
    return ScoreMatrix(
        names,
        [doc.id for doc in docs],
        [doc.domain for doc in docs],
        [doc.token_estimate for doc in docs],
        raw,
    )


def ref_write_score_store(corpus_path, docs, schema):
    names = canonical_order({name for doc in docs if doc.scores for name in doc.scores})
    matrix = ref_from_documents(docs, names)
    np.savez(
        store_path(corpus_path),
        ids=np.array(matrix.doc_ids, dtype=str),
        domains=matrix.domains,
        tokens=matrix.tokens,
        score_names=np.array(names, dtype=str),
        raw=matrix.raw,
        sha256=np.array(_file_sha256(corpus_path)),
        token_estimator=np.array(schema.token_estimator),
        schema_domains=np.array(schema.domains, dtype=str),
    )


# The ratings path annotate replaced: a reader yielding one object per
# rating and an ingest that writes them one cell at a time. Kept verbatim
# as the spec of the bytes the per-rater map path must write.

PRRC_RANGE = (0.0, 5.0)


@dataclass(frozen=True)
class RatingAnnotation:
    """One externally produced model-based rating for one document."""

    doc_id: str
    rater: str
    value: float


@dataclass
class IngestReport:
    """Outcome of streaming annotations into a matrix."""

    filled: dict[str, int] = field(default_factory=dict)
    unknown_doc_ids: list[str] = field(default_factory=list)

    def coverage(self, doc_count: int) -> dict[str, float]:
        if doc_count == 0:
            return {name: 0.0 for name in self.filled}
        return {name: count / doc_count for name, count in self.filled.items()}


def ref_read_annotations(paths: list[Path]):
    for path in paths:
        if not path.exists():
            raise ValidationError(f"ratings file {path} does not exist")
        for line_no, line in numbered_lines(path):
            try:
                line = line.decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
                doc_id, rater, value = obj["doc_id"], obj["rater"], obj["value"]
                if not (isinstance(doc_id, str) and isinstance(rater, str)):
                    raise ValueError(f"doc_id {doc_id!r} and rater {rater!r} must be strings")
                if not is_finite_number(value):
                    raise ValueError(f"value {value!r} is not a finite number")
                check_encodable("rater", rater)
                yield RatingAnnotation(doc_id, rater, float(value))
            except (KeyError, TypeError, ValueError) as exc:  # UTF-8 and JSON errors are ValueErrors
                raise ValidationError(f"{path}:{line_no}: bad annotation: {exc}")


def ref_ingest_ratings(
    matrix: ScoreMatrix, annotations: Iterable[RatingAnnotation]
) -> IngestReport:
    """Write external ratings into the raw matrix.

    Unknown doc ids are collected in the report rather than raised (shard
    mismatches are routine); an unregistered rater name or an out-of-range
    PRRC value is an error.
    """
    if matrix.normalized is not None:
        raise MatrixError("cannot ingest into a normalized matrix")
    rows = {doc_id: i for i, doc_id in enumerate(matrix.doc_ids)}
    cols = {name: j for j, name in enumerate(matrix.score_names)}
    report = IngestReport()
    for ann in annotations:
        if ann.rater not in cols:
            raise MatrixError(f"unregistered rater {ann.rater!r}")
        if ann.rater in PRRC_NAMES and not (PRRC_RANGE[0] <= ann.value <= PRRC_RANGE[1]):
            raise ValidationError(
                f"{ann.rater} value {ann.value} outside {list(PRRC_RANGE)}"
            )
        row = rows.get(ann.doc_id)
        if row is None:
            report.unknown_doc_ids.append(ann.doc_id)
            continue
        col = cols[ann.rater]
        if math.isnan(matrix.raw[row, col]):
            report.filled[ann.rater] = report.filled.get(ann.rater, 0) + 1
        matrix.raw[row, col] = ann.value
    return report


def ref_annotate(cfg, corpus_path, out_path):
    """``annotate`` of ``corpus_path`` under the RunConfig ``cfg``, written
    to ``out_path`` and its store; returns the rating coverage."""
    from qselect.cli import _annotated_names

    docs = ref_load_corpus(corpus_path, cfg.corpus)
    imp = cfg.scores.importance
    rating_names = []
    annotations = []
    if cfg.scores.ratings is not None:
        annotations = list(ref_read_annotations(cfg.scores.ratings.files))
        rating_names = sorted({a.rater for a in annotations})

    names = canonical_order(_annotated_names(cfg) + rating_names)
    matrix = ref_from_documents(docs, names) if names else None

    if cfg.scores.signals:
        signal_cols = [names.index(name) for name in SIGNAL_NAMES]
        for i, doc in enumerate(docs):
            signals = compute_signals(doc.text)
            matrix.raw[i, signal_cols] = [signals[name] for name in SIGNAL_NAMES]

    if imp is not None:
        texts = [doc.text for doc in docs]
        source = hash_corpus(tokenize(texts), imp.bucket_count, cfg.seed)
        source_model = fit_bag_model(source, imp.smoothing)
        for target, target_path in imp.targets.items():
            target_texts = [doc.text for doc in ref_load_corpus(target_path, cfg.corpus)]
            hashed = hash_corpus(tokenize(target_texts), imp.bucket_count, cfg.seed)
            target_model = fit_bag_model(hashed, imp.smoothing)
            matrix.raw[:, names.index(f"{target}_importance")] = importance_scores(
                source, target_model, source_model
            )

    coverage = {}
    if matrix is not None and annotations:
        coverage = ref_ingest_ratings(matrix, annotations).coverage(matrix.n_docs)
        impute_missing(matrix)

    if matrix is not None:
        docs = [
            doc.with_scores({**(doc.scores or {}), **dict(zip(names, row))})
            for doc, row in zip(docs, matrix.raw.tolist())
        ]
    ref_write_corpus(docs, out_path)
    ref_write_score_store(out_path, docs, cfg.corpus)
    return coverage


def ref_synth(cfg, out_path):
    """``synth`` under the RunConfig ``cfg``, written to ``out_path`` and its store."""
    spec, schema = cfg.synthesis, cfg.corpus
    rng = np.random.default_rng(cfg.seed)
    counts = apportion(spec.domain_mix, spec.doc_count)
    tags = []
    for name, count in counts.items():
        tags.extend([name] * count)
    rng.shuffle(tags)

    channel_names = list(spec.channels)
    docs = []
    for i, domain in enumerate(tags):
        latent = float(rng.normal())
        n_words = max(1, int(round(float(rng.lognormal(math.log(spec.token_mean), spec.token_sigma)))))
        text = _synth_text(rng, n_words)
        scores = {}
        for name in channel_names:
            ch = spec.channels[name]
            eps = float(rng.normal())
            scores[name] = ch.offset + ch.scale * (ch.loading * latent + ch.noise * eps)
        if spec.latent_name is not None:
            scores[spec.latent_name] = latent
        docs.append(
            RefDocument(f"doc-{i:06d}", text, domain, schema.estimate_tokens(text), scores or None)
        )
    ref_write_corpus(docs, out_path)
    ref_write_score_store(out_path, docs, schema)


def ref_load_scored_matrix(path, schema):
    """The JSONL load the score store replaced: parse every line, build the
    raw matrix from the documents' scores maps, impute, normalize."""
    docs = ref_load_corpus(path, schema)
    if not docs:
        raise ValidationError(f"corpus {path} has no valid documents")
    names = canonical_order({name for doc in docs if doc.scores for name in doc.scores})
    if not names:
        raise ValidationError("corpus documents carry no scores; run annotate first")
    matrix = ref_from_documents(docs, names)
    impute_missing(matrix)
    return rank_normalize(matrix)
