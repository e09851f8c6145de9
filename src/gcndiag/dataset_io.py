"""On-disk dataset container.

A dataset is a directory holding meta.json {name, n, d, num_classes},
edges.tsv (one undirected edge per line, tab-separated 0-based ids with
u < v, no edge listed twice), labels.tsv (line i = label of node i), and
features.bin (little-endian float32, row-major, exactly n*d values). A
features.tsv of n rows with d tab-separated reals is accepted in place of the
binary file. Every feature must be finite. Features are widened to float64
once loaded. Every text file must be UTF-8. ``_rows`` reads the two tables of
exactly n rows; edges.tsv keeps its own, faster loop.
"""

import hashlib
import json
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_features, is_integer
from .graph import Graph, build_graph


@dataclass(frozen=True)
class Dataset:
    name: str
    graph: Graph
    x: np.ndarray  # n x d float64
    y: np.ndarray  # length n int64
    num_classes: int

    def fingerprint(self) -> str:
        """Content hash over shapes, edges, labels, and features."""
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{self.graph.n}:{self.x.shape[1]}:{self.num_classes}".encode())
        h.update(np.ascontiguousarray(self.graph.row_offsets).tobytes())
        h.update(np.ascontiguousarray(self.graph.col_indices).tobytes())
        h.update(np.ascontiguousarray(self.y, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.x, dtype="<f4").tobytes())
        return h.hexdigest()


def load_json(path: str):
    """The JSON value in the file ``path``; a missing, unreadable, non-UTF-8
    or malformed file is an InputError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError("not found", path=path) from None
    except OSError as exc:
        raise InputError(f"cannot read: {exc.strerror or exc}", path=path) from None
    except UnicodeDecodeError:
        raise InputError("not valid UTF-8", path=path) from None
    except json.JSONDecodeError as exc:
        raise InputError(f"not valid JSON: {exc}", path=path) from None


def _read_meta(path: str) -> dict:
    meta_path = os.path.join(path, "meta.json")
    meta = load_json(meta_path)
    if not isinstance(meta, dict):
        raise InputError(
            f"meta.json must hold a JSON object, got {type(meta).__name__}",
            path=meta_path,
        )
    for key in ("name", "n", "d", "num_classes"):
        if key not in meta:
            raise InputError(f"missing required key {key!r}", path=meta_path)
    for key in ("n", "d", "num_classes"):
        if not is_integer(meta[key]) or meta[key] <= 0:
            raise InputError(f"key {key!r} must be a positive integer, got "
                             f"{meta[key]!r}", path=meta_path)
    return meta


_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def _lines(path: str):
    """Yield (line number, stripped text) for each non-blank line of ``path``,
    read once. surrogateescape decodes each byte that is not UTF-8 to a lone
    surrogate in U+DC80-U+DCFF (``_ESCAPED_BYTE``), which no valid UTF-8
    decodes to, so the first line holding one is the first non-UTF-8 line."""
    if not os.path.isfile(path):
        raise InputError("not found", path=path)
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii() and _ESCAPED_BYTE.search(raw):
                raise InputError("not valid UTF-8", path=path, line=lineno)
            line = raw.strip()
            if line:
                yield lineno, line


def _rows(path: str, n: int, width: int, parse, what: str):
    """Yield (line number, ``parse(fields)``) for exactly ``n`` non-blank lines
    of ``width`` tab-separated fields; ``what`` names a row in errors."""
    count = 0
    for lineno, line in _lines(path):
        if count >= n:
            raise InputError(
                f"more than the expected {n} {what}s", path=path, line=lineno)
        parts = line.split("\t")
        if len(parts) != width:
            raise InputError(
                f"expected {width} tab-separated values, got {len(parts)}",
                path=path, line=lineno)
        try:
            values = parse(parts)
        except ValueError:
            raise InputError(
                f"malformed {what} {line!r:.60}", path=path, line=lineno) from None
        yield lineno, values
        count += 1
    if count != n:
        raise InputError(f"expected {n} {what}s, found {count}", path=path)


def _read_edges(path: str, n: int):
    edges_path = os.path.join(path, "edges.tsv")
    first_line = {}  # (u, v) -> line that listed it
    for lineno, line in _lines(edges_path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise InputError(
                f"expected two tab-separated ids, got {len(parts)} fields",
                path=edges_path, line=lineno,
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(
                f"non-integer node id in {line!r}", path=edges_path, line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(
                f"node id out of range [0, {n}) in edge ({u}, {v})",
                path=edges_path, line=lineno,
            )
        if u >= v:
            raise InputError(
                f"edge ({u}, {v}) violates u < v ordering",
                path=edges_path, line=lineno,
            )
        if (u, v) in first_line:
            raise InputError(
                f"duplicate edge ({u}, {v}), first listed on line "
                f"{first_line[(u, v)]}",
                path=edges_path, line=lineno,
            )
        first_line[(u, v)] = lineno
    return list(first_line)


def _read_labels(path: str, n: int, num_classes: int) -> np.ndarray:
    labels_path = os.path.join(path, "labels.tsv")
    y = np.empty(n, dtype=np.int64)
    rows = _rows(labels_path, n, 1, lambda parts: int(parts[0]), "label")
    for i, (lineno, label) in enumerate(rows):
        if not 0 <= label < num_classes:
            raise InputError(f"label {label} outside [0, {num_classes})",
                             path=labels_path, line=lineno)
        y[i] = label
    return y


def _read_features(path: str, n: int, d: int) -> np.ndarray:
    bin_path = os.path.join(path, "features.bin")
    tsv_path = os.path.join(path, "features.tsv")
    if os.path.isfile(bin_path):
        expected = n * d * 4
        actual = os.path.getsize(bin_path)
        if actual != expected:
            raise InputError(
                f"holds {actual} bytes, expected n*d*4 = {expected}",
                path=bin_path,
            )
        return check_features(np.fromfile(bin_path, dtype="<f4").reshape(n, d),
                              path=bin_path)
    if os.path.isfile(tsv_path):
        x = np.empty((n, d), dtype=np.float64)
        rows = _rows(tsv_path, n, d, lambda parts: [float(p) for p in parts],
                     "feature row")
        for i, (lineno, row) in enumerate(rows):
            x[i] = row
            if not np.isfinite(x[i]).all():
                raise InputError("non-finite feature value", path=tsv_path,
                                 line=lineno)
        return x
    raise InputError(
        "neither features.bin nor features.tsv found", path=os.path.join(path, ""))


def load_dataset(path: str) -> Dataset:
    """Read and validate a container directory."""
    if not os.path.isdir(path):
        raise InputError("dataset directory not found", path=path)
    meta = _read_meta(path)
    n, d, num_classes = meta["n"], meta["d"], meta["num_classes"]
    edges = _read_edges(path, n)
    y = _read_labels(path, n, num_classes)
    x = _read_features(path, n, d)
    graph = build_graph(edges, n)
    return Dataset(name=str(meta["name"]), graph=graph, x=x, y=y,
                   num_classes=num_classes)


def save_dataset(dataset: Dataset, path: str) -> None:
    """Write a container directory; features go out as float32 binary.

    The directory's parent must exist, as for any other output path.
    """
    meta = {
        "name": dataset.name,
        "n": int(dataset.graph.n),
        "d": int(dataset.x.shape[1]),
        "num_classes": int(dataset.num_classes),
    }
    try:
        if not os.path.isdir(path):
            os.mkdir(path)
        with open(os.path.join(path, "meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
        np.savetxt(os.path.join(path, "edges.tsv"), dataset.graph.edge_array(),
                   fmt="%d", delimiter="\t")
        np.savetxt(os.path.join(path, "labels.tsv"), dataset.y, fmt="%d")
        np.ascontiguousarray(dataset.x, dtype="<f4").tofile(
            os.path.join(path, "features.bin"))
    except OSError as exc:
        raise InputError(f"cannot write dataset: {exc.strerror or exc}",
                         path=exc.filename or path)
