"""CSV tables: the one reader of every CSV the CLI reads, and the writers of those it writes."""

from __future__ import annotations

import csv
import itertools

import numpy as np

from .tree import _BLOCK_CELLS, Dendrogram, ValidationError, _heights, _lca_rows, _row_blocks


def read_table(text, labelled: bool = False) -> tuple[list[str], list[str] | None, np.ndarray]:
    """Parse a CSV table: a header row, then rows of finite numbers.

    ``text`` is a str or a seekable text file opened with ``newline=""``.
    Blank lines are skipped and every row must be as wide as the header.
    With ``labelled`` the first column holds row labels, returned apart as
    written; the header then names the value columns, each name stripped.
    Errors number rows from the header, row 1, skipping blank lines.

    Lines are counted, to size the values, then read once in `_row_blocks`
    blocks, by `np.loadtxt` while plain, then by `csv.reader`.  A csv error
    is raised where met, any other fault at the end: the first row of the
    wrong width, else the first cell that is not a finite number.
    """
    raw = getattr(text, "buffer", None)  # a file's bytes, counted a block at a time, not decoded
    if raw is None:
        count = sum(1 for _ in _lines(text))
    else:  # one line for each "\n" and lone "\r", and one for a last line ending in neither
        count = 1
        raw.seek(0)  # from the start, wherever the file's text layer had read ahead to
        for chunk in iter(lambda: raw.read(_BLOCK_CELLS), b""):
            count += chunk.count(b"\n")
            if b"\r" in chunk:
                count += chunk.count(b"\r") - chunk.count(b"\r\n")
    lines = _lines(text)
    try:
        header = next(filter(None, csv.reader(lines)), None)
        if header is None:
            raise ValidationError("empty file")
        skip, size = int(labelled), len(header)
        values = np.empty((count, size - skip))
        labels, rows, fault, plain = [], 0, None, True
        for a, b in _row_blocks(count, size):
            block = list(itertools.islice(lines, b - a))
            got = _plain_block(block, labelled, size - skip) if plain else None
            if got is None:
                if plain:  # every line so far was plain, so quote-free and a whole record
                    lines, plain = filter(None, csv.reader(itertools.chain(block, lines))), False
                    block = list(itertools.islice(lines, b - a))
                got = _cell_block(block, rows + 2, size, labelled)
            if isinstance(got[1], str):  # a fault: the first of the lowest rank is kept
                fault = got if fault is None or got[0] < fault[0] else fault
                rows += len(block)
                continue
            values[rows : rows + len(got[0])] = got[0]
            rows += len(got[0])
            labels += got[1]
    except csv.Error as exc:
        raise ValidationError(f"not a CSV table: {exc}") from exc
    if fault is not None:
        raise ValidationError(fault[1])
    return [s.strip() for s in header[skip:]], labels if labelled else None, values[:rows]


def _lines(text):
    """The lines of ``text``, a str or a seekable text file, from its start.

    A str is sliced one line at a time, each ending at its next ``\\n``,
    ``\\r\\n`` or lone ``\\r``, as a file's opened with ``newline=""`` do; a
    StringIO would copy it at 4 bytes a character.
    """
    if not isinstance(text, str):
        text.seek(0)
        yield from iter(text.readline, "")  # not the file itself, which closing this would close
        return
    size, start, nl, cr = len(text), 0, -1, -1
    while start < size:
        if nl < start:
            nl = text.find("\n", start) % (size + 1)  # size, if there is none
        if cr < start:
            cr = text.find("\r", start) % (size + 1)
        end = min(nl, cr) + 1 + (nl == cr + 1)  # past the text if neither is found
        yield text[start:end]
        start = end


# the bytes of a line of value cells; over these `np.loadtxt` and `float`
# accept the same cells and give the same bits
_PLAIN_BYTES = b"0123456789+-.eE,"


def _plain_block(lines: list[str], labelled: bool, width: int):
    """The values and labels of one block of lines, or None if it is not plain.

    Plain: no quote or NUL in a label, and finite values, as many as the
    header names, in ASCII cells of `_PLAIN_BYTES` within csv's field size
    limit.  Free of quotes, each line is then one whole csv record.
    """
    limit = csv.field_size_limit()
    lines = [line for line in (line.rstrip("\r\n") for line in lines) if line]
    labels = []
    if not lines:
        return np.empty((0, width)), labels
    if labelled:
        parts = [line.partition(",") for line in lines]
        labels = [label for label, _, _ in parts]
        # csv.reader reads a label as it stands unless it holds one of these
        joined = "".join(labels)
        if '"' in joined or "\0" in joined or max(map(len, labels)) > limit:
            return None
        lines = [cells for _, _, cells in parts]
    # a row of one label has no cells; isascii first: a lone surrogate cannot be encoded
    if not all(line and line.isascii() and not line.encode().translate(None, _PLAIN_BYTES)
               for line in lines):
        return None
    if max(map(len, lines)) > limit:
        # csv.reader refuses a cell longer than its field size limit
        raw = "\n".join(lines).encode()
        byte = np.frombuffer(raw, np.uint8)
        bounds = np.flatnonzero((byte == ord(",")) | (byte == ord("\n")))
        if np.diff(bounds, prepend=-1, append=len(raw)).max() > limit + 1:
            return None
    try:
        block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if block.shape != (len(lines), width) or not np.isfinite(block).all():
        return None
    return block, labels


def _cell_block(rows: list[list[str]], row0: int, size: int, labelled: bool):
    """The values and labels of a block of `csv.reader` rows, the first row ``row0``, or its fault.

    A fault is (0, message) for the first row not ``size`` cells wide, else
    (1, message) for the first cell that is not a finite number.
    """
    for i, row in enumerate(rows, start=row0):
        if len(row) != size:
            return 0, f"row {i}: expected {size} values, got {len(row)}"
    skip = int(labelled)
    cells = [row[skip:] for row in rows]
    try:  # numpy reads a cell as `float` does, which names the first bad one below
        values = np.array(cells, dtype=float).reshape(len(rows), size - skip)
        if np.isfinite(values).all():
            return values, [row[0] for row in rows] if labelled else []
    except ValueError:
        pass
    for i, row in enumerate(cells, start=row0):
        for j, cell in enumerate(row, start=skip + 1):
            try:
                if not np.isfinite(float(cell)):
                    return 1, f"row {i}, column {j}: expected a finite number, got {cell.strip()!r}"
            except ValueError:
                return 1, f"row {i}, column {j}: could not parse {cell.strip()!r}"


def read_signs(text) -> tuple[np.ndarray, list[str], bool]:
    """C.csv's int8 signs and row labels, and whether its bytes are as `save_bundle` writes them.

    A file in that form is read from its bytes by `_byte_signs`; anything
    else, or a str, by `_read_signs`, whose messages name what is wrong.
    """
    raw = getattr(text, "buffer", None)
    got = None if raw is None else _byte_signs(raw)
    return (*_read_signs(text), False) if got is None else (*got, True)


def _byte_signs(raw):
    """The signs and labels of a binary file in `save_bundle`'s form, else None.

    That form is a ``terminal,cluster_1,...`` header, then rows of a label
    free of quotes, ``\\r`` and NUL, and ``,0``, ``,1`` or ``,-1`` per cell,
    each line ending in ``\\n``.  A `_row_blocks` block of rows at a time,
    a cell's value is the byte before its separator, negated after a ``-``.
    """
    raw.seek(0)
    header = raw.readline()
    m, limit, start, size = header.count(b","), csv.field_size_limit(), raw.tell(), raw.seek(0, 2)
    # csv.reader refuses a field past its limit, and no cell is longer than a header name;
    # a file too short for its header's rows, of at least 2m + 1 bytes each, is not allocated for
    if (not m or len(b"cluster_%d" % m) > limit or size - start < (m + 1) * (2 * m + 1)
            or header != b"terminal" + b"".join(b",cluster_%d" % k for k in range(1, m + 1)) + b"\n"):
        return None
    raw.seek(start)
    signs, labels = np.empty((m + 1, m), dtype=np.int8), []
    for a, b in _row_blocks(m + 1, m):
        buf = b"".join(itertools.islice(raw, b - a))
        byte = np.frombuffer(buf, np.uint8)
        sep = np.flatnonzero((byte == ord(",")) | (byte == ord("\n")))
        # short of rows, or a last line with no end, and the bytes no cell or label holds
        if (len(sep) != (b - a) * (m + 1) or buf.count(b"\n") != b - a
                or b'"' in buf or b"\r" in buf or b"\0" in buf):
            return None
        sep = sep.reshape(-1, m + 1)  # each row's m commas and its end, once checked below
        width, last = np.diff(sep), byte[sep[:, 1:] - 1]
        neg = (width == 3) & (byte[sep[:, 1:] - 2] == ord("-")) & (last == ord("1"))
        if not ((neg | (width == 2) & ((last == ord("0")) | (last == ord("1")))).all()
                and (byte[sep[:, -1]] == ord("\n")).all()):
            return None
        signs[a:b] = last - ord("0")
        signs[a:b][neg] = -1
        names = [buf[i:j] for i, j in zip(np.append(0, sep[:-1, -1] + 1).tolist(), sep[:, 0].tolist())]
        if max(map(len, names)) > limit:
            return None
        try:
            labels += [name.decode() for name in names]
        except UnicodeDecodeError:
            return None
    return (signs, labels) if not raw.read(1) else None


def _read_signs(text) -> tuple[np.ndarray, list[str]]:
    """Branch-code CSV as written by transform: a label column, then n - 1 sign columns."""
    header, labels, C = read_table(text, labelled=True)
    n = len(labels)
    if n < 1:
        raise ValidationError("expected a header row plus terminal rows")
    if len(header) != n - 1:
        raise ValidationError(
            f"row 1: expected {n} columns for {n} terminals, got {len(header) + 1}"
        )
    for k, name in enumerate(header, start=1):  # as `_byte_signs` requires them, stripped
        if name != f"cluster_{k}":
            raise ValidationError(f"row 1, column {k + 1}: expected cluster_{k}, got {name!r}")
    signs = np.empty(C.shape, dtype=np.int8)
    for a, b in _row_blocks(*C.shape):  # checked and converted a block of rows at a time
        blk = C[a:b]
        bad = np.argwhere((blk != -1) & (blk != 0) & (blk != 1))
        if bad.size:
            i, j = bad[0].tolist()
            raise ValidationError(
                f"row {a + i + 2}, column {j + 2}: expected -1, 0 or +1, "
                f"got {format(blk[i, j], 'g')!r}"
            )
        signs[a:b] = blk
    return signs, labels


class _RowText:
    """A `csv.writer` file whose ``write`` returns the text, so ``writerow`` returns the row."""
    write = staticmethod(lambda text: text)


_ROW_TEXT = csv.writer(_RowText()).writerow  # its "\r\n" line end makes it quote a lone "\r" too


def _csv_line(fields) -> str:
    """``fields`` as one CSV line ending in ``\\n``, quoted as `csv.writer` quotes them."""
    return _ROW_TEXT(fields)[:-2] + "\n"


def _texts(numbers: np.ndarray) -> np.ndarray:
    """Each number's CSV text: integers exactly, floats with 12 significant digits."""
    spec = "d" if np.issubdtype(numbers.dtype, np.integer) else ".12g"
    return np.array([format(v, spec) for v in numbers.tolist()], dtype=object)


def write_table(fh, header, values, labels=None) -> None:
    """Write a CSV table to ``fh``: the header row, then one row per row of ``values``.

    Integers print exactly and floats with 12 significant digits.  Each
    distinct value is formatted once (floats keyed by bit pattern, so 0.0
    and -0.0 keep their own text) and the rows are written one
    `_row_blocks` block at a time.  With ``labels`` each row starts with
    its label, quoted by `csv.writer` like the header.
    """
    values = np.asarray(values)
    fh.write(_csv_line(header))
    integral = np.issubdtype(values.dtype, np.integer)
    keys = values if integral else values.astype(float, copy=False).view(np.int64)
    distinct = np.unique(keys)
    text = _texts(distinct if integral else distinct.view(float))
    # the label as `_csv_line` starts its row, then a comma
    leads = [""] * len(values) if labels is None else [
        _csv_line([label, ""] if values.shape[1] else [label])[:-1] for label in labels
    ]
    for a, b in _row_blocks(*values.shape):
        rows = text[np.searchsorted(distinct, keys[a:b])].tolist()
        fh.writelines(f"{lead}{','.join(row)}\n" for lead, row in zip(leads[a:b], rows))


def _write_cophenetic(fh, d: Dendrogram, use: str = "ranks") -> None:
    """``write_table(fh, d.labels, cophenetic(d, use))`` without the n x n matrix.

    The n heights are formatted once; each terminal's row of LCA ranks picks its cells' text.
    """
    text = _texts(_heights(d, use))
    fh.write(_csv_line(d.labels))
    fh.writelines(",".join(text[ranks].tolist()) + "\n" for ranks in _lca_rows(d.layout))
