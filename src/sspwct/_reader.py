"""One JSON document read by json's C scanner, for
:func:`~sspwct.model.parse_instance`: text whole, an open binary file in
chunks.  It knows JSON, not the instance format: the caller says which
values to read item by item, and builds each object with its own hook.
"""
from __future__ import annotations

import codecs
import json
import re
from typing import Any, BinaryIO, Callable

#: Bytes of a file read first.  A file that ends within them is decoded
#: whole; a longer one is read item by item as the caller's spec says, a
#: quarter chunk at a time, so a load holds the document and well under a
#: chunk of text, never the file's bytes and its whole text.
CHUNK = 1 << 21
#: Whitespace, at most one separator, whitespace.
_SEP = re.compile(r"[ \t\n\r]*([,:\]}]?)[ \t\n\r]*")


class Reader:
    """The document of text, or of an open binary file, building exactly
    the document ``json.loads`` builds from the whole text.  Text is read
    whole, and so is a file that cannot seek, once read and decoded; a file
    that can is read in chunks, and the reader holds only the text it has
    not yet read."""

    def __init__(self, source: str | BinaryIO) -> None:
        if not isinstance(source, str) and not source.seekable():
            source = source.read().decode("utf-8")  # a pipe can be read only once
        whole = isinstance(source, str)
        self.fh, self.buf, self.pos, self.eof = (None, source, 0, True) if whole else (source, "", 0, False)
        self.decode = codecs.getincrementaldecoder("utf-8")().decode

    def fill(self, n: int) -> None:
        """Read ``n`` more bytes after the text not yet read."""
        rest, self.buf, self.pos = self.buf[self.pos:], "", 0
        data = self.fh.read(n)
        self.eof = len(data) < n  # a seekable file reads short only at its end
        text = self.decode(data, self.eof)
        del data
        self.buf = rest + text

    def token(self, scan: Callable[[str, int], tuple[Any, int]] | None) -> tuple[Any, str]:
        """The value ``scan`` reads at ``pos`` (None reads nothing) and the
        separator after it, or "".  Text is read ahead of each value, and
        more while the value or the separator may run past the text read."""
        if not self.eof and len(self.buf) - self.pos < CHUNK >> 3:
            self.fill(CHUNK >> 2)
        while True:
            buf = self.buf
            try:
                value, end = scan(buf, self.pos) if scan else (None, self.pos)
                sep = _SEP.match(buf, end)
                if sep.end() < len(buf) or self.eof:
                    self.pos = sep.end()
                    return value, sep[1]
            except (StopIteration, ValueError):
                if self.eof:
                    raise
            self.fill(len(buf) + CHUNK)

    def value(self, spec: Any) -> tuple[Any, str]:
        """The value at ``pos``, read as ``spec`` says, and the separator
        after it.  A spec is None for a value decoded whole, ``[x]`` for an
        array whose items are read as x, or an object's fields mapped to how
        each is read (an unnamed field is decoded whole)."""
        obj = type(spec) is dict
        if spec is None or not self.buf.startswith("{" if obj else "[", self.pos):
            return self.token(self.scan)
        self.pos += 1
        items, item = [], None if obj else spec[0]
        _, sep = self.token(None)
        while sep != ("}" if obj else "]"):
            if sep != ("," if items else ""):
                raise ValueError("expected a comma")
            if obj:
                key, sep = self.token(self.scan)
                if type(key) is not str or sep != ":":
                    raise ValueError("expected a key and a colon")
                value, sep = self.value(spec.get(key))
                items.append((key, value))
            else:  # an item decoded whole goes straight to the scanner
                value, sep = self.token(self.scan) if item is None else self.value(item)
                items.append(value)
        return self.hook(items) if obj else items, self.token(None)[1]

    def document(self, hook: Callable[[list[tuple[str, Any]]], Any], streamed: Any) -> Any:
        """The whole document, each object built by ``hook``: decoded whole
        if it ends in the first chunk, else read as ``streamed`` says.  Its
        one error exit gives a rejected document whole to ``json.loads``, so
        every error is the one it gives for the whole text."""
        self.hook, self.scan = hook, json.JSONDecoder(object_pairs_hook=hook).scan_once
        start = None if self.fh is None else self.fh.tell()
        try:
            if start is not None:
                self.fill(CHUNK)
            if not self.token(None)[1]:  # no separator before the document
                doc, sep = self.value(None if self.eof else streamed)
                if not sep and self.pos == len(self.buf):
                    self.buf = ""
                    return doc
        except (StopIteration, ValueError, RecursionError):
            pass
        if start is not None:
            self.fh.seek(start)
            self.buf = self.fh.read().decode("utf-8")
        text, self.buf = self.buf, ""
        return json.loads(text, object_pairs_hook=self.hook)
