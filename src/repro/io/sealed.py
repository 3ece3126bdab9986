"""The sealed record container: a JSON header plus raw float64 blocks.

One binary format carries every record that holds sample arrays: the
:class:`~repro.api.store.RunStore`'s records and the result files of
:mod:`repro.api.distributed` workers.  A container is::

    repro-sealed 1\\n            magic line
    <sha256 hex>\\n              digest of every byte that follows
    <header JSON>\\n             sorted keys, compact, one line
    <zero padding>              up to the next multiple of 8 bytes
    <float64 blocks>            little-endian, back to back

The header is the payload with every ``numpy`` array replaced by a
``{"$f8": [offset, count]}`` reference: the byte offset of its block
from the start of the array section, and its element count.  Samples
therefore cost 8 bytes each and round-trip bit for bit (NaN payloads,
signed zeros, subnormals included); scalars in the header go through
JSON and ``repr``, as before.

:func:`unseal` checks the digest *before* parsing anything, so a
flipped, missing or appended byte anywhere after the digest line is a
:class:`~repro.errors.StoreError`, never a wrong value.  Decoded arrays
are writable :func:`numpy.frombuffer` views over one ``bytearray`` made
per call: two reads of one container never share memory.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from repro.errors import StoreError

__all__ = ["MAGIC", "seal", "unseal"]

#: The first line of every container.
MAGIC = b"repro-sealed 1\n"

_REF = "$f8"
_DIGEST_END = len(MAGIC) + 65  # 64 hex characters and a newline
_F8 = np.dtype("<f8")


def _pad(n: int) -> int:
    return -n % 8


def seal(payload: dict) -> bytes:
    """The container bytes of ``payload``: a JSON-ready dict whose
    sample arrays may be float64 ``numpy`` arrays at any depth."""
    blocks: list[np.ndarray] = []
    offset = 0

    def refs(node):
        nonlocal offset
        if isinstance(node, np.ndarray):
            block = np.ascontiguousarray(node, dtype=_F8)
            blocks.append(block)
            ref = {_REF: [offset, block.size]}
            offset += block.nbytes
            return ref
        if isinstance(node, dict):
            return {key: refs(value) for key, value in node.items()}
        if isinstance(node, (list, tuple)):
            return [refs(value) for value in node]
        return node

    header = json.dumps(refs(payload), sort_keys=True,
                        separators=(",", ":")).encode() + b"\n"
    body = [header, bytes(_pad(_DIGEST_END + len(header))), *blocks]
    digest = hashlib.sha256()
    for part in body:
        digest.update(part)
    return b"".join([MAGIC, digest.hexdigest().encode(), b"\n", *body])


def unseal(data: bytes) -> dict:
    """The payload :func:`seal` made ``data`` from, arrays as writable
    float64 views; :class:`~repro.errors.StoreError` when ``data`` is
    not an intact container."""
    if not data.startswith(MAGIC):
        raise StoreError("not a sealed record (bad magic line)")
    digest = data[len(MAGIC):_DIGEST_END]
    if len(digest) != 65 or digest[-1:] != b"\n":
        raise StoreError("sealed record truncated in its digest line")
    sealed = hashlib.sha256(memoryview(data)[_DIGEST_END:])
    if sealed.hexdigest().encode() != digest[:-1]:
        raise StoreError("sealed record checksum mismatch")
    buf = bytearray(data)
    end = buf.find(b"\n", _DIGEST_END) + 1
    start = end + _pad(end)
    size = len(buf) - start

    def resolve(node: dict):
        ref = node.get(_REF)
        if ref is None:
            return node
        offset, count = ref
        if not (0 <= offset and 0 <= count
                and offset + 8 * count <= size):
            raise StoreError(f"sealed record array ref {ref} out of range")
        return np.frombuffer(buf, dtype=_F8, count=count,
                             offset=start + offset)

    try:
        payload = json.loads(buf[_DIGEST_END:end], object_hook=resolve)
    except (ValueError, TypeError) as exc:
        raise StoreError(f"sealed record header unreadable ({exc})"
                         ) from exc
    if not isinstance(payload, dict):
        raise StoreError("sealed record header is not a JSON object")
    return payload
