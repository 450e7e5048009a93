"""The enrollment store: the JSON manifest binding a user id to its share
files, scheme parameters and pixel digests, the one writer that lays an
enrollment out on disk, and the digest-checked reader of the share set.

Store layout under one directory: `<user>_share_<i>.pgm` for i = 1..n and
`<user>_manifest.json`. Every name in a manifest is a plain file name, so a
manifest can only refer to files inside its own share directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .codecs import PgmError, load_pgm, write_pgm_file
from .images import BitTransform, GrayImage
from .prng import parse_seed
from .scheme import Method, SchemeParams, ShareSet

MANIFEST_SCHEMA = 1
DIGEST_ALGORITHM = "sha256"

MAX_MANIFEST_BYTES = 4 * 1024 * 1024
"""The longest manifest read, so an untrusted file cannot make a read grow
without bound. The longest `enroll` writes is about 1.7 MB: JSON escaping
takes at most 6 bytes per byte, n <= 64 (cli.MAX_SHARES), and its m1 cover
paths open as files, so each is under 4096 bytes; 63 escaped cover sources
are then under 1.55 MB, and 64 share names of at most 255 bytes, 64 digests,
64 seeds, the user id and the fixed fields add about 0.11 MB."""


class IntegrityError(ValueError):
    """A share file is missing, undecodable, or fails its digest."""


def pixel_digest(img: GrayImage) -> str:
    """Hex sha256 over the raw row-major pixel bytes, read in place."""
    return hashlib.sha256(img.data).hexdigest()


@dataclass(frozen=True)
class EnrollmentManifest:
    user_id: str
    params: SchemeParams
    dims: tuple[int, int]
    share_files: tuple[str, ...]
    content_digests: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "share_files", tuple(self.share_files))
        object.__setattr__(self, "content_digests", tuple(self.content_digests))
        _require_plain_name("user_id", self.user_id)
        for name in self.share_files:
            _require_plain_name("share_files", name)
        if len(self.dims) != 2 or min(self.dims) < 1:
            raise ValueError(f"dims must be two positive sizes, got {list(self.dims)}")
        n = self.params.n
        if len(self.share_files) != n or len(self.content_digests) != n:
            raise ValueError(
                f"manifest lists {len(self.share_files)} share files and "
                f"{len(self.content_digests)} digests for n={n}"
            )

    def to_json(self) -> str:
        doc = {
            "schema": MANIFEST_SCHEMA,
            "user_id": self.user_id,
            "method": self.params.method.value,
            "n": self.params.n,
            "bit_transform": self.params.bit_transform.descriptor(),
            "seeds": [str(s) for s in self.params.seeds],
            "dims": list(self.dims),
            "share_files": list(self.share_files),
            "digest_algorithm": DIGEST_ALGORITHM,
            "content_digests": list(self.content_digests),
            "cover_sources": list(self.params.cover_sources),
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EnrollmentManifest":
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("manifest JSON is nested too deeply") from None
        if not isinstance(doc, dict):
            raise ValueError(f"manifest must be a JSON object, got {type(doc).__name__}")
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(f"unsupported manifest schema {doc.get('schema')!r}")
        if doc.get("digest_algorithm") != DIGEST_ALGORITHM:
            raise ValueError(f"unsupported digest algorithm {doc.get('digest_algorithm')!r}")
        doc.setdefault("cover_sources", [])

        def field(name: str, parse=_text):
            if name not in doc:
                raise ValueError(f"manifest field {name!r} is missing")
            try:
                return parse(doc[name])
            except (TypeError, ValueError, LookupError, OverflowError) as exc:
                raise ValueError(f"manifest field {name!r} is invalid: {exc}") from None

        return cls(
            user_id=field("user_id"),
            params=SchemeParams(
                method=field("method", Method),
                n=field("n", _integer),
                bit_transform=field("bit_transform", lambda v: BitTransform.parse(_text(v))),
                seeds=field("seeds", lambda v: _array(v, lambda s: parse_seed(_text(s)))),
                cover_sources=field("cover_sources", lambda v: _array(v, _text)),
            ),
            dims=field("dims", lambda v: _pair(_array(v, _integer))),
            share_files=field("share_files", lambda v: _array(v, _text)),
            content_digests=field("content_digests", lambda v: _array(v, _text)),
        )


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def _integer(value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"expected an integer, got {type(value).__name__}")
    return value


def _array(value: object, entry) -> tuple:
    """A JSON array as a tuple, each entry checked by `entry`; a string is not
    taken as an array of its characters."""
    if not isinstance(value, list):
        raise TypeError(f"expected a JSON array, got {type(value).__name__}")
    return tuple(entry(item) for item in value)


def _pair(values: tuple) -> tuple:
    if len(values) != 2:
        raise ValueError(f"expected two entries, got {len(values)}")
    return values


def _require_plain_name(field: str, name: str) -> None:
    """A store name must be one file-name component, so it cannot leave the
    directory it is joined to."""
    if name in ("", ".", "..") or any(sep in name for sep in "/\\\0"):
        raise ValueError(f"{field} must be a plain file name, got {name!r}")


def save_manifest(manifest: EnrollmentManifest, path: str | Path) -> None:
    Path(path).write_text(manifest.to_json(), encoding="utf-8")


def load_manifest(path: str | Path) -> EnrollmentManifest:
    # in blocks, since read(k) sets aside all k bytes before it reads any
    chunks, size = [], 0
    with open(path, "rb") as f:
        while chunk := f.read(1 << 16):
            size += len(chunk)
            if size > MAX_MANIFEST_BYTES:
                raise ValueError(f"manifest exceeds the limit of {MAX_MANIFEST_BYTES} bytes")
            chunks.append(chunk)
    return EnrollmentManifest.from_json(b"".join(chunks).decode("utf-8"))


def save_enrollment(share_set: ShareSet, user_id: str, out_dir: str | Path) -> Path:
    """Write one enrollment's shares, then its manifest; returns the manifest path.

    The manifest is built, and so validated, before any file is written.
    """
    out_dir = Path(out_dir)
    n = share_set.params.n
    manifest = EnrollmentManifest(
        user_id=user_id,
        params=share_set.params,
        dims=share_set.dims,
        share_files=tuple(f"{user_id}_share_{i}.pgm" for i in range(1, n + 1)),
        content_digests=tuple(pixel_digest(share) for share in share_set.shares),
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, share in zip(manifest.share_files, share_set.shares):
        write_pgm_file(share, out_dir / name)
    manifest_path = out_dir / f"{user_id}_manifest.json"
    save_manifest(manifest, manifest_path)
    return manifest_path


def load_share_set(manifest: EnrollmentManifest, share_dir: str | Path) -> ShareSet:
    """Load and digest-check every share listed in the manifest.

    Raises IntegrityError on the first missing, undecodable, wrongly sized
    or digest-mismatching share, before anything is reconstructed.
    """
    share_dir = Path(share_dir)
    shares = []
    for rel, digest in zip(manifest.share_files, manifest.content_digests):
        path = share_dir / rel
        if not path.is_file():
            raise IntegrityError(f"missing share file: {rel}")
        try:
            img = load_pgm(path.read_bytes())
        except PgmError as exc:
            raise IntegrityError(f"share file {rel} is not a valid share: {exc}") from exc
        if img.dims != manifest.dims:
            raise IntegrityError(
                f"share file {rel} has dimensions {img.dims}, manifest says {manifest.dims}"
            )
        if pixel_digest(img) != digest:
            raise IntegrityError(f"digest mismatch for share file {rel}")
        shares.append(img)
    return ShareSet(tuple(shares), manifest.params)
