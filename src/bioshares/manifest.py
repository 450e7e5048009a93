"""The enrollment store: the JSON manifest binding a user id to its share
files, scheme parameters and pixel digests, the one writer that lays an
enrollment out on disk, and the digest-checked reader of the share set.

Store layout under one directory: `<user>_share_<i>.pgm` for i = 1..n and
`<user>_manifest.json`, both named from a user id that must be a plain file
name, so a manifest can only refer to files inside its own share directory.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .codecs import MAX_PIXELS, P5_HEADER, load_pgm, read_at_most, write_file, write_pgm_file
from .images import BitTransform, GrayImage
from .prng import parse_seed
from .scheme import Method, SchemeError, SchemeParams, ShareSet

MANIFEST_SCHEMA = 1
DIGEST_ALGORITHM = "sha256"

MAX_MANIFEST_BYTES = 4 * 1024 * 1024
"""The longest manifest read, so an untrusted file cannot make a read grow
without bound. The longest `enroll` writes is about 1.7 MB: JSON escaping
takes at most 6 bytes per byte, n <= 64 (cli.MAX_SHARES), and its m1 cover
paths open as files, so each is under 4096 bytes; 63 escaped cover sources
are then under 1.55 MB, and 64 share names of at most 255 bytes, 64 digests,
64 seeds, the user id and the fixed fields add about 0.11 MB."""


def _require_plain(name: str) -> None:
    """Refuse a user id that is not one path component of Unicode text."""
    if name in ("", ".", "..") or any(c in "/\\\0" or "\ud800" <= c <= "\udfff" for c in name):
        raise ManifestError(f"user_id must be a plain file name, got {name!r}")


def share_names(user_id: str, n: int) -> tuple[str, ...]:
    """The store's names for an enrollment's n shares, in share order."""
    _require_plain(user_id)
    return tuple(f"{user_id}_share_{i}.pgm" for i in range(1, n + 1))


def manifest_name(user_id: str) -> str:
    _require_plain(user_id)
    return f"{user_id}_manifest.json"


class IntegrityError(ValueError):
    """A share file is missing, not the file `enroll` writes, or fails its digest."""


class ManifestError(ValueError):
    """A manifest is refused: too long, not UTF-8 JSON, or a field is invalid."""


def pixel_digest(img: GrayImage) -> str:
    """Hex sha256 over the raw row-major pixel bytes, read in place."""
    return hashlib.sha256(img.data).hexdigest()


@dataclass(frozen=True)
class EnrollmentManifest:
    user_id: str
    params: SchemeParams
    dims: tuple[int, int]
    content_digests: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "content_digests", tuple(self.content_digests))
        _require_plain(self.user_id)
        if len(self.dims) != 2 or min(self.dims) < 1 or self.dims[0] * self.dims[1] > MAX_PIXELS:
            raise ManifestError(f"dims must be two positive sizes of at most {MAX_PIXELS} "
                                f"pixels in all, got {list(self.dims)}")
        if len(self.content_digests) != self.params.n:
            raise ManifestError(f"manifest lists {len(self.content_digests)} digests "
                                f"for n={self.params.n}")

    @property
    def share_files(self) -> tuple[str, ...]:
        return share_names(self.user_id, self.params.n)

    def to_json(self) -> str:
        doc = {
            "schema": MANIFEST_SCHEMA,
            "user_id": self.user_id,
            "method": self.params.method.value,
            "n": self.params.n,
            "bit_transform": self.params.bit_transform.descriptor,
            "seeds": [str(s) for s in self.params.seeds],
            "dims": list(self.dims),
            "share_files": list(self.share_files),
            "digest_algorithm": DIGEST_ALGORITHM,
            "content_digests": list(self.content_digests),
            "cover_sources": list(self.params.cover_sources),
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> "EnrollmentManifest":
        try:
            doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        except RecursionError:
            raise ManifestError("manifest JSON is nested too deeply") from None
        except ValueError as exc:  # not UTF-8, not JSON, or an integer past the digit limit
            raise ManifestError(str(exc)) from None
        if not isinstance(doc, dict):
            raise ManifestError(f"manifest must be a JSON object, got {type(doc).__name__}")
        if doc.get("schema") != MANIFEST_SCHEMA:
            raise ManifestError(f"unsupported manifest schema {doc.get('schema')!r}")
        if doc.get("digest_algorithm") != DIGEST_ALGORITHM:
            raise ManifestError(f"unsupported digest algorithm {doc.get('digest_algorithm')!r}")
        doc.setdefault("cover_sources", [])

        def field(name: str, parse=_text):
            if name not in doc:
                raise ManifestError(f"manifest field {name!r} is missing")
            try:
                return parse(doc[name])
            except (TypeError, ValueError, LookupError, OverflowError) as exc:
                raise ManifestError(f"manifest field {name!r} is invalid: {exc}") from None

        try:  # SchemeParams judges the scheme fields
            manifest = cls(
                user_id=field("user_id"),
                params=SchemeParams(
                    method=field("method", Method),
                    n=field("n", _integer),
                    bit_transform=field("bit_transform", lambda v: BitTransform(_text(v))),
                    seeds=field("seeds", lambda v: _array(v, lambda s: parse_seed(_text(s)))),
                    cover_sources=field("cover_sources", lambda v: _array(v, _text)),
                ),
                dims=field("dims", lambda v: _pair(_array(v, _integer))),
                content_digests=field("content_digests", lambda v: _array(v, _text)),
            )
        except SchemeError as exc:
            raise ManifestError(str(exc)) from None
        names = list(manifest.share_files)
        if doc.get("share_files") != names:  # stored only as a copy of the derived names
            raise ManifestError(f"manifest field 'share_files' must list {names[0]} .. {names[-1]}")
        return manifest


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


def save_manifest(manifest: EnrollmentManifest, path: str | Path) -> None:
    write_file(path, manifest.to_json().encode())


def load_manifest(path: str | Path) -> EnrollmentManifest:
    data = read_at_most(path, MAX_MANIFEST_BYTES + 1)
    if len(data) > MAX_MANIFEST_BYTES:
        raise ManifestError(f"manifest exceeds the limit of {MAX_MANIFEST_BYTES} bytes")
    return EnrollmentManifest.from_json(data)


def save_enrollment(share_set: ShareSet, user_id: str, out_dir: str | Path) -> Path:
    """Write one enrollment's shares, then its manifest; returns the manifest path.
    The manifest is built, and so validated, before any file is written."""
    out_dir = Path(out_dir)
    manifest = EnrollmentManifest(
        user_id=user_id,
        params=share_set.params,
        dims=share_set.dims,
        content_digests=tuple(pixel_digest(share) for share in share_set.shares),
    )
    for name, share in zip(manifest.share_files, share_set.shares):
        write_pgm_file(share, out_dir / name)
    manifest_path = out_dir / manifest_name(user_id)
    save_manifest(manifest, manifest_path)
    return manifest_path


def load_share_set(manifest: EnrollmentManifest, share_dir: str | Path) -> ShareSet:
    """Load and digest-check every share listed in the manifest.

    Raises IntegrityError, before anything is reconstructed, on the first share that is
    missing, not exactly the P5 file save_pgm writes at the manifest's dims, or off its digest.
    """
    header = P5_HEADER % manifest.dims
    size = len(header) + manifest.dims[0] * manifest.dims[1]
    shares = []
    for rel, digest in zip(manifest.share_files, manifest.content_digests):
        path = Path(share_dir, rel)
        if not path.is_file():  # judged unopened, so a FIFO here cannot block
            raise IntegrityError(f"missing share file: {rel}")
        data = read_at_most(path, size + 1)
        if len(data) != size or not data.startswith(header):
            raise IntegrityError(f"share file {rel} is not a valid share: not the P5 file "
                                 "enroll writes at the manifest's dimensions %dx%d" % manifest.dims)
        img = load_pgm(data)
        if pixel_digest(img) != digest:
            raise IntegrityError(f"digest mismatch for share file {rel}")
        shares.append(img)
    return ShareSet(tuple(shares), manifest.params)
