"""Enrollment manifests: the JSON record binding a user id to share files,
seeds and pixel digests, plus integrity-checked loading of the share set."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .codecs import PgmError, load_pgm
from .images import BitTransform, GrayImage
from .scheme import Method, SchemeParams, ShareSet

MANIFEST_SCHEMA = 1
DIGEST_ALGORITHM = "sha256"


class IntegrityError(ValueError):
    """A share file is missing, undecodable, or fails its digest."""


def pixel_digest(img: GrayImage) -> str:
    """Hex sha256 over the raw row-major pixel bytes."""
    return hashlib.sha256(img.data.tobytes()).hexdigest()


@dataclass(frozen=True)
class EnrollmentManifest:
    user_id: str
    method: Method
    n: int
    bit_transform: BitTransform
    seeds: tuple[int, ...]
    dims: tuple[int, int]
    share_files: tuple[str, ...]
    content_digests: tuple[str, ...]
    cover_sources: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(self, "dims", tuple(self.dims))
        object.__setattr__(self, "share_files", tuple(self.share_files))
        object.__setattr__(self, "content_digests", tuple(self.content_digests))
        object.__setattr__(self, "cover_sources", tuple(self.cover_sources))
        if len(self.share_files) != self.n or len(self.content_digests) != self.n:
            raise ValueError(
                f"manifest lists {len(self.share_files)} share files and "
                f"{len(self.content_digests)} digests for n={self.n}"
            )
        self.to_params()  # validates n, seeds-per-method, cover sources

    def to_params(self) -> SchemeParams:
        return SchemeParams(
            method=self.method,
            n=self.n,
            bit_transform=self.bit_transform,
            seeds=self.seeds,
            cover_sources=self.cover_sources,
        )

    def to_json(self) -> str:
        doc = {
            "schema": MANIFEST_SCHEMA,
            "user_id": self.user_id,
            "method": self.method.value,
            "n": self.n,
            "bit_transform": self.bit_transform.descriptor(),
            "seeds": [str(s) for s in self.seeds],
            "dims": list(self.dims),
            "share_files": list(self.share_files),
            "digest_algorithm": DIGEST_ALGORITHM,
            "content_digests": list(self.content_digests),
            "cover_sources": list(self.cover_sources),
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "EnrollmentManifest":
        doc = json.loads(text)
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
            method=field("method", Method),
            n=field("n", int),
            bit_transform=field("bit_transform", lambda v: BitTransform.parse(_text(v))),
            seeds=field("seeds", lambda v: tuple(int(s) for s in v)),
            dims=field("dims", lambda v: (int(v[0]), int(v[1]))),
            share_files=field("share_files", lambda v: tuple(map(_text, v))),
            content_digests=field("content_digests", tuple),
            cover_sources=field("cover_sources", tuple),
        )


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def save_manifest(manifest: EnrollmentManifest, path: str | Path) -> None:
    Path(path).write_text(manifest.to_json(), encoding="utf-8")


def load_manifest(path: str | Path) -> EnrollmentManifest:
    return EnrollmentManifest.from_json(Path(path).read_text(encoding="utf-8"))


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
    return ShareSet(tuple(shares), manifest.to_params(), manifest.dims)
