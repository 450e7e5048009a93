"""Cancelable biometric templates as XOR-chained image secret shares.

An original grayscale biometric image is split into n shares via an XOR
chain over cover images plus a reversible per-pixel bit transform; all n
shares reconstruct the secret bit-exactly, and keyed pixel permutations make
the stored template revocable. The metrics module scores how unlike the
original the shares are.
"""

from .batch import BatchRow, CorpusReport, image_seeds, run_batch, write_batch_csv
from .codecs import (
    BmpError,
    PgmError,
    load_bmp,
    load_image,
    load_image_file,
    load_pgm,
    save_pgm,
    write_pgm_file,
)
from .datasets import DATASET_KINDS, EmptyCorpusError, corpus_paths
from .images import (
    REVERSE8,
    BitTransform,
    DimensionMismatchError,
    GrayImage,
    bit_transform,
    require_same_dims,
    xor_images,
)
from .manifest import (
    EnrollmentManifest,
    IntegrityError,
    ManifestError,
    load_manifest,
    load_share_set,
    pixel_digest,
    save_enrollment,
    save_manifest,
)
from .metrics import (
    ConstantImageError,
    MetricsReport,
    correlation,
    mae,
    mean_reports,
    mse,
    npcr,
    psnr_from_mse,
    report_all,
    ssim,
    uaci,
)
from .permutation import (
    PermutationKey,
    derive_permutation,
    inverse_permute_image,
    permute_image,
)
from .prng import mix_seed, random_bytes, seed_sequence, splitmix64
from .scheme import (
    DegenerateImageError,
    Method,
    SchemeError,
    SchemeParams,
    ShareSet,
    authenticate,
    enroll,
    generate_shares,
    make_covers,
    noise_cover,
    resize_nearest,
    reveal_original,
    seed_count,
)
from .synthetic import textured_image

__version__ = "0.1.0"
