"""Groth16 zk-SNARK backend (pairing-based, trusted setup)."""

from .batch import batch_verify
from .keys import Groth16Keypair, Proof, ProvingKey, VerifyingKey
from .prove import prove
from .setup import setup
from .verify import clear_prepared_key_cache, prepare_verifying_key, verify

__all__ = [
    "Groth16Keypair",
    "batch_verify",
    "clear_prepared_key_cache",
    "Proof",
    "ProvingKey",
    "VerifyingKey",
    "prepare_verifying_key",
    "prove",
    "setup",
    "verify",
]
